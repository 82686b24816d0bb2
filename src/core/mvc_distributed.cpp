#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/mvc.hpp"
#include "core/local_decision.hpp"
#include "core/peeling.hpp"
#include "graph/cliques.hpp"
#include "interval/col_int_graph.hpp"
#include "interval/offline.hpp"
#include "interval/window_recolor.hpp"
#include "local/ball.hpp"
#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::core {

namespace {

using interval::PathIntervals;

struct Engine {
  const Graph& g;
  const MvcOptions& options;
  MvcResult result;
  CliqueForest forest;
  PeelingResult peeling;
  // Per-vertex completion time of the current phase (LOCAL clocks).
  std::vector<std::int64_t> clock;
  // Telemetry (populated only when an obs::Registry is installed):
  // per-vertex payload words received under the documented bandwidth model
  // (see EXPERIMENTS.md "Telemetry"), the congestion hot-spot profile.
  bool telemetry = false;
  std::vector<std::int64_t> congestion;

  explicit Engine(const Graph& graph, const MvcOptions& opts)
      : g(graph),
        options(opts),
        forest(CliqueForest::build(graph)) {}

  /// Transfer rounds for a `words`-sized logical message under options.net:
  /// 0 under LOCAL, ceil(words / B) under CONGEST, wherever the documented
  /// model ships a multi-word message; the *word* charges are identical
  /// across models. Always-on (not telemetry-gated): round counts are
  /// results, and results must not depend on whether a Registry is
  /// installed.
  std::int64_t xfer(std::int64_t words) const {
    return local::transfer_rounds(words, options.net, g.num_vertices());
  }

  void run(int k) {
    obs::Span span("MVC Algorithm 2 (Theorem 4)");
    telemetry = span.live();
    result.k = k;
    result.omega = 0;
    for (const auto& clique : forest.cliques()) {
      result.omega = std::max(result.omega, static_cast<int>(clique.size()));
    }
    result.colors.assign(static_cast<std::size_t>(g.num_vertices()), -1);
    clock.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    if (telemetry) {
      congestion.assign(static_cast<std::size_t>(g.num_vertices()), 0);
      span.note("n", g.num_vertices());
      span.note("k", result.k);
      span.note("eps", options.eps);
    }

    {
      obs::Span prune_span("pruning: Gamma^{10k} collections (Alg 3, Lemma 6)");
      if (options.pruning == PruningMode::kPerNodeLocalViews) {
        peeling = peel_with_local_decisions(g, forest, result.k);
      } else {
        PeelConfig config;
        config.mode = PeelMode::kColoring;
        config.k = result.k;
        peeling = peel(g, forest, config);
      }
      result.num_layers = peeling.num_layers;

      // --- Pruning clocks: a node of layer i survived i iterations, each
      // one a Gamma^{10k} collection (Algorithm 3).
      for (int v = 0; v < g.num_vertices(); ++v) {
        clock[v] = static_cast<std::int64_t>(peeling.layer_of[v]) * 10 *
                   result.k;
      }
      result.pruning_rounds =
          *std::max_element(clock.begin(), clock.end());
      prune_span.set_rounds(result.pruning_rounds);
      prune_span.note("layers", result.num_layers);
      if (telemetry) {
        // Bandwidth model: while active, a node hears one word per neighbor
        // per round (the flooding heartbeat of its ball collection). One
        // word per edge per round fits any B >= 1, so the pruning clocks
        // need no extra CONGEST transfer rounds - the blow-up comes from
        // the multi-word model shipping in phases 2 and 3.
        std::int64_t messages = 0;
        for (int v = 0; v < g.num_vertices(); ++v) {
          std::int64_t words = local::pruning_heartbeat_words(
              g.degree(v), result.k, peeling.layer_of[v]);
          congestion[v] += words;
          messages += words;
        }
        prune_span.add_messages(messages, messages);
      }
    }

    {
      obs::Span color_span(
          "layer coloring: ColIntGraph per path (Lemmas 7, 11)");
      color_layers();
      result.coloring_rounds =
          *std::max_element(clock.begin(), clock.end()) -
          result.pruning_rounds;
      color_span.set_rounds(result.coloring_rounds);
    }

    {
      obs::Span fix_span("color correction windows (Alg 4, Lemmas 8-10)");
      correct_layers();
      result.rounds = *std::max_element(clock.begin(), clock.end());
      result.correction_rounds =
          result.rounds - result.coloring_rounds - result.pruning_rounds;
      fix_span.set_rounds(result.correction_rounds);
      fix_span.note("recolored_vertices", result.recolored_vertices);
      fix_span.note("palette_violations", result.palette_violations);
    }

    finalize_counts();
    span.set_rounds(result.rounds);
    span.note("colors", result.num_colors);
    if (telemetry) publish_node_histograms();
  }

  /// Per-node round clocks and congestion maxima, histogrammed across the
  /// network ("where are the hot spots").
  void publish_node_histograms() const {
    obs::Registry* reg = obs::current();
    if (reg == nullptr) return;
    auto& rounds_hist = reg->histogram("mvc.node_rounds");
    auto& congestion_hist = reg->histogram("mvc.node_congestion_words");
    for (int v = 0; v < g.num_vertices(); ++v) {
      rounds_hist.add(static_cast<double>(clock[v]));
      congestion_hist.add(static_cast<double>(congestion[v]));
    }
  }

  /// Per-worker accumulators for the parallel phases. Owned vertex sets of
  /// distinct (layer, path) units are disjoint, so colors/clock/congestion
  /// writes race-free by construction; everything else accumulates here and
  /// merges in worker order after the region (all integer sums/maxima, so
  /// the merged totals are independent of the thread count).
  struct WorkerTally {
    PathScratch scratch;
    PathIntervals full;
    std::int64_t palette_violations = 0;
    std::int64_t recolored = 0;
    std::int64_t msg_count = 0;
    std::int64_t msg_words = 0;
  };

  /// Phase 2: every layer is an interval graph (one clique path per peeled
  /// path, Lemma 7); color each path's owned set independently - distinct
  /// paths of one layer are non-adjacent (Lemma 11), and owned sets across
  /// layers are disjoint, so every unit runs in parallel.
  void color_layers() {
    std::vector<std::pair<const LayerPath*, int>> units;  // (path, layer)
    int layer_index = 0;
    for (const auto& layer : peeling.layers) {
      ++layer_index;
      for (const auto& lp : layer) {
        if (!lp.owned.empty()) units.emplace_back(&lp, layer_index);
      }
    }
    std::vector<WorkerTally> tally(
        static_cast<std::size_t>(support::num_threads()));
    obs::Tracer* tracer = obs::tracer();
    if (tracer != nullptr) {
      tracer->ensure_workers(
          static_cast<std::size_t>(support::num_threads()));
    }
    support::parallel_for(
        units.size(), [&](std::size_t idx, std::size_t worker) {
          WorkerTally& t = tally[worker];
          const LayerPath& lp = *units[idx].first;
          const int unit_layer = units[idx].second;
          obs::TraceBuf* tb =
              tracer != nullptr ? &tracer->worker(worker) : nullptr;
          interval_model(forest.cliques(), lp.path.cliques, t.scratch, t.full);
          const PathIntervals& full = t.full;
          std::vector<std::size_t> owned_idx;
          for (std::size_t i = 0; i < full.vertices.size(); ++i) {
            if (std::binary_search(lp.owned.begin(), lp.owned.end(),
                                   full.vertices[i])) {
              owned_idx.push_back(i);
            }
          }
          PathIntervals mine = interval::restrict(full, owned_idx);
          // Each owned vertex first learns its path's full interval model
          // (two words per interval); under CONGEST that multi-word message
          // takes ceil(words / B) rounds instead of piggybacking on the
          // LOCAL exchange.
          const std::int64_t model_words = local::interval_model_words(
              static_cast<std::int64_t>(full.vertices.size()));
          std::int64_t spent = xfer(model_words);
          std::vector<int> colors;
          if (options.layer_coloring == LayerColoringMode::kColIntGraph) {
            auto res = interval::col_int_graph(mine, result.k);
            colors = std::move(res.colors);
            t.palette_violations += res.palette_violations;
            spent += res.rounds;
          } else {
            colors = interval::color_optimal(mine);
            spent += 1;
          }
          for (std::size_t i = 0; i < mine.vertices.size(); ++i) {
            result.colors[mine.vertices[i]] = colors[i];
            clock[mine.vertices[i]] += spent;
            obs::trace_emit(tb, obs::TraceEventKind::kColorCommit,
                            mine.vertices[i], unit_layer, colors[i]);
          }
          if (telemetry) {
            for (std::size_t i = 0; i < mine.vertices.size(); ++i) {
              congestion[mine.vertices[i]] += model_words;
            }
            t.msg_count += static_cast<std::int64_t>(mine.vertices.size());
            t.msg_words += static_cast<std::int64_t>(mine.vertices.size()) *
                           model_words;
          }
        });
    if (tracer != nullptr) tracer->merge_workers();
    merge_tallies(tally);
  }

  /// Phase 3: descending over layers, resolve conflicts between each path's
  /// owned set W and its already-final neighbors W' (Lemmas 8-10). Layers
  /// stay sequential (higher layers must be final first); paths within one
  /// layer correct in parallel - a window only reads same-layer state of its
  /// own path plus higher-layer colors, never another path's owned set.
  void correct_layers() {
    std::vector<WorkerTally> tally(
        static_cast<std::size_t>(support::num_threads()));
    obs::Tracer* tracer = obs::tracer();
    if (tracer != nullptr) {
      tracer->ensure_workers(
          static_cast<std::size_t>(support::num_threads()));
    }
    for (int layer = result.num_layers - 1; layer >= 1; --layer) {
      const auto& paths =
          peeling.layers[static_cast<std::size_t>(layer) - 1];
      support::parallel_for(
          paths.size(), [&](std::size_t i, std::size_t worker) {
            obs::TraceBuf* tb =
                tracer != nullptr ? &tracer->worker(worker) : nullptr;
            correct_path(paths[i], layer, tb, tally[worker]);
          });
      if (tracer != nullptr) tracer->merge_workers();
    }
    merge_tallies(tally);
  }

  void merge_tallies(const std::vector<WorkerTally>& tally) {
    std::int64_t msg_count = 0, msg_words = 0;
    for (const WorkerTally& t : tally) {
      result.palette_violations += static_cast<int>(t.palette_violations);
      result.recolored_vertices += static_cast<int>(t.recolored);
      msg_count += t.msg_count;
      msg_words += t.msg_words;
    }
    if (telemetry && msg_count > 0) {
      obs::Span::charge_messages(msg_count, msg_words);
    }
  }

  void correct_path(const LayerPath& lp, int layer, obs::TraceBuf* tb,
                    WorkerTally& t) {
    interval_model(forest.cliques(), lp.path.cliques, t.scratch, t.full);
    const PathIntervals& full = t.full;
    const std::size_t n = full.vertices.size();
    std::vector<char> is_owned(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      is_owned[i] = std::binary_search(lp.owned.begin(), lp.owned.end(),
                                       full.vertices[i])
                        ? 1
                        : 0;
    }
    // W' = non-owned union vertices adjacent to an owned one. By Lemma 8
    // they live in the end cliques of the path, so their clipped intervals
    // capture all relevant adjacencies. Overlap-with-owned is tested via a
    // prefix-max table over the owned intervals.
    std::vector<int> owned_reach(static_cast<std::size_t>(full.num_positions),
                                 -1);
    for (std::size_t j = 0; j < n; ++j) {
      if (is_owned[j]) {
        owned_reach[full.lo[j]] = std::max(owned_reach[full.lo[j]],
                                           full.hi[j]);
      }
    }
    for (int p = 1; p < full.num_positions; ++p) {
      owned_reach[p] = std::max(owned_reach[p], owned_reach[p - 1]);
    }
    std::vector<std::size_t> boundary;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_owned[i]) continue;
      if (owned_reach[full.hi[i]] >= full.lo[i]) boundary.push_back(i);
    }
    if (boundary.empty()) return;

    // Grown from the hull of W', which spans the whole path when W' sits at
    // both ends; Algorithm 4's window is within k+4 of W' itself, but that
    // bound changes the outputs, so the hull start stays.
    std::vector<int>& dist = t.scratch.dist;
    interval_distances(full, boundary, result.k + 5, t.scratch, dist);
    // Window: everything within k+4 of W'; free = owned within k+3.
    std::vector<std::size_t> window;
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i] != -1 && dist[i] <= result.k + 4) window.push_back(i);
    }
    interval::RecolorProblem problem;
    problem.rep = interval::restrict(full, window);
    problem.fixed.assign(window.size(), -1);
    int max_fixed = -1;
    std::vector<std::size_t> free_local;
    for (std::size_t w = 0; w < window.size(); ++w) {
      std::size_t i = window[w];
      bool free = is_owned[i] && dist[i] <= result.k + 3;
      if (free) {
        free_local.push_back(w);
      } else {
        problem.fixed[w] = result.colors[full.vertices[i]];
        max_fixed = std::max(max_fixed, problem.fixed[w]);
      }
    }
    if (free_local.empty()) return;
    int w_win = interval::omega(problem.rep);
    problem.palette =
        std::max(w_win + w_win / result.k + 1, max_fixed + 1);
    std::vector<int> solved;
    for (;;) {
      auto attempt = interval::extend_coloring(problem);
      if (attempt.has_value()) {
        solved = std::move(*attempt);
        break;
      }
      ++problem.palette;  // Lemma 10 says unreachable; tracked tripwire.
      ++t.palette_violations;
      if (problem.palette > 3 * result.omega + 3) {
        throw std::logic_error("mvc: correction window unsolvable");
      }
    }
    // Timing: the path's parents act once W' and the untouched interior are
    // final; recoloring is a local O(k) exchange (Algorithm 4). Under
    // CONGEST, shipping the window state (three words per member) costs
    // ceil(words / B) extra rounds on top of the O(k) exchange.
    std::int64_t ready = 0;
    for (std::size_t w = 0; w < window.size(); ++w) {
      ready = std::max(ready, clock[full.vertices[window[w]]]);
    }
    std::int64_t done =
        ready + result.k + 7 +
        xfer(local::correction_window_words(
            static_cast<std::int64_t>(window.size())));
    for (std::size_t w : free_local) {
      int v = full.vertices[window[w]];
      if (result.colors[v] != solved[w]) {
        ++t.recolored;
        obs::trace_emit(tb, obs::TraceEventKind::kRecolor, v, layer,
                        solved[w]);
      }
      result.colors[v] = solved[w];
      clock[v] = std::max(clock[v], done);
    }
    if (telemetry) {
      // Every free vertex sees the whole recoloring window (interval + fixed
      // color per member) during the O(k) exchange.
      auto window_words = local::correction_window_words(
          static_cast<std::int64_t>(window.size()));
      for (std::size_t w : free_local) {
        congestion[full.vertices[window[w]]] += window_words;
      }
      t.msg_count += static_cast<std::int64_t>(free_local.size());
      t.msg_words +=
          static_cast<std::int64_t>(free_local.size()) * window_words;
    }
  }

  void finalize_counts() {
    int max_color = -1;
    for (int c : result.colors) max_color = std::max(max_color, c);
    std::vector<char> used(static_cast<std::size_t>(max_color) + 1, 0);
    for (int c : result.colors) {
      if (c < 0) throw std::logic_error("mvc: uncolored vertex");
      used[c] = 1;
    }
    result.num_colors = static_cast<int>(
        std::count(used.begin(), used.end(), static_cast<char>(1)));
  }
};

}  // namespace

MvcResult mvc_chordal(const Graph& g, const MvcOptions& options) {
  // Validated in double before the cast: ceil(2/eps) beyond int range (or a
  // NaN eps) would make the conversion undefined behaviour.
  const double k_real = std::ceil(2.0 / options.eps);
  if (!std::isfinite(options.eps) || options.eps <= 0 ||
      k_real > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "mvc_chordal: eps must be positive, finite, and have ceil(2/eps) "
        "fit in an int");
  }
  const int k = std::max(2, static_cast<int>(k_real));
  if (g.num_vertices() == 0) {
    // Degenerate input still honors the result contract: k is a pure
    // function of eps, not of the graph (fuzz-found: k stayed 0 here).
    MvcResult result;
    result.k = k;
    return result;
  }
  Engine engine(g, options);
  engine.run(k);
  return engine.result;
}

}  // namespace chordal::core
