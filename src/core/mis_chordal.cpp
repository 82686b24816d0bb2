#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/mis.hpp"
#include "core/peeling.hpp"
#include "interval/absorbing_mis.hpp"
#include "interval/mis_interval.hpp"
#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::core {

using interval::PathIntervals;

MisResult mis_chordal(const Graph& g, const MisOptions& options) {
  // The negated range test also rejects a NaN eps.
  if (!(options.eps > 0 && options.eps < 0.5)) {
    throw std::invalid_argument("mis_chordal: eps must be in (0, 1/2)");
  }
  // The scale parameters are pure functions of eps. They are checked in
  // double before the cast (an out-of-range int conversion is undefined
  // behaviour) and filled before the degenerate early return so the result
  // contract holds for n = 0 too (fuzz-found: d/iterations stayed 0 on the
  // empty graph).
  const double d_real = options.d_override > 0
                            ? options.d_override
                            : std::ceil(64.0 / options.eps);
  const double iterations_real = std::ceil(std::log2(d_real / options.eps)) + 2;
  if (!(d_real <= std::numeric_limits<int>::max() &&
        iterations_real <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument(
        "mis_chordal: eps too small: d = ceil(64/eps) or the iteration count "
        "does not fit in an int");
  }
  MisResult result;
  result.d = static_cast<int>(d_real);
  result.iterations = static_cast<int>(iterations_real);
  if (g.num_vertices() == 0) return result;

  obs::Span span("MIS Algorithm 6 (Theorems 7/8)");
  const bool telemetry = span.live();
  // Bandwidth model for this run: options.net. Always-on, like the MVC
  // driver: under CONGEST the per-layer clocks pay ceil(words / B) transfer
  // rounds for the multi-word component broadcasts; word charges are
  // identical across models.
  auto xfer = [&options, &g](std::int64_t words) {
    return local::transfer_rounds(words, options.net, g.num_vertices());
  };
  std::vector<std::int64_t> congestion;

  if (telemetry) {
    congestion.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    span.note("n", g.num_vertices());
    span.note("d", result.d);
    span.note("eps", options.eps);
    span.note("iterations", result.iterations);
  }

  CliqueForest forest = CliqueForest::build(g);
  PeelConfig config;
  config.mode = PeelMode::kIndependentSet;
  config.d = result.d;
  config.max_iterations = result.iterations;
  PeelingResult peeling;
  {
    obs::Span peel_span("pruning: O(log(1/eps)) peel iterations (Lemma 14)");
    peeling = peel(g, forest, config);
    peel_span.note("layers", peeling.num_layers);
  }

  std::vector<char> in_set(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<char> blocked(static_cast<std::size_t>(g.num_vertices()), 0);

  // Ball radius per peel iteration: enough to see the 2d+3 diameter
  // decisions plus the absorbing sweeps.
  const std::int64_t ball_rounds = 4 * static_cast<std::int64_t>(result.d) +
                                   6;

  int layer_index = 0;
  for (const auto& layer : peeling.layers) {
    ++layer_index;
    obs::Span layer_span("peeling layer " + std::to_string(layer_index) +
                         " solve");
    if (telemetry) {
      // Ball collection heartbeat: every still-undecided node hears one
      // word per neighbor per round of this layer's Gamma^{4d+6} sweep.
      std::int64_t messages = 0;
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (peeling.layer_of[v] != 0 && peeling.layer_of[v] < layer_index) {
          continue;
        }
        std::int64_t words =
            local::ball_heartbeat_words(g.degree(v), ball_rounds);
        congestion[v] += words;
        messages += words;
      }
      layer_span.add_messages(messages, messages);
    }
    std::int64_t layer_mis_rounds = 0;
    // Distinct paths of one layer are non-adjacent (Lemma 11): a pick in
    // one path never blocks a vertex of another path of the same layer, so
    // every path's component solves run in parallel against the pre-layer
    // blocked state. The in_set/blocked updates (and the conflict tripwire)
    // are applied sequentially afterwards, in the original path order.
    struct PathOutcome {
      std::vector<std::vector<int>> picked_by_comp;  // global ids, pick order
      int absorbing = 0;
      int approx = 0;
      std::int64_t mis_rounds = 0;
      std::int64_t msg_count = 0;
      std::int64_t msg_words = 0;
    };
    std::vector<PathOutcome> outcomes(layer.size());
    std::vector<PathScratch> scratch(
        static_cast<std::size_t>(support::num_threads()));
    support::parallel_for(layer.size(), [&](std::size_t pi,
                                            std::size_t worker) {
      const auto& lp = layer[pi];
      PathOutcome& out = outcomes[pi];
      PathScratch& ps = scratch[worker];
      interval_model(forest.cliques(), lp.path.cliques, ps, ps.rep);
      const PathIntervals& full = ps.rep;
      // Eligible = owned vertices with no neighbor already chosen.
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < full.vertices.size(); ++i) {
        int v = full.vertices[i];
        if (!blocked[v] &&
            std::binary_search(lp.owned.begin(), lp.owned.end(), v)) {
          eligible.push_back(i);
        }
      }
      if (eligible.empty()) return;
      PathIntervals model = interval::restrict(full, eligible);

      const interval::Components comps = interval::components(model);
      for (std::size_t c = 0; c < comps.size(); ++c) {
        PathIntervals sub = interval::restrict(model, comps[c]);
        // Each component member learns the component's interval model (two
        // words per interval) before the local solve; under CONGEST that
        // broadcast costs ceil(words / B) rounds on top of the solve.
        const std::int64_t broadcast_words = local::component_broadcast_words(
            static_cast<std::int64_t>(sub.vertices.size()));
        const std::int64_t broadcast_rounds = xfer(broadcast_words);
        if (telemetry) {
          for (std::size_t i = 0; i < sub.vertices.size(); ++i) {
            congestion[sub.vertices[i]] += broadcast_words;
          }
          out.msg_count += static_cast<std::int64_t>(sub.vertices.size());
          out.msg_words +=
              static_cast<std::int64_t>(sub.vertices.size()) * broadcast_words;
        }
        std::vector<std::size_t> picked_local;
        if (interval_alpha(sub, ps) < result.d) {
          ++out.absorbing;
          // Attachment side: the component touches the left (right) end
          // clique of the path iff some member covers the first (last)
          // position; an attachment exists there iff the path has one.
          bool touch_left = false, touch_right = false;
          for (std::size_t i = 0; i < sub.vertices.size(); ++i) {
            touch_left = touch_left || sub.lo[i] == 0;
            touch_right = touch_right || sub.hi[i] == full.num_positions - 1;
          }
          interval::AttachSide side = interval::AttachSide::kNone;
          if (lp.path.attach_left != -1 && touch_left) {
            side = interval::AttachSide::kLeft;
          }
          if (lp.path.attach_right != -1 && touch_right) {
            side = interval::AttachSide::kRight;
          }
          picked_local = interval::absorbing_mis(sub, side);
          out.mis_rounds = std::max<std::int64_t>(
              out.mis_rounds, broadcast_rounds + 2 * result.d + 3);
        } else {
          ++out.approx;
          auto res = interval::approx_mis_interval(sub, options.eps / 8.0);
          picked_local = std::move(res.chosen);
          out.mis_rounds =
              std::max(out.mis_rounds, broadcast_rounds + res.rounds);
        }
        auto& picks = out.picked_by_comp.emplace_back();
        picks.reserve(picked_local.size());
        for (std::size_t i : picked_local) picks.push_back(sub.vertices[i]);
      }
    });
    std::int64_t layer_msg_count = 0, layer_msg_words = 0;
    for (const PathOutcome& out : outcomes) {
      result.absorbing_components += out.absorbing;
      result.approx_components += out.approx;
      layer_mis_rounds = std::max(layer_mis_rounds, out.mis_rounds);
      layer_msg_count += out.msg_count;
      layer_msg_words += out.msg_words;
      for (const auto& picks : out.picked_by_comp) {
        for (int v : picks) {
          if (blocked[v] || in_set[v]) {
            throw std::logic_error("mis_chordal: conflicting pick");
          }
          in_set[v] = 1;
          obs::trace_emit(nullptr, obs::TraceEventKind::kMisPick, v,
                          layer_index);
        }
        for (int v : picks) {
          for (int w : g.neighbors(v)) blocked[w] = 1;
        }
      }
    }
    if (telemetry && layer_msg_count > 0) {
      obs::Span::charge_messages(layer_msg_count, layer_msg_words);
    }
    result.rounds += ball_rounds + layer_mis_rounds;
    layer_span.set_rounds(ball_rounds + layer_mis_rounds);
  }

  for (int v = 0; v < g.num_vertices(); ++v) {
    if (in_set[v]) result.chosen.push_back(v);
  }
  span.set_rounds(result.rounds);
  span.note("chosen", static_cast<double>(result.chosen.size()));
  span.note("absorbing_components", result.absorbing_components);
  span.note("approx_components", result.approx_components);
  if (telemetry) {
    if (obs::Registry* reg = obs::current()) {
      auto& hist = reg->histogram("mis.node_congestion_words");
      for (int v = 0; v < g.num_vertices(); ++v) {
        hist.add(static_cast<double>(congestion[v]));
      }
    }
  }
  return result;
}

}  // namespace chordal::core
