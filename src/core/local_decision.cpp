#include "core/local_decision.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "cliqueforest/local_view.hpp"
#include "local/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::core {

namespace {

enum class EndKind { kBranch, kLeaf, kHorizon };

/// What a node can certify about the maximal binary path around T(v) from
/// its ball: the two end kinds. The visible chain itself stays in the
/// worker's DecisionScratch for chain_model.
struct ChainAnalysis {
  bool family_binary = false;  // all cliques of T(v) have visible degree <=2
  EndKind ends[2] = {EndKind::kBranch, EndKind::kBranch};
};

/// One worker's reusable state for the per-node decision loop: the ball
/// workspace and local view, plus every view-sized buffer analyze_chain
/// needs. Warm across all iterations, so steady-state decisions allocate
/// nothing.
struct DecisionScratch {
  local::BallWorkspace ws;
  LocalView view;
  std::vector<int> adj_off, adj_cursor, adj_list;  // view-forest CSR
  std::vector<int> family;
  std::vector<char> in_family;
  std::vector<int> chain;  // the visible chain's cliques, in path order
  PathScratch intervals;   // the chain's interval model and its queries
};

/// One worker scratch per thread. Under an obs::Tracer each worker's
/// workspace stages its library events (per-family forest builds) in that
/// worker's Tracer::worker ring; the driver merges the rings in worker
/// order after each region, so streams are identical at any thread count.
std::vector<DecisionScratch> worker_scratch(obs::Tracer* tracer) {
  const auto workers = static_cast<std::size_t>(support::num_threads());
  std::vector<DecisionScratch> scratch(workers);
  if (tracer != nullptr) {
    tracer->ensure_workers(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      scratch[w].ws.trace = &tracer->worker(w);
    }
  }
  return scratch;
}

/// Collects v's distance-`radius` ball in the active subgraph, rebuilds its
/// local view (Lemma 2) and analyzes the chain around T(v) from it.
ChainAnalysis analyze_chain(const Graph& g, int v, int radius,
                            const std::vector<char>& active,
                            DecisionScratch& s) {
  local::compute_local_view(g, v, radius, &active, s.ws, s.view);
  const LocalView& view = s.view;
  ChainAnalysis analysis;
  const int m = static_cast<int>(view.cliques.size());
  // View-forest adjacency, flat CSR. Filling edge-by-edge with per-clique
  // cursors reproduces the push_back order of an adjacency-list build.
  s.adj_off.assign(static_cast<std::size_t>(m) + 1, 0);
  for (auto [a, b] : view.forest_edges) {
    ++s.adj_off[a + 1];
    ++s.adj_off[b + 1];
  }
  for (int c = 0; c < m; ++c) s.adj_off[c + 1] += s.adj_off[c];
  s.adj_cursor.assign(s.adj_off.begin(), s.adj_off.end() - 1);
  s.adj_list.resize(2 * view.forest_edges.size());
  for (auto [a, b] : view.forest_edges) {
    s.adj_list[s.adj_cursor[a]++] = b;
    s.adj_list[s.adj_cursor[b]++] = a;
  }
  auto adj = [&s](int c) {
    return std::span<const int>(s.adj_list.data() + s.adj_off[c],
                                static_cast<std::size_t>(s.adj_off[c + 1] -
                                                         s.adj_off[c]));
  };
  auto adj_size = [&s](int c) { return s.adj_off[c + 1] - s.adj_off[c]; };
  // Distances within the active subgraph (what the ball actually shows):
  // every view-clique vertex is a ball member, so the distances recorded
  // during the ball collection are exactly the restricted BFS distances.
  auto clique_maxdist = [&](int c) {
    int far = 0;
    for (VertexId u : view.cliques[c]) {
      far = std::max(far, s.ws.last_ball_dist(static_cast<int>(u)));
    }
    return far;
  };
  auto degree_trusted = [&](int c) { return clique_maxdist(c) <= radius - 2; };

  // phi(v) within the view.
  s.family.clear();
  for (int c = 0; c < m; ++c) {
    CliqueWord word = view.cliques[c];
    if (std::binary_search(word.begin(), word.end(),
                           static_cast<VertexId>(v))) {
      s.family.push_back(c);
    }
  }
  const auto& family = s.family;
  // Every clique of T(v) must be binary for v to be removable at all; all
  // of them sit within distance 1 of v, hence degree-trusted.
  for (int c : family) {
    if (adj_size(c) >= 3) return analysis;
  }
  analysis.family_binary = true;

  // Collect the maximal visible binary chain containing T(v), in path
  // order: side 0's outward walk reversed, the family from tip 0 to tip 1,
  // then side 1's outward walk. Each side walks from one family tip along
  // its unique non-family direction.
  s.in_family.assign(static_cast<std::size_t>(m), 0);
  for (int c : family) s.in_family[c] = 1;
  // The family is a subtree of a binary chain, i.e. a subpath, but it is
  // stored in clique-index order: recover its true tips (members with at
  // most one family neighbor) before walking outward.
  int tips[2] = {family.front(), family.front()};
  int steps[2] = {-1, -1};
  if (family.size() == 1) {
    std::size_t slot = 0;
    for (int c : adj(tips[0])) {
      if (slot < 2) steps[slot++] = c;
    }
  } else {
    int found = 0;
    for (int c : family) {
      int family_neighbors = 0;
      for (int d : adj(c)) family_neighbors += s.in_family[d] ? 1 : 0;
      if (family_neighbors <= 1 && found < 2) tips[found++] = c;
    }
    for (int side = 0; side < 2; ++side) {
      for (int c : adj(tips[side])) {
        if (!s.in_family[c]) steps[side] = c;
      }
    }
  }
  auto walk_outward = [&](int side) {
    // Family cliques sit within Gamma[v]: degree-trusted, so a missing
    // outward direction is a genuine leaf end of the maximal path.
    if (steps[side] == -1) return EndKind::kLeaf;
    int prev = tips[side];
    int cur = steps[side];
    for (;;) {
      // Visible degrees never overestimate: a real branch vertex, which
      // terminates the maximal binary path (and is not part of it).
      if (adj_size(cur) >= 3) return EndKind::kBranch;
      s.chain.push_back(cur);
      // The view may miss forest edges here; everything farther out is
      // beyond the certainty horizon.
      if (!degree_trusted(cur)) return EndKind::kHorizon;
      int next = -1;
      for (int c : adj(cur)) {
        if (c != prev) next = c;
      }
      if (next == -1) return EndKind::kLeaf;
      prev = cur;
      cur = next;
    }
  };
  s.chain.clear();
  analysis.ends[0] = walk_outward(0);
  std::reverse(s.chain.begin(), s.chain.end());
  for (int prev = -1, cur = tips[0]; cur != -1;) {
    s.chain.push_back(cur);
    int next = -1;
    for (int d : adj(cur)) {
      if (s.in_family[d] && d != prev) next = d;
    }
    prev = cur;
    cur = next;
  }
  analysis.ends[1] = walk_outward(1);
  return analysis;
}

/// Interval model of the chain the last analyze_chain call collected: its
/// clique positions (Lemma 7). Diameter and alpha on it are exact within
/// the active subgraph, whose shortest paths between chain-union vertices
/// never leave the union. Built only when the two ends leave the decision
/// to a threshold.
const PathIntervals& chain_model(DecisionScratch& s) {
  interval_model(s.view.cliques, s.chain, s.intervals, s.intervals.rep);
  return s.intervals.rep;
}

/// One node's pruning decision from its own ball. A visible leaf end makes
/// the maximal path pendant (removed in both modes); two branch ends leave
/// it to the shared threshold rule, internal_path_removed. A horizon end is
/// radius-2 away, which certifies the threshold: at radius 10k the visible
/// chain already has diameter >= 3k; at 4d+10 it has diameter >= 4d+7 >=
/// 2d+3 and alpha >= diameter/2 >= d. `last_round` selects the MIS
/// threshold of the final iteration.
bool decide_locally(const Graph& g, int v, int radius,
                    const PeelConfig& config, bool last_round,
                    bool* used_horizon, const std::vector<char>& active,
                    DecisionScratch& scratch) {
  ChainAnalysis a = analyze_chain(g, v, radius, active, scratch);
  if (!a.family_binary) return false;
  if (a.ends[0] == EndKind::kLeaf || a.ends[1] == EndKind::kLeaf) return true;
  if (a.ends[0] == EndKind::kHorizon || a.ends[1] == EndKind::kHorizon) {
    if (used_horizon != nullptr) *used_horizon = true;
    return true;
  }
  return internal_path_removed(chain_model(scratch), config, last_round,
                               scratch.intervals);
}

/// The audit loop shared by both modes: replays the peeling's activity
/// masks and compares every `stride`-th active vertex's local decision,
/// decide(v, iter, active, scratch, &used_horizon), with its global layer.
/// The masks are monotone - every vertex leaves once, right after its own
/// layer, and layer-0 vertices (never peeled, MIS mode) stay active - so
/// one mask is fed the per-iteration deactivation delta.
template <class Decide>
LocalDecisionAudit audit_decisions(const Graph& g,
                                   const PeelingResult& peeling, int stride,
                                   Decide decide) {
  LocalDecisionAudit audit;
  const int n = g.num_vertices();
  const int step = std::max(1, stride);
  obs::Tracer* tracer = obs::tracer();
  std::vector<DecisionScratch> scratch = worker_scratch(tracer);
  std::vector<char> active(static_cast<std::size_t>(n), 1);
  std::vector<char> local(static_cast<std::size_t>(n), 0);
  std::vector<char> horizon(static_cast<std::size_t>(n), 0);
  for (int iter = 1; iter <= peeling.num_layers; ++iter) {
    if (iter > 1) {
      for (int u = 0; u < n; ++u) {
        if (peeling.layer_of[u] == iter - 1) active[u] = 0;
      }
    }
    support::parallel_for_ranges(
        static_cast<std::size_t>(n),
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          DecisionScratch& s = scratch[worker];
          for (std::size_t i = begin; i < end; ++i) {
            int v = static_cast<int>(i);
            if (v % step != 0 || !active[v]) continue;
            bool used_horizon = false;
            local[i] = decide(v, iter, active, s, &used_horizon) ? 1 : 0;
            horizon[i] = used_horizon ? 1 : 0;
          }
        });
    if (tracer != nullptr) tracer->merge_workers();
    for (int v = 0; v < n; v += step) {
      if (!active[v]) continue;
      bool removed_locally = local[v] != 0;
      bool removed_globally = peeling.layer_of[v] == iter;
      obs::trace_emit(nullptr, obs::TraceEventKind::kAuditDecision, v, iter,
                      removed_locally ? 1 : 0, removed_globally ? 1 : 0);
      ++audit.decisions_checked;
      if (horizon[v]) ++audit.horizon_hits;
      if (removed_locally != removed_globally) ++audit.mismatches;
    }
  }
  return audit;
}

}  // namespace

PeelingResult peel_with_local_decisions(const Graph& g,
                                        const CliqueForest& forest, int k) {
  const int radius = 10 * k;
  const PeelConfig config{.mode = PeelMode::kColoring, .k = k};
  const int m = forest.num_cliques();
  PeelingResult result;
  result.layer_of.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<char> active_clique(static_cast<std::size_t>(m), 1);
  int remaining = g.num_vertices();
  int iteration_cap = 4 * (32 - __builtin_clz(std::max(2, g.num_vertices())));
  // Every node rebuilds its ball and view from scratch at every iteration,
  // as in Algorithm 3, through its worker's reusable scratch. Decision
  // events stage in the worker's Tracer ring next to the library events.
  obs::Tracer* tracer = obs::tracer();
  std::vector<DecisionScratch> scratch = worker_scratch(tracer);
  std::vector<char> active_vertex(static_cast<std::size_t>(g.num_vertices()),
                                  1);

  for (int iter = 1; remaining > 0; ++iter) {
    if (iter > iteration_cap) {
      throw std::logic_error("peel_with_local_decisions: no convergence");
    }
    int high_degree = 0;
    for (int c = 0; c < m; ++c) {
      if (!active_clique[c]) continue;
      int deg = 0;
      for (CliqueId nb : forest.forest_neighbors(c)) {
        deg += active_clique[nb] ? 1 : 0;
      }
      if (deg >= 3) ++high_degree;
    }
    result.high_degree_counts.push_back(high_degree);

    // Every active node decides independently from its own ball: the
    // canonical embarrassingly-parallel LOCAL loop. Workers own disjoint
    // contiguous index ranges (see support/parallel.hpp), write disjoint
    // removed[] slots, and count views per worker; merging the counts in
    // worker order keeps telemetry identical at any thread count.
    obs::Span view_span("Lemma 2 local views, iter " + std::to_string(iter));
    std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
    std::vector<std::int64_t> worker_views(
        static_cast<std::size_t>(support::num_threads()), 0);
    support::parallel_for_ranges(
        static_cast<std::size_t>(g.num_vertices()),
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          DecisionScratch& s = scratch[worker];
          obs::TraceBuf* tb =
              tracer != nullptr ? &tracer->worker(worker) : nullptr;
          for (std::size_t i = begin; i < end; ++i) {
            int v = static_cast<int>(i);
            if (!active_vertex[v]) continue;
            ++worker_views[worker];
            bool remove = decide_locally(g, v, radius, config,
                                         /*last_round=*/false, nullptr,
                                         active_vertex, s);
            if (remove) removed[v] = 1;
            obs::trace_emit(tb, obs::TraceEventKind::kLocalDecision, v, iter,
                            remove ? 1 : 0);
          }
        });
    if (tracer != nullptr) tracer->merge_workers();
    std::int64_t views_computed = 0;
    for (std::int64_t count : worker_views) views_computed += count;
    if (view_span.live()) {
      // Each decision floods a Gamma^{10k} ball: radius rounds, one 1-word
      // heartbeat per neighbor per round (exact volumes are histogrammed by
      // collect_ball when the views go through it).
      view_span.set_rounds(radius);
      view_span.note("views_computed", static_cast<double>(views_computed));
      if (obs::Registry* reg = obs::current()) {
        reg->counter("local_view.decisions").add(views_computed);
      }
    }

    // Reconcile with the path structure: the removed set must be exactly
    // the union of owned sets of the selected paths.
    std::vector<LayerPath> taken;
    std::size_t removed_total = 0;
    for (int v = 0; v < g.num_vertices(); ++v) removed_total += removed[v];
    std::size_t accounted = 0;
    for (auto& path : maximal_binary_paths(forest, active_clique)) {
      auto owned = path_owned_vertices(forest, active_clique, path);
      if (owned.empty()) continue;
      bool all = true, none = true;
      for (int v : owned) {
        if (removed[v]) {
          none = false;
        } else {
          all = false;
        }
      }
      if (!all && !none) {
        throw std::logic_error(
            "peel_with_local_decisions: split decision within one path");
      }
      if (!all) continue;
      accounted += owned.size();
      LayerPath lp;
      lp.owned = std::move(owned);
      lp.path = std::move(path);
      taken.push_back(std::move(lp));
    }
    if (accounted != removed_total) {
      throw std::logic_error(
          "peel_with_local_decisions: removed set is not path-aligned");
    }
    if (taken.empty()) {
      throw std::logic_error("peel_with_local_decisions: no progress");
    }
    for (const auto& lp : taken) {
      obs::trace_emit(nullptr, obs::TraceEventKind::kPeelDecision,
                      lp.path.cliques.empty() ? -1 : lp.path.cliques.front(),
                      iter, static_cast<std::int64_t>(lp.path.cliques.size()),
                      static_cast<std::int64_t>(lp.owned.size()));
      for (int v : lp.owned) {
        result.layer_of[v] = iter;
        active_vertex[v] = 0;
        --remaining;
        obs::trace_emit(nullptr, obs::TraceEventKind::kPeelCommit, v, iter);
      }
      for (int c : lp.path.cliques) active_clique[c] = 0;
    }
    result.layers.push_back(std::move(taken));
    result.num_layers = iter;
  }
  return result;
}

LocalDecisionAudit audit_local_pruning(const Graph& g,
                                       const PeelingResult& peeling, int k,
                                       int stride) {
  const int radius = 10 * k;
  const PeelConfig config{.mode = PeelMode::kColoring, .k = k};
  return audit_decisions(
      g, peeling, stride,
      [&](int v, int, const std::vector<char>& active, DecisionScratch& s,
          bool* used_horizon) {
        return decide_locally(g, v, radius, config, /*last_round=*/false,
                              used_horizon, active, s);
      });
}

LocalDecisionAudit audit_local_pruning_mis(const Graph& g,
                                           const PeelingResult& peeling,
                                           int d, int stride) {
  const int radius = 4 * d + 10;
  const PeelConfig config{.mode = PeelMode::kIndependentSet, .d = d};
  return audit_decisions(
      g, peeling, stride,
      [&](int v, int iter, const std::vector<char>& active,
          DecisionScratch& s, bool*) {
        return decide_locally(g, v, radius, config,
                              iter == peeling.num_layers, nullptr, active, s);
      });
}

}  // namespace chordal::core
