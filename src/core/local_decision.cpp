#include "core/local_decision.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "cliqueforest/local_view.hpp"
#include "graph/diameter.hpp"
#include "local/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::core {

namespace {

enum class EndKind { kBranch, kLeaf, kHorizon };

struct ChainEnd {
  EndKind kind = EndKind::kBranch;
};

/// What a node can certify about the maximal binary path around T(v) from
/// its ball: the two end kinds, and the visible chain's diameter and
/// independence number.
struct ChainAnalysis {
  bool family_binary = false;  // all cliques of T(v) have visible degree <=2
  EndKind ends[2] = {EndKind::kBranch, EndKind::kBranch};
  int diameter = 0;
  int independence = 0;
};

/// One worker's reusable state for the per-node decision loop: the ball
/// workspace and local view, plus every view-sized buffer analyze_chain
/// needs. Warm across all iterations, so steady-state decisions allocate
/// nothing.
struct DecisionScratch {
  local::BallWorkspace ws;
  LocalView view;
  SubsetSweepScratch sweep;
  std::vector<int> adj_off, adj_cursor, adj_list;  // view-forest CSR
  std::vector<int> family;
  std::vector<char> in_family, in_chain;
  std::vector<int> chain;
  std::vector<int> chain_pos;
  std::vector<int> cadj0, cadj1;  // chain neighbors (paths have degree <= 2)
  std::vector<int> union_vertices;
  std::vector<std::pair<int, int>> ranges;
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

  // Collect the maximal visible binary chain containing T(v). The family
  // is a subpath; each side walks outward from one family tip along its
  // unique non-family direction.
  s.in_family.assign(static_cast<std::size_t>(m), 0);
  for (int c : family) s.in_family[c] = 1;
  s.chain.assign(family.begin(), family.end());
  ChainEnd ends[2];
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
  for (int side = 0; side < 2; ++side) {
    // Family cliques sit within Gamma[v]: degree-trusted, so a missing
    // outward direction is a genuine leaf end of the maximal path.
    if (steps[side] == -1) {
      ends[side].kind = EndKind::kLeaf;
      continue;
    }
    int prev = tips[side];
    int cur = steps[side];
    for (;;) {
      if (adj_size(cur) >= 3) {
        // Visible degrees never overestimate: a real branch vertex, which
        // terminates the maximal binary path (and is not part of it).
        ends[side].kind = EndKind::kBranch;
        break;
      }
      s.chain.push_back(cur);
      if (!degree_trusted(cur)) {
        // The view may miss forest edges here; everything farther out is
        // beyond the certainty horizon.
        ends[side].kind = EndKind::kHorizon;
        break;
      }
      int next = -1;
      for (int c : adj(cur)) {
        if (c != prev) next = c;
      }
      if (next == -1) {
        ends[side].kind = EndKind::kLeaf;
        break;
      }
      prev = cur;
      cur = next;
    }
  }
  const auto& chain = s.chain;

  analysis.ends[0] = ends[0].kind;
  analysis.ends[1] = ends[1].kind;

  // Diameter and independence number of the visible chain (exact within
  // the active subgraph: the chain union's shortest paths never leave it,
  // cf. path_diameter; independence via the chain's interval model).
  auto& union_vertices = s.union_vertices;
  union_vertices.clear();
  for (int c : chain) {
    CliqueWord word = view.cliques[c];
    union_vertices.insert(union_vertices.end(), word.begin(), word.end());
  }
  std::sort(union_vertices.begin(), union_vertices.end());
  union_vertices.erase(
      std::unique(union_vertices.begin(), union_vertices.end()),
      union_vertices.end());
  analysis.diameter = diameter_double_sweep_subset(g, union_vertices, s.sweep);

  // Independence: order chain cliques along the path; vertex ranges are
  // their clipped clique positions; exact greedy on that interval model.
  {
    // chain = family ++ side walks; recover path order by walking the
    // chain's own adjacency from one true end (it is a path, so every
    // member has at most two chain neighbors).
    s.in_chain.assign(static_cast<std::size_t>(m), 0);
    for (int c : chain) s.in_chain[c] = 1;
    s.cadj0.resize(static_cast<std::size_t>(m));
    s.cadj1.resize(static_cast<std::size_t>(m));
    for (int c : chain) {
      int n0 = -1, n1 = -1;
      for (int d : adj(c)) {
        if (!s.in_chain[d]) continue;
        (n0 == -1 ? n0 : n1) = d;
      }
      s.cadj0[c] = n0;
      s.cadj1[c] = n1;
    }
    int start = chain.front();
    for (int c : chain) {
      int degree = (s.cadj0[c] != -1 ? 1 : 0) + (s.cadj1[c] != -1 ? 1 : 0);
      if (degree <= 1) start = c;
    }
    s.chain_pos.resize(static_cast<std::size_t>(m));
    int prev = -1, cur = start, pos = 0;
    while (cur != -1) {
      s.chain_pos[cur] = pos++;
      int next = -1;
      if (s.cadj0[cur] != -1 && s.cadj0[cur] != prev) next = s.cadj0[cur];
      if (s.cadj1[cur] != -1 && s.cadj1[cur] != prev) next = s.cadj1[cur];
      prev = cur;
      cur = next;
    }
  }
  {
    auto& ranges = s.ranges;  // (hi, lo) per union vertex
    ranges.clear();
    for (int u : union_vertices) {
      int lo = static_cast<int>(chain.size()), hi = -1;
      for (int c : chain) {
        CliqueWord word = view.cliques[c];
        if (std::binary_search(word.begin(), word.end(),
                               static_cast<VertexId>(u))) {
          lo = std::min(lo, s.chain_pos[c]);
          hi = std::max(hi, s.chain_pos[c]);
        }
      }
      ranges.emplace_back(hi, lo);
    }
    std::sort(ranges.begin(), ranges.end());
    int last_hi = -1, count = 0;
    for (auto [hi, lo] : ranges) {
      if (lo > last_hi) {
        ++count;
        last_hi = hi;
      }
    }
    analysis.independence = count;
  }
  return analysis;
}

/// One node's coloring-mode pruning decision (threshold: diam >= 3k).
bool decide_locally(const Graph& g, int v, int radius, int k,
                    bool* used_horizon, const std::vector<char>& active,
                    DecisionScratch& scratch) {
  ChainAnalysis a = analyze_chain(g, v, radius, active, scratch);
  if (!a.family_binary) return false;
  if (a.ends[0] == EndKind::kLeaf || a.ends[1] == EndKind::kLeaf) return true;
  if (a.ends[0] == EndKind::kHorizon || a.ends[1] == EndKind::kHorizon) {
    if (used_horizon != nullptr) *used_horizon = true;
    // The horizon is radius-2 away, so the visible chain already certifies
    // diameter >= 3k; the maximal path is removable whatever lies beyond.
    return true;
  }
  return a.diameter >= 3 * k;
}

/// One node's MIS-mode pruning decision: pendant always; internal paths by
/// diam >= 2d+3 (early iterations) or alpha >= d (the final iteration).
bool decide_locally_mis(const Graph& g, int v, int radius, int d,
                        bool last_round, const std::vector<char>& active,
                        DecisionScratch& scratch) {
  ChainAnalysis a = analyze_chain(g, v, radius, active, scratch);
  if (!a.family_binary) return false;
  if (a.ends[0] == EndKind::kLeaf || a.ends[1] == EndKind::kLeaf) return true;
  if (a.ends[0] == EndKind::kHorizon || a.ends[1] == EndKind::kHorizon) {
    // radius = 4d+10 puts the horizon >= 4d+7 away: diameter certainly
    // >= 2d+3, and alpha >= diameter/2 >= d, so the path is removable
    // under either threshold.
    return true;
  }
  return last_round ? a.independence >= d : a.diameter >= 2 * d + 3;
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
    result.active_at.push_back(active_clique);

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
            bool remove =
                decide_locally(g, v, radius, k, nullptr, active_vertex, s);
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
  return audit_decisions(
      g, peeling, stride,
      [&](int v, int, const std::vector<char>& active, DecisionScratch& s,
          bool* used_horizon) {
        return decide_locally(g, v, radius, k, used_horizon, active, s);
      });
}

LocalDecisionAudit audit_local_pruning_mis(const Graph& g,
                                           const PeelingResult& peeling,
                                           int d, int stride) {
  const int radius = 4 * d + 10;
  return audit_decisions(
      g, peeling, stride,
      [&](int v, int iter, const std::vector<char>& active,
          DecisionScratch& s, bool*) {
        return decide_locally_mis(g, v, radius, d,
                                  iter == peeling.num_layers, active, s);
      });
}

}  // namespace chordal::core
