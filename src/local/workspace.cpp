#include "local/workspace.hpp"

#include <algorithm>
#include <stdexcept>

#include "cliqueforest/forest.hpp"
#include "graph/cliques.hpp"
#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace chordal::local {

void BallWorkspace::ensure(const Graph& g) {
  auto n = static_cast<std::size_t>(g.num_vertices());
  if (visit_stamp.size() < n) {
    visit_stamp.resize(n, 0);
    local_id.resize(n, 0);
  }
}

namespace {

/// Radius-limited BFS + induced-CSR assembly; fills out.vertices (BFS
/// order), out.dist and out.graph exactly as the allocating collect_ball
/// does, but touches only ball-sized state. No ledger, no telemetry.
void collect_ball_core(const Graph& g, int center, int radius,
                       const std::vector<char>* active, BallWorkspace& ws,
                       Ball& out) {
  ws.ensure(g);
  if (center < 0 || center >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  if (active != nullptr && !(*active)[center]) {
    throw std::invalid_argument("bfs: inactive source");
  }
  const std::uint64_t visit = ++ws.epoch;
  out.vertices.clear();
  out.dist.clear();
  ws.visit_stamp[center] = visit;
  ws.local_id[center] = 0;
  out.vertices.push_back(center);
  out.dist.push_back(0);
  for (std::size_t head = 0; head < out.vertices.size(); ++head) {
    int u = static_cast<int>(out.vertices[head]);
    int du = out.dist[head];
    if (radius >= 0 && du >= radius) continue;
    for (VertexId w : g.neighbors(u)) {
      if (ws.visit_stamp[w] == visit) continue;
      if (active != nullptr && !(*active)[w]) continue;
      ws.visit_stamp[w] = visit;
      ws.local_id[w] = static_cast<int>(out.vertices.size());
      out.vertices.push_back(w);
      out.dist.push_back(du + 1);
    }
  }
  // Induced subgraph in ball-local ids. Neighbor lists sorted ascending by
  // local id, matching Graph::induced_subgraph.
  const int k = static_cast<int>(out.vertices.size());
  ws.offsets.assign(static_cast<std::size_t>(k) + 1, 0);
  for (int i = 0; i < k; ++i) {
    for (VertexId w : g.neighbors(static_cast<int>(out.vertices[i]))) {
      if (ws.visit_stamp[w] == visit) ++ws.offsets[i + 1];
    }
  }
  for (int i = 0; i < k; ++i) ws.offsets[i + 1] += ws.offsets[i];
  ws.adj.resize(static_cast<std::size_t>(ws.offsets[k]));
  for (int i = 0; i < k; ++i) {
    EdgeIndex cursor = ws.offsets[i];
    for (VertexId w : g.neighbors(static_cast<int>(out.vertices[i]))) {
      if (ws.visit_stamp[w] == visit) {
        ws.adj[static_cast<std::size_t>(cursor++)] =
            static_cast<VertexId>(ws.local_id[w]);
      }
    }
    std::sort(ws.adj.begin() + ws.offsets[i], ws.adj.begin() + cursor);
  }
  out.graph.assign_csr(k, ws.offsets, ws.adj);
}

/// The clique/forest stage of compute_local_view, from an already collected
/// radius-`radius` ball of the observer. Uses ws only for flat scratch
/// (phi_pairs/family); does not disturb the stamped tables.
void view_from_ball(const Ball& ball, int radius, BallWorkspace& ws,
                    LocalView& out) {
  // Maximal cliques of the ball graph containing a vertex at distance
  // <= radius-1 are maximal cliques of G (see cliqueforest/local_view.cpp,
  // the allocating reference implementation of this function).
  auto local_cliques = maximal_cliques_chordal(ball.graph);
  out.cliques.clear();
  out.forest_edges.clear();
  out.trusted_vertices.clear();
  // Filter + globalize the nested words in place, sort the surviving
  // prefix, then flatten into the reused CliqueFamily slabs.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < local_cliques.size(); ++i) {
    auto& clique = local_cliques[i];
    bool trusted = false;
    for (int lv : clique) trusted = trusted || ball.dist[lv] <= radius - 1;
    if (!trusted) continue;
    for (int& lv : clique) lv = static_cast<int>(ball.vertices[lv]);
    std::sort(clique.begin(), clique.end());
    if (i != kept) local_cliques[kept] = std::move(clique);
    ++kept;
  }
  local_cliques.resize(kept);
  std::sort(local_cliques.begin(), local_cliques.end());
  for (const auto& clique : local_cliques) out.cliques.push_word(clique);

  // Flat phi index: (vertex, clique) pairs sorted by vertex then clique,
  // giving each family in increasing clique-index order.
  ws.phi_pairs.clear();
  for (std::size_t c = 0; c < out.cliques.size(); ++c) {
    for (VertexId v : out.cliques[c]) {
      ws.phi_pairs.emplace_back(static_cast<int>(v), static_cast<int>(c));
    }
  }
  std::sort(ws.phi_pairs.begin(), ws.phi_pairs.end());

  for (std::size_t lv = 0; lv < ball.vertices.size(); ++lv) {
    if (ball.dist[lv] <= radius - 1) {
      out.trusted_vertices.push_back(static_cast<int>(ball.vertices[lv]));
    }
  }
  std::sort(out.trusted_vertices.begin(), out.trusted_vertices.end());

  // For each trusted u, the MWSF of the W-edges of phi(u) via the
  // ForestScratch engine: counting-everything weights, weight-bucketed
  // counting sort, integer tie-breaks (word order == index order for the
  // sorted view cliques). Identical chosen edges to
  // max_weight_spanning_forest on the same family, with zero allocations
  // once the scratch is warm.
  auto& edges_out = out.forest_edges;
  std::size_t p = 0;
  for (int u : out.trusted_vertices) {
    while (p < ws.phi_pairs.size() && ws.phi_pairs[p].first < u) ++p;
    ws.family.clear();
    while (p < ws.phi_pairs.size() && ws.phi_pairs[p].first == u) {
      ws.family.push_back(static_cast<CliqueId>(ws.phi_pairs[p].second));
      ++p;
    }
    std::size_t before = edges_out.size();
    family_forest_edges(out.cliques, ws.family, ws.forest, edges_out);
    if (ws.family.size() >= 2) {
      // One per-family MWSF build event per trusted vertex whose family
      // actually has edges to choose (singleton families are trivial).
      obs::trace_emit(ws.trace, obs::TraceEventKind::kForestBuild, u,
                      /*round=*/0,
                      static_cast<std::int64_t>(ws.family.size()),
                      static_cast<std::int64_t>(edges_out.size() - before));
    }
  }
  std::sort(edges_out.begin(), edges_out.end());
  edges_out.erase(std::unique(edges_out.begin(), edges_out.end()),
                  edges_out.end());
}

}  // namespace

void collect_ball(const Graph& g, int center, int radius,
                  const std::vector<char>* active, RoundLedger* ledger,
                  BallWorkspace& ws, Ball& out,
                  const BandwidthConfig& bw) {
  collect_ball_core(g, center, radius, active, ws, out);
  auto words = static_cast<std::int64_t>(out.vertices.size() +
                                         2 * out.graph.num_edges());
  // Same congest-aware charge formula as ball.cpp: radius rounds under
  // LOCAL, drain-limited under CONGEST.
  std::int64_t rounds = ball_collection_rounds(
      radius, words, g.degree(center), bw, g.num_vertices());
  if (ledger != nullptr) ledger->charge(center, rounds);
  if (obs::Registry* reg = obs::current()) {
    reg->counter("ball.collections").add(1);
    reg->histogram("ball.volume_words").add(static_cast<double>(words));
    obs::Span::charge_rounds(rounds);
    obs::Span::charge_messages(static_cast<std::int64_t>(out.vertices.size()),
                               words);
  }
}

void compute_local_view(const Graph& g, int observer, int radius,
                        const std::vector<char>* active, BallWorkspace& ws,
                        LocalView& out) {
  if (radius < 1) throw std::invalid_argument("local view: radius < 1");
  collect_ball_core(g, observer, radius, active, ws, ws.ball);
  view_from_ball(ws.ball, radius, ws, out);
}

}  // namespace chordal::local
