#include "local/workspace.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "cliqueforest/forest.hpp"
#include "graph/cliques.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace chordal::local {

namespace {

/// Radius-limited BFS (graph/bfs.hpp) + induced-CSR assembly; fills
/// out.vertices (BFS order), out.dist and out.graph, touching only
/// ball-sized state. No charge, no telemetry.
void collect_ball_core(const Graph& g, int center, int radius,
                       const std::vector<char>* active, BallWorkspace& ws,
                       Ball& out) {
  std::span<const VertexId> order =
      active == nullptr
          ? ball_vertices(g, center, radius, ws.bfs)
          : ball_vertices_restricted(g, center, radius, *active, ws.bfs);
  if (ws.local_id.size() < ws.bfs.stamp.size()) {
    ws.local_id.resize(ws.bfs.stamp.size(), 0);
  }
  const int k = static_cast<int>(order.size());
  out.vertices.assign(order.begin(), order.end());
  out.dist.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    ws.local_id[order[i]] = i;
    out.dist[i] = ws.bfs.dist[order[i]];
  }
  // Induced subgraph in ball-local ids. Neighbor lists sorted ascending by
  // local id, matching Graph::induced_subgraph.
  ws.offsets.assign(static_cast<std::size_t>(k) + 1, 0);
  for (int i = 0; i < k; ++i) {
    for (VertexId w : g.neighbors(static_cast<int>(out.vertices[i]))) {
      if (ws.bfs.visited(static_cast<int>(w))) ++ws.offsets[i + 1];
    }
  }
  for (int i = 0; i < k; ++i) ws.offsets[i + 1] += ws.offsets[i];
  ws.adj.resize(static_cast<std::size_t>(ws.offsets[k]));
  for (int i = 0; i < k; ++i) {
    EdgeIndex cursor = ws.offsets[i];
    for (VertexId w : g.neighbors(static_cast<int>(out.vertices[i]))) {
      if (ws.bfs.visited(static_cast<int>(w))) {
        ws.adj[static_cast<std::size_t>(cursor++)] =
            static_cast<VertexId>(ws.local_id[w]);
      }
    }
    std::sort(ws.adj.begin() + ws.offsets[i], ws.adj.begin() + cursor);
  }
  out.graph.assign_csr(k, ws.offsets, ws.adj);
}

/// The clique/forest stage of compute_local_view, from an already collected
/// radius-`radius` ball of the observer. Uses ws only for flat scratch;
/// does not disturb the stamped tables.
void view_from_ball(const Ball& ball, int radius, BallWorkspace& ws,
                    LocalView& out) {
  // Maximal cliques of the ball graph that contain a vertex at distance
  // <= radius-1 are maximal cliques of the full graph: such a clique fits
  // in the closed neighborhood of that vertex, which the ball fully
  // contains, so no outside vertex could extend it. Keep those, in global
  // ids, each word sorted.
  CliqueFamily local_cliques = maximal_cliques_chordal_family(ball.graph);
  ws.trusted_words.clear();
  for (CliqueWord clique : local_cliques) {
    bool trusted = false;
    for (VertexId lv : clique) trusted = trusted || ball.dist[lv] <= radius - 1;
    if (!trusted) continue;
    ws.word.clear();
    for (VertexId lv : clique) ws.word.push_back(ball.vertices[lv]);
    std::sort(ws.word.begin(), ws.word.end());
    ws.trusted_words.push_word(ws.word);
  }
  // Canonical word order through an index argsort (the words are
  // distinct), emitted into the reused view slabs.
  ws.word_order.resize(ws.trusted_words.size());
  std::iota(ws.word_order.begin(), ws.word_order.end(), 0);
  std::sort(ws.word_order.begin(), ws.word_order.end(), [&ws](int a, int b) {
    return word_less(ws.trusted_words[static_cast<std::size_t>(a)],
                     ws.trusted_words[static_cast<std::size_t>(b)]);
  });
  out.cliques.clear();
  out.forest_edges.clear();
  out.trusted_vertices.clear();
  for (int c : ws.word_order) {
    out.cliques.push_word(ws.trusted_words[static_cast<std::size_t>(c)]);
  }

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

  // For each trusted u, the unique MWSF of W restricted to phi(u) equals
  // T(u) (Lemma 2); the view's forest is their union. The ForestScratch
  // engine uses counting-everything weights, a weight-bucketed counting
  // sort and integer tie-breaks (word order == index order for the sorted
  // view cliques), with zero allocations once the scratch is warm.
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
                  const std::vector<char>* active, BallWorkspace& ws,
                  Ball& out, const BandwidthConfig& bw) {
  collect_ball_core(g, center, radius, active, ws, out);
  // Flooding a radius-r ball costs r rounds under LOCAL; under CONGEST the
  // collected volume must drain through the center's deg incident edges at
  // B words per round, so the charge grows to max(r, ceil(volume/(deg*B))).
  auto words = static_cast<std::int64_t>(out.vertices.size() +
                                         2 * out.graph.num_edges());
  std::int64_t rounds = ball_collection_rounds(
      radius, words, g.degree(center), bw, g.num_vertices());
  if (obs::Registry* reg = obs::current()) {
    // The collected view is the ball's adjacency encoding (one word per
    // vertex, two per edge) - identical across models.
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
