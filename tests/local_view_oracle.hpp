// Test-only reference implementations of the ball/local-view chain, kept as
// the oracles the production forms in graph/bfs.cpp and local/workspace.cpp
// are differentially tested against:
//  - bfs_oracle: radius-limited, optionally restricted BFS with an n-sized
//    distance array and its own FIFO queue;
//  - collect_ball_oracle: the ball as vertex list + Graph::induced_subgraph
//    + a second BFS inside the ball graph;
//  - local_view_oracle: Lemma 2 from that ball, with the per-vertex
//    families deep-copied and fed to the reference Kruskal
//    (max_weight_spanning_forest_oracle), whose membership table is sized
//    to the whole graph.
// The production forms must agree with these bit for bit.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "graph/cliques.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"

namespace chordal::testing {

/// Distances from `source` (-1 where unreached) within the subgraph induced
/// by the active vertices (all when active == nullptr), stopping at
/// radius_limit hops (none when negative). Appends the BFS visit order to
/// *order when given.
inline std::vector<int> bfs_oracle(const Graph& g, int source,
                                   const std::vector<char>* active,
                                   int radius_limit,
                                   std::vector<VertexId>* order = nullptr) {
  if (source < 0 || source >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  if (active != nullptr && !(*active)[source]) {
    throw std::invalid_argument("bfs: inactive source");
  }
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<VertexId> queue;
  dist[source] = 0;
  queue.push_back(static_cast<VertexId>(source));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    int u = static_cast<int>(queue[head]);
    if (radius_limit >= 0 && dist[u] >= radius_limit) continue;
    for (VertexId w : g.neighbors(u)) {
      if (dist[w] != -1) continue;
      if (active != nullptr && !(*active)[w]) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  if (order != nullptr) order->insert(order->end(), queue.begin(), queue.end());
  return dist;
}

/// The distance-`radius` ball of `center` in the active subgraph.
inline local::Ball collect_ball_oracle(const Graph& g, int center, int radius,
                                       const std::vector<char>* active =
                                           nullptr) {
  local::Ball ball;
  bfs_oracle(g, center, active, radius, &ball.vertices);
  ball.graph = g.induced_subgraph(ball.vertices);
  ball.dist = bfs_oracle(ball.graph, 0, nullptr, -1);
  return ball;
}

/// The local view of `observer` from its distance-`radius` ball.
inline LocalView local_view_oracle(const Graph& g, int observer, int radius,
                                   const std::vector<char>* active = nullptr) {
  if (radius < 1) throw std::invalid_argument("local view: radius < 1");
  local::Ball ball = collect_ball_oracle(g, observer, radius, active);
  // Maximal cliques of the ball graph with a vertex at distance <= radius-1
  // are maximal cliques of G; globalize and canonicalize them.
  std::vector<std::vector<int>> kept;
  for (const auto& clique : maximal_cliques_chordal(ball.graph)) {
    bool trusted = false;
    for (int lv : clique) trusted = trusted || ball.dist[lv] <= radius - 1;
    if (!trusted) continue;
    std::vector<int> global;
    global.reserve(clique.size());
    for (int lv : clique) global.push_back(static_cast<int>(ball.vertices[lv]));
    std::sort(global.begin(), global.end());
    kept.push_back(std::move(global));
  }
  std::sort(kept.begin(), kept.end());
  LocalView view;
  for (const auto& clique : kept) view.cliques.push_word(clique);
  for (std::size_t lv = 0; lv < ball.vertices.size(); ++lv) {
    if (ball.dist[lv] <= radius - 1) {
      view.trusted_vertices.push_back(static_cast<int>(ball.vertices[lv]));
    }
  }
  std::sort(view.trusted_vertices.begin(), view.trusted_vertices.end());
  // phi(u) for each trusted u, deep-copied; the reference Kruskal's MWSF of
  // each family is T(u) (Lemma 2), and the view's forest is their union.
  std::vector<std::pair<int, int>> edges;
  for (int u : view.trusted_vertices) {
    std::vector<int> family;
    for (std::size_t c = 0; c < kept.size(); ++c) {
      if (std::binary_search(kept[c].begin(), kept[c].end(), u)) {
        family.push_back(static_cast<int>(c));
      }
    }
    if (family.size() < 2) continue;
    std::vector<std::vector<int>> family_cliques;
    family_cliques.reserve(family.size());
    for (int c : family) family_cliques.push_back(kept[c]);
    for (const auto& e : max_weight_spanning_forest_oracle(
             family_cliques, g.num_vertices())) {
      int a = family[e.a];
      int b = family[e.b];
      edges.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  view.forest_edges = std::move(edges);
  return view;
}

}  // namespace chordal::testing
