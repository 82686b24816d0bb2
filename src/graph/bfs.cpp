#include "graph/bfs.hpp"

#include <stdexcept>

namespace chordal {

namespace {

// The BFS core behind every query: stamped visit marks and distances, flat
// FIFO frontier in scratch.order, neighbors scanned in adjacency order.
// radius_limit < 0 means no limit; active == nullptr means no restriction.
std::span<const VertexId> bfs_scratch_impl(const Graph& g, int source,
                                           const std::vector<char>* active,
                                           int radius_limit,
                                           BfsScratch& s) {
  if (source < 0 || source >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  if (active != nullptr && !(*active)[source]) {
    throw std::invalid_argument("bfs: inactive source");
  }
  s.ensure(g.num_vertices());
  const std::uint64_t visit = ++s.epoch;
  s.order.clear();
  s.stamp[source] = visit;
  s.dist[source] = 0;
  s.order.push_back(static_cast<VertexId>(source));
  for (std::size_t head = 0; head < s.order.size(); ++head) {
    int u = static_cast<int>(s.order[head]);
    if (radius_limit >= 0 && s.dist[u] >= radius_limit) continue;
    for (VertexId w : g.neighbors(u)) {
      if (s.stamp[w] == visit) continue;
      if (active != nullptr && !(*active)[w]) continue;
      s.stamp[w] = visit;
      s.dist[w] = s.dist[u] + 1;
      s.order.push_back(w);
    }
  }
  return s.order;
}

std::vector<int> distances(const Graph& g, int source,
                           const std::vector<char>* active) {
  BfsScratch s;
  bfs_scratch_impl(g, source, active, -1, s);
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  for (VertexId v : s.order) dist[v] = s.dist[v];
  return dist;
}

std::vector<VertexId> ball(const Graph& g, int center, int radius,
                           const std::vector<char>* active) {
  BfsScratch s;
  auto order = bfs_scratch_impl(g, center, active, radius, s);
  return {order.begin(), order.end()};
}

}  // namespace

std::vector<int> bfs_distances(const Graph& g, int source) {
  return distances(g, source, nullptr);
}

std::vector<int> bfs_distances_restricted(const Graph& g, int source,
                                          const std::vector<char>& active) {
  return distances(g, source, &active);
}

std::vector<VertexId> ball_vertices(const Graph& g, int center, int radius) {
  return ball(g, center, radius, nullptr);
}

std::vector<VertexId> ball_vertices_restricted(
    const Graph& g, int center, int radius, const std::vector<char>& active) {
  return ball(g, center, radius, &active);
}

std::span<const VertexId> ball_vertices(const Graph& g, int center, int radius,
                                        BfsScratch& scratch) {
  return bfs_scratch_impl(g, center, nullptr, radius, scratch);
}

std::span<const VertexId> ball_vertices_restricted(
    const Graph& g, int center, int radius, const std::vector<char>& active,
    BfsScratch& scratch) {
  return bfs_scratch_impl(g, center, &active, radius, scratch);
}

std::size_t bfs_scratch(const Graph& g, int source, BfsScratch& scratch) {
  return bfs_scratch_impl(g, source, nullptr, -1, scratch).size();
}

int distance_between(const Graph& g, int u, int v) {
  if (u == v) return 0;
  return bfs_distances(g, u)[v];
}

}  // namespace chordal
