#include "graph/bfs.hpp"

#include <stdexcept>

namespace chordal {

namespace {

std::vector<int> bfs_impl(const Graph& g, int source,
                          const std::vector<char>* active, int radius_limit,
                          std::vector<VertexId>* order) {
  if (source < 0 || source >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  if (active != nullptr && !(*active)[source]) {
    throw std::invalid_argument("bfs: inactive source");
  }
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  // Flat frontier: every vertex enters at most once, so a plain vector with
  // a read cursor replaces the deque (no per-block allocation, and the
  // visit sequence doubles as the BFS order).
  std::vector<VertexId> queue;
  dist[source] = 0;
  queue.push_back(static_cast<VertexId>(source));
  if (order != nullptr) order->push_back(static_cast<VertexId>(source));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    int u = static_cast<int>(queue[head]);
    if (radius_limit >= 0 && dist[u] >= radius_limit) continue;
    for (VertexId w : g.neighbors(u)) {
      if (dist[w] != -1) continue;
      if (active != nullptr && !(*active)[w]) continue;
      dist[w] = dist[u] + 1;
      queue.push_back(w);
      if (order != nullptr) order->push_back(w);
    }
  }
  return dist;
}

// Scratch core shared by the allocation-free forms: stamped visit marks and
// distances, flat frontier in scratch.order. Same visit order and distances
// as bfs_impl by construction.
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

}  // namespace

std::vector<int> bfs_distances(const Graph& g, int source) {
  return bfs_impl(g, source, nullptr, -1, nullptr);
}

std::vector<int> bfs_distances_restricted(const Graph& g, int source,
                                          const std::vector<char>& active) {
  return bfs_impl(g, source, &active, -1, nullptr);
}

std::vector<VertexId> ball_vertices(const Graph& g, int center, int radius) {
  std::vector<VertexId> order;
  bfs_impl(g, center, nullptr, radius, &order);
  return order;
}

std::vector<VertexId> ball_vertices_restricted(
    const Graph& g, int center, int radius, const std::vector<char>& active) {
  std::vector<VertexId> order;
  bfs_impl(g, center, &active, radius, &order);
  return order;
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
  auto dist = bfs_distances(g, u);
  return dist[v];
}

}  // namespace chordal
