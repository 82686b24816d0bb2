// Breadth-first search utilities: distances, balls, restricted searches.
//
// One BFS core: an epoch-stamped scratch (BfsScratch) that touches only
// visited-size state and allocates nothing once warm - the substrate for
// per-vertex sweeps (diameter, graph powers, ball collection) at
// million-node scale. The allocating queries are thin wrappers over it
// for tests and cold paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace chordal {

/// Reusable BFS scratch: stamped visit marks, distances, and a flat
/// frontier that doubles as the BFS order. One scratch per worker thread;
/// results referencing the scratch are invalidated by the next call.
struct BfsScratch {
  /// Grows the stamped tables to cover ids [0, n) (no-op once sized).
  void ensure(int n) {
    auto size = static_cast<std::size_t>(n);
    if (stamp.size() < size) {
      stamp.resize(size, 0);
      dist.resize(size, 0);
    }
  }

  /// True when v was reached by the last search on this scratch.
  bool visited(int v) const { return stamp[v] == epoch; }

  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> stamp;  // per vertex: visit epoch
  std::vector<int> dist;             // valid where stamp[v] == epoch
  std::vector<VertexId> order;       // flat frontier == BFS visit order
};

/// Distances from `source`; unreachable vertices get -1.
std::vector<int> bfs_distances(const Graph& g, int source);

/// Distances from `source` within the subgraph induced by vertices where
/// active[v] is true. Requires active[source].
std::vector<int> bfs_distances_restricted(const Graph& g, int source,
                                          const std::vector<char>& active);

/// Vertices at distance <= radius from `center`, in BFS order: FIFO, each
/// vertex's neighbors in adjacency order. This is the closed ball
/// Gamma^radius[center] of the paper.
std::vector<VertexId> ball_vertices(const Graph& g, int center, int radius);

/// Ball restricted to an active vertex subset.
std::vector<VertexId> ball_vertices_restricted(const Graph& g, int center,
                                               int radius,
                                               const std::vector<char>& active);

/// Scratch form of ball_vertices: the same ball, as a span over
/// scratch.order. Valid until the next call on the scratch; allocates
/// nothing once the scratch is warm. Distances of visited vertices are
/// readable from scratch.dist (stamped with scratch.epoch).
std::span<const VertexId> ball_vertices(const Graph& g, int center, int radius,
                                        BfsScratch& scratch);

/// Scratch form of ball_vertices_restricted.
std::span<const VertexId> ball_vertices_restricted(
    const Graph& g, int center, int radius, const std::vector<char>& active,
    BfsScratch& scratch);

/// Full single-source BFS into the scratch (no radius limit): afterwards
/// scratch.order holds the reachable vertices in BFS order and scratch.dist
/// their distances. Returns the number of vertices reached.
std::size_t bfs_scratch(const Graph& g, int source, BfsScratch& scratch);

/// Exact distance between two vertices (-1 if disconnected).
int distance_between(const Graph& g, int u, int v);

}  // namespace chordal
