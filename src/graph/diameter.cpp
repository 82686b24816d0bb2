#include "graph/diameter.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace chordal {

namespace {

// BFS visits vertices in distance order, so after a full sweep the last
// frontier entry carries the eccentricity of the source.
int sweep_eccentricity(const Graph& g, int source, BfsScratch& s,
                       const char* message) {
  const std::size_t reached = bfs_scratch(g, source, s);
  if (reached != static_cast<std::size_t>(g.num_vertices())) {
    throw std::invalid_argument(message);
  }
  return s.dist[s.order.back()];
}

}  // namespace

int diameter_exact(const Graph& g) {
  if (g.num_vertices() <= 1) return 0;
  BfsScratch scratch;
  int best = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    best = std::max(
        best, sweep_eccentricity(g, v, scratch, "diameter: graph not connected"));
  }
  return best;
}

int diameter_double_sweep(const Graph& g, int seed) {
  if (g.num_vertices() <= 1) return 0;
  BfsScratch scratch;
  const std::size_t reached = bfs_scratch(g, seed, scratch);
  if (reached != static_cast<std::size_t>(g.num_vertices())) {
    throw std::invalid_argument("diameter: not connected");
  }
  // Farthest vertex, ties to the smallest id.
  int far = seed;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (scratch.dist[v] > scratch.dist[far]) far = v;
  }
  return sweep_eccentricity(g, far, scratch, "diameter: not connected");
}

}  // namespace chordal
