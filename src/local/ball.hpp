// Distance-d balls: the unit of knowledge in the LOCAL model.
//
// In the LOCAL model an r-round algorithm is exactly one whose output at a
// node is a function of the node's distance-r ball; the headline algorithms
// of the paper are phrased as ball collections ("collect Gamma^{10k}(v)").
// A Ball is what one such collection yields. It is produced by
// local::collect_ball (local/workspace.hpp), which also charges the
// collection's rounds to the enclosing obs::Span; the per-node round clocks
// live in the drivers that schedule the collections.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace chordal::local {

/// A node's collected distance-`radius` ball in the subgraph induced by
/// {u : active == nullptr || (*active)[u]}.
struct Ball {
  std::vector<VertexId> vertices;  // BFS order; vertices[0] == center
  Graph graph;   // induced subgraph, indices into `vertices`
  std::vector<int> dist;  // distance from center, per local index
};

}  // namespace chordal::local
