// Local views of the clique forest (Section 3).
//
// A node v that knows its distance-d ball can reconstruct, for every vertex
// u within distance d-1, the family phi(u) of maximal cliques containing u
// (such cliques fit inside Gamma[u], hence inside the ball) and the unique
// maximum weight spanning forest of W restricted to phi(u), which by
// Lemma 2 equals the subtree T(u) of the *global* clique forest. The union
// of these subtrees is v's coherent local view. It is built from a
// collected ball by local::compute_local_view (local/workspace.hpp).
#pragma once

#include <vector>

#include "cliqueforest/family.hpp"
#include "graph/graph.hpp"

namespace chordal {

struct LocalView {
  /// Maximal cliques of G visible to the observer, in canonical (sorted)
  /// order, as global vertex ids. Stored as a flat CliqueFamily; index it
  /// for a CliqueWord span, or word_vec a word where container semantics
  /// are needed.
  CliqueFamily cliques;
  /// Clique-forest edges derived from the per-vertex spanning forests,
  /// as index pairs (a < b) into `cliques`.
  std::vector<std::pair<int, int>> forest_edges;
  /// Vertices u for which the whole subtree T(u) is guaranteed correct
  /// (those within distance radius-1 of the observer).
  std::vector<int> trusted_vertices;
};

}  // namespace chordal
