// Maximal binary / pendant / internal paths of the (possibly partially
// peeled) clique forest, plus the per-path metrics used by the peeling
// thresholds: diameter (Algorithm 1) and independence number (Algorithm 6).
//
// The metric functions come in two forms: a simple allocating form, and a
// workspace form taking a PathScratch. The workspace form does zero O(n) /
// O(m) work per call (epoch-stamped relabel/position tables, reused
// frontier and interval buffers), which is what makes per-layer loops over
// thousands of paths allocation-lean and embarrassingly parallel (one
// scratch per worker). Both forms compute identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "graph/diameter.hpp"
#include "graph/graph.hpp"

namespace chordal {

struct ForestPath {
  /// Clique indices in path order. For a pendant path with one attachment
  /// the sequence is oriented so the attachment is on the right (the paper's
  /// C_1, ..., C_k with edge C_k C_e).
  std::vector<int> cliques;
  bool pendant = false;  // otherwise internal (or pendant if also isolated)
  /// Adjacent non-path cliques (the C_s / C_e of Lemmas 3 and 8); -1 if the
  /// corresponding end is free. Pendant paths have attach_left == -1;
  /// isolated components have both == -1 and count as pendant.
  int attach_left = -1;
  int attach_right = -1;
};

/// Decomposes the forest restricted to {c : active[c]} into its maximal
/// binary paths (chains of cliques with active forest-degree <= 2),
/// classifying each as pendant (an end has active degree <= 1) or internal
/// (every vertex has active degree exactly 2, both ends attached).
std::vector<ForestPath> maximal_binary_paths(const CliqueForest& forest,
                                             const std::vector<char>& active);

/// Vertices v whose whole active family phi_i(v) lies inside `path` - the
/// set W of the paper (these are the vertices peeled with the path).
std::vector<int> path_owned_vertices(const CliqueForest& forest,
                                     const std::vector<char>& active_clique,
                                     const ForestPath& path);

/// All vertices in the union of the path's cliques (the V_P of Lemma 7).
std::vector<int> path_union_vertices(const CliqueForest& forest,
                                     const ForestPath& path);

/// Interval model of G[V_P]: for each union vertex, the contiguous range of
/// path positions of its cliques (clipped to the path). Two union vertices
/// are adjacent iff their ranges intersect (see Lemma 7).
struct PathIntervals {
  std::vector<int> vertices;  // original vertex ids
  std::vector<int> lo, hi;    // position ranges, parallel to `vertices`
  int num_positions = 0;
};
PathIntervals path_intervals(const CliqueForest& forest,
                             const ForestPath& path);

/// diam(P): max distance in G between vertices of the path's clique union.
/// (Shortest paths between union vertices never profit from leaving the
/// union, so this equals the distance in the peeled graph G[U_i].)
int path_diameter(const Graph& g, const CliqueForest& forest,
                  const ForestPath& path);

/// alpha(P): independence number of G[V_P]; exact via the interval model.
int path_independence(const CliqueForest& forest, const ForestPath& path);

/// Reusable scratch for the per-path metric functions. All tables are
/// epoch-stamped: marking a path touches only path-sized state, never the
/// whole forest or graph. One scratch per worker thread; a scratch must not
/// be shared between concurrent calls.
class PathScratch {
 public:
  /// Grows the stamped tables to the forest's dimensions (no-op once
  /// sized); called by every metric function.
  void ensure(const CliqueForest& forest);

  // Internal state (used by the paths.cpp implementations).
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> clique_stamp;  // per clique, epoch of last mark
  std::vector<int> clique_pos;              // path position, valid if stamped
  SubsetSweepScratch sweep;                 // ball-free BFS double sweep
  std::vector<int> far;                     // interval far-table
  std::vector<std::size_t> order;           // sort permutation
  std::vector<int> verts;                   // union-vertex buffer
  PathIntervals rep;                        // reused interval model
};

/// Workspace forms of the metric functions; identical results, zero
/// per-call O(n)/O(m) work. Outputs are cleared and reused.
void path_union_vertices(const CliqueForest& forest, const ForestPath& path,
                         std::vector<int>& out);
void path_owned_vertices(const CliqueForest& forest,
                         const std::vector<char>& active_clique,
                         const ForestPath& path, PathScratch& scratch,
                         std::vector<int>& out);
void path_intervals(const CliqueForest& forest, const ForestPath& path,
                    PathScratch& scratch, PathIntervals& out);
int path_diameter(const Graph& g, const CliqueForest& forest,
                  const ForestPath& path, PathScratch& scratch);
int path_independence(const CliqueForest& forest, const ForestPath& path,
                      PathScratch& scratch);

}  // namespace chordal
