// Maximal binary / pendant / internal paths of the (possibly partially
// peeled) clique forest, and the interval-model queries every per-path
// threshold and layer solve reduces to (Lemma 7: G[V_P] is the interval
// graph of the clique-path positions). Each query has one implementation
// here - the model itself, the greedy MIS, the diameter and the
// span-growth distances - shared by the global peel, the per-node local
// views, the layer solves and the standalone interval algorithms.
//
// The queries run through a caller-owned PathScratch: after warm-up a call
// does no O(n) / O(m) work and no allocation, which keeps per-layer loops
// over thousands of paths allocation-lean and embarrassingly parallel (one
// scratch per worker).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cliqueforest/forest.hpp"
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

/// Interval model: each vertex carries the contiguous range [lo, hi] of
/// positions it occupies, and two vertices are adjacent iff their ranges
/// intersect. Positions are 0..num_positions-1.
struct PathIntervals {
  std::vector<int> vertices;  // original vertex ids
  std::vector<int> lo, hi;    // position ranges, parallel to `vertices`
  int num_positions = 0;
};

/// Restriction of `rep` to a subset of local indices (e.g. one connected
/// component); preserves global vertex ids and positions. The first form
/// reuses `out`'s buffers.
void restrict(const PathIntervals& rep, std::span<const std::size_t> keep,
              PathIntervals& out);
PathIntervals restrict(const PathIntervals& rep,
                       std::span<const std::size_t> keep);

/// Reusable scratch for the functions below. Marking a path touches only
/// path-sized state, never the whole forest or graph. One scratch per
/// worker thread; a scratch must not be shared between concurrent calls.
class PathScratch {
 public:
  /// Grows the clique stamps to the forest's dimensions (no-op once sized).
  void ensure(const CliqueForest& forest);

  // Internal state (used by the paths.cpp implementations).
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> clique_stamp;  // per clique, epoch of last mark
  std::vector<std::uint64_t> starts, ends;  // run boundaries, (v << 32 | p)
  std::vector<std::size_t> order;           // interval_alpha members
  std::vector<int> reach_left, reach_right;  // interval_distances far tables
  std::vector<int> span_lo, span_hi;          // its span per level
  std::vector<int> dist;                    // interval_diameter distances
  PathIntervals rep;                        // reused interval model
};

/// Workspace form of path_owned_vertices; `out` is cleared and reused.
void path_owned_vertices(const CliqueForest& forest,
                         const std::vector<char>& active_clique,
                         const ForestPath& path, PathScratch& scratch,
                         std::vector<int>& out);

/// Interval model of the clique sequence `order` (indices into `family`,
/// consecutive entries adjacent in a clique tree): the union vertices in
/// ascending id order, each with the first and last position whose clique
/// contains it. For a forest path this is the model of G[V_P] (Lemma 7);
/// the local views build their visible chain's model the same way.
/// One merge walk over consecutive sorted words finds where each vertex's
/// run of cliques starts and ends: O(sum of clique sizes) plus two sorts
/// of |V_P| keys. Allocation-free once the scratch has seen a path as
/// large.
void interval_model(const CliqueFamily& family, std::span<const int> order,
                    PathScratch& scratch, PathIntervals& out);

/// Maximum independent set of the sub-model on `members` (indices into
/// rep.vertices) by the earliest-right-end greedy: sorts `members` by
/// (hi, lo), then keeps each interval that starts after the last kept one
/// ends. The kept indices move, in sweep order, to the front of `members`;
/// returns their count, alpha of the sub-model.
std::size_t interval_mis(const PathIntervals& rep,
                         std::span<std::size_t> members);

/// alpha of the whole model: interval_mis over every index.
int interval_alpha(const PathIntervals& rep, PathScratch& scratch);

/// Exact diameter of a connected model (0 for at most one vertex): the
/// distance from the interval ending first to the interval starting last.
/// When those are the same interval it lies inside every other one, so
/// the model is a clique and the diameter is 1. Throws
/// std::invalid_argument on a disconnected model.
int interval_diameter(const PathIntervals& rep, PathScratch& scratch);

/// Level-by-level distances from `sources` (indices into rep.vertices) by
/// span growth: the sources sit at 0, the covered span starts as their
/// hull, and level L absorbs every unseen interval meeting the span of
/// level L-1, widening it. For one source this is exact BFS in the interval
/// graph. For several, the hull can cover vertices that a multi-source BFS
/// reaches only later. Entries beyond `max_level` (when >= 0) and
/// unreachable ones are -1. O(n + the occupied position range), no sort.
void interval_distances(const PathIntervals& rep,
                        std::span<const std::size_t> sources, int max_level,
                        PathScratch& scratch, std::vector<int>& dist);

}  // namespace chordal
