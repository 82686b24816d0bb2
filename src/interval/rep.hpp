// Interval-model utilities.
//
// PathIntervals (from cliqueforest/paths.hpp) is the canonical interval
// representation used across the library: vertices carry integer position
// ranges and adjacency is range overlap. Layers of the peeling process get
// theirs from clique-path positions (Lemma 7); standalone interval graphs
// (benches E4/E7) get theirs from generator geometry via the helpers here.
#pragma once

#include <vector>

#include "cliqueforest/paths.hpp"
#include "graph/graph.hpp"

namespace chordal::interval {

using PathIntervals = chordal::PathIntervals;

/// Converts geometric intervals (distinct endpoints almost surely) to the
/// integer model by endpoint rank. Vertex ids are 0..n-1.
PathIntervals from_geometry(const std::vector<double>& left,
                            const std::vector<double>& right);

/// The maximal cliques of a geometric interval family in line order (the
/// clique path of Theorem 1), plus the matching interval model whose
/// positions are clique-path indices. A sweep emits the active set as a
/// clique exactly when an insertion phase flips to a removal. Serves as an
/// independent cross-check of the Lex-BFS clique extraction and yields the
/// most compact PathIntervals for a given geometry.
struct CliquePath {
  std::vector<std::vector<int>> cliques;  // sorted vertex lists, path order
  PathIntervals rep;                      // positions = clique-path indices
};
CliquePath clique_path_from_geometry(const std::vector<double>& left,
                                     const std::vector<double>& right);

/// Intersection graph of the integer model (for tests and baselines).
/// Vertex i of the result is rep.vertices[i]... the graph is built over
/// local indices 0..rep.vertices.size()-1.
Graph to_graph(const PathIntervals& rep);

/// Restriction of `rep` to a subset of local indices (e.g. one connected
/// component); preserves global vertex ids and positions.
PathIntervals restrict(const PathIntervals& rep,
                       const std::vector<std::size_t>& keep);

/// Connected components of the interval model, each a sorted list of local
/// indices. Linear sweep over positions.
std::vector<std::vector<std::size_t>> components(const PathIntervals& rep);

/// Maximum number of pairwise overlapping intervals == omega == chi.
int omega(const PathIntervals& rep);

}  // namespace chordal::interval
