// Interval-model utilities.
//
// PathIntervals (from cliqueforest/paths.hpp) is the canonical interval
// representation used across the library: vertices carry integer position
// ranges and adjacency is range overlap. Layers of the peeling process get
// theirs from clique-path positions (Lemma 7); standalone interval graphs
// (benches E4/E7) get theirs from generator geometry via the helpers here.
#pragma once

#include <span>
#include <vector>

#include "cliqueforest/paths.hpp"
#include "graph/graph.hpp"

namespace chordal::interval {

using PathIntervals = chordal::PathIntervals;
using chordal::restrict;  // sub-models, with the model in paths.hpp

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

/// Connected components of an interval model, flat: component c is the
/// ascending local indices members[offsets[c] .. offsets[c + 1]), and the
/// components come in left-to-right order.
struct Components {
  std::vector<std::size_t> members;
  std::vector<std::size_t> offsets;  // size() + 1 entries

  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const std::size_t> operator[](std::size_t c) const {
    return {members.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
};

/// Connected components by one sweep in lo order. The first form reuses
/// `out`'s buffers.
void components(const PathIntervals& rep, Components& out);
Components components(const PathIntervals& rep);

/// Maximum number of pairwise overlapping intervals == omega == chi, by a
/// difference array over the occupied positions [min lo, max hi]; no sort.
/// The first form reuses `counts` and allocates nothing once it is as
/// large as the occupied range.
int omega(const PathIntervals& rep, std::vector<int>& counts);
int omega(const PathIntervals& rep);

}  // namespace chordal::interval
