// Perfect elimination orderings and chordality recognition.
//
// An ordering v_1, ..., v_n is a perfect elimination ordering (PEO) if for
// every i the neighbors of v_i that appear later in the order form a clique.
// A graph is chordal iff it admits a PEO, and the reverse of any Lex-BFS
// visit order of a chordal graph is one.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace chordal {

struct EliminationOrder {
  std::vector<int> order;     // order[i] = i-th eliminated vertex
  std::vector<int> position;  // position[v] = i with order[i] == v
};

/// Candidate PEO: reverse Lex-BFS order. A genuine PEO iff g is chordal.
EliminationOrder peo_candidate(const Graph& g);

/// Verifies the PEO property in O(n + m) time (Rose-Tarjan-Lueker style
/// deferred adjacency checks). Returns false, not UB, when `order` is not a
/// permutation of the vertices or `position` is not its inverse.
bool is_perfect_elimination_order(const Graph& g, const EliminationOrder& peo);

/// Chordality test: Lex-BFS + PEO verification.
bool is_chordal(const Graph& g);

/// Computes a verified PEO; throws std::invalid_argument if g is not chordal.
EliminationOrder peo_or_throw(const Graph& g);

}  // namespace chordal
