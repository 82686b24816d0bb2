// Maximal cliques.
//
// For chordal graphs the maximal cliques are exactly the maximal sets of the
// form {v} union N_later(v) over a perfect elimination ordering
// (Fulkerson-Gross); there are at most n of them and they are extracted in
// near-linear time. A Bron-Kerbosch enumerator is provided as the
// brute-force oracle for property tests.
#pragma once

#include <vector>

#include "cliqueforest/family.hpp"
#include "graph/graph.hpp"
#include "graph/peo.hpp"

namespace chordal {

/// Maximal cliques of a chordal graph in canonical form: each word sorted
/// ascending, the words in lexicographic order. Emitted straight into a
/// flat CliqueFamily slab - the one Fulkerson-Gross extraction, used by the
/// full-graph forest build and by every local view. Throws if g is not
/// chordal.
CliqueFamily maximal_cliques_chordal_family(const Graph& g);
/// As above, but reuses an already-verified PEO.
CliqueFamily maximal_cliques_chordal_family(const Graph& g,
                                            const EliminationOrder& peo);

/// The same family expanded to nested vectors (tests and cold paths).
std::vector<std::vector<int>> maximal_cliques_chordal(const Graph& g);
std::vector<std::vector<int>> maximal_cliques_chordal(
    const Graph& g, const EliminationOrder& peo);

/// Bron-Kerbosch with pivoting; works on any graph. Exponential in the worst
/// case - intended for tests on small instances. Output canonicalized the
/// same way as maximal_cliques_chordal.
std::vector<std::vector<int>> maximal_cliques_bruteforce(const Graph& g);

/// Size of the largest clique of a chordal graph == chromatic number chi(G).
int max_clique_size_chordal(const Graph& g);

/// True when the clique words are strictly increasing lexicographically -
/// the canonical order produced by maximal_cliques_chordal_family and
/// required by the fast forest engine's rank-free tie-breaks (rank == index).
bool cliques_lex_sorted(const CliqueFamily& cliques);

/// Lexicographic rank of every clique word within the family: ranks[c] == r
/// means cliques[c] is the r-th smallest word. Computed once per family so
/// the paper's tie-break order on W_G edges becomes integer comparison on
/// (weight, min rank, max rank) instead of repeated O(omega) word
/// comparisons. Identity for canonical (sorted, distinct) families; ties
/// between equal words are broken by index.
std::vector<int> clique_lex_ranks(const CliqueFamily& cliques);

}  // namespace chordal
