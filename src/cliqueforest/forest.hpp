// The clique forest of a chordal graph: the unique maximum weight spanning
// forest of the weighted clique intersection graph W_G under the paper's
// deterministic edge order (Theorem 2 + the Section 3 tie-breaking rule).
//
// Storage is flat struct-of-arrays throughout: the clique family is a
// CliqueFamily (two slabs), and both the forest adjacency and the
// vertex->clique membership map phi are CSR slabs in the compact id types
// of graph/ids.hpp. Query paths hand out spans; nothing on this class
// allocates per call.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cliqueforest/family.hpp"
#include "cliqueforest/wcig.hpp"
#include "graph/graph.hpp"

namespace chordal {

class CliqueForest {
 public:
  /// Full pipeline: verify chordality, extract maximal cliques, and select
  /// the unique MWSF of W_G via Kruskal over the deterministic order.
  static CliqueForest build(const Graph& g);

  /// Builds the forest over an explicitly given (canonical, sorted) family
  /// of maximal cliques of a chordal graph. `num_graph_vertices` is n of
  /// the underlying graph.
  static CliqueForest from_family(CliqueFamily cliques,
                                  int num_graph_vertices);

  int num_cliques() const { return static_cast<int>(cliques_.size()); }
  int num_graph_vertices() const { return num_graph_vertices_; }

  const CliqueFamily& cliques() const { return cliques_; }
  CliqueWord clique(int c) const { return cliques_[static_cast<std::size_t>(c)]; }

  /// Forest adjacency (sorted) over clique indices.
  std::span<const CliqueId> forest_neighbors(int c) const {
    return {adj_.data() + adj_offsets_[c],
            static_cast<std::size_t>(adj_offsets_[c + 1] - adj_offsets_[c])};
  }
  int forest_degree(int c) const {
    return static_cast<int>(adj_offsets_[c + 1] - adj_offsets_[c]);
  }
  std::vector<std::pair<int, int>> forest_edges() const;

  /// phi(v): sorted clique indices containing vertex v. The induced
  /// sub-forest is the subtree T(v) of the paper.
  std::span<const CliqueId> cliques_of(int v) const {
    return {member_.data() + member_offsets_[v],
            static_cast<std::size_t>(member_offsets_[v + 1] -
                                     member_offsets_[v])};
  }

  /// Checks the tree-decomposition axioms plus acyclicity against g.
  /// Intended for tests; throws std::logic_error with a description of the
  /// first violated property.
  void verify(const Graph& g) const;

  /// Bytes resident across all slabs (capacities).
  std::size_t memory_bytes() const {
    return cliques_.memory_bytes() +
           adj_offsets_.capacity() * sizeof(EdgeIndex) +
           adj_.capacity() * sizeof(CliqueId) +
           member_offsets_.capacity() * sizeof(EdgeIndex) +
           member_.capacity() * sizeof(CliqueId);
  }

 private:
  CliqueFamily cliques_;
  std::vector<EdgeIndex> adj_offsets_;     // num_cliques+1; forest adjacency
  std::vector<CliqueId> adj_;              // concatenated sorted rows
  std::vector<EdgeIndex> member_offsets_;  // n+1; phi as a CSR slab
  std::vector<CliqueId> member_;           // ascending clique ids per vertex
  int num_graph_vertices_ = 0;
};

/// Returns the edges of the unique MWSF of the W_G induced by `cliques`,
/// processing edges in decreasing deterministic order. Allocating wrapper
/// over the ForestScratch engine below - the only whole-graph forest
/// construction path of the library.
std::vector<WcigEdge> max_weight_spanning_forest(const CliqueFamily& cliques,
                                                 int num_graph_vertices);

/// Engine form. Precondition: `cliques` is the family of maximal cliques of
/// a chordal graph on `num_graph_vertices` vertices, in any order (every
/// caller passes maximal_cliques_chordal_family output, possibly
/// shuffled); vertex ids out of range throw std::out_of_range.
///
/// Kruskal runs over separator candidates, not all of W_G: phi as a CSR
/// slab (scratch.phi_offsets / scratch.phi), a maximum-cardinality search
/// over cliques for the distinct minimal separators, and for each
/// separator S the edges {d, top(S)} from every clique d containing S to
/// the highest-ranked one. By the cycle property under the paper's order
/// no other W_G edge can be in the forest, so these candidates (left in
/// scratch.edges; one per non-top holder of each distinct separator, i.e.
/// exactly the #cliques - 1 forest edges on a k-tree) yield the same
/// forest as all of W_G. They are then radix-ordered by
/// (min rank, max rank) through a one-time lexicographic ranking of the
/// clique words (the identity for canonical sorted families),
/// weight-bucketed (weights are at most omega), and fed to a scratch
/// union-find. `out` receives the chosen edges in decreasing deterministic
/// order, exactly as max_weight_spanning_forest_oracle emits them.
void max_weight_spanning_forest(const CliqueFamily& cliques,
                                int num_graph_vertices,
                                ForestScratch& scratch,
                                std::vector<WcigEdge>& out);

/// The original allocating construction (all of W_G via wcig_edges +
/// comparator sort + fresh UnionFind), kept verbatim as the differential
/// oracle that audit_forest_engine_parity and the tests check the engine
/// against; no driver calls it. It accepts any family of sorted cliques.
/// The CliqueFamily form expands to the nested representation first - it
/// is a cold path by definition.
std::vector<WcigEdge> max_weight_spanning_forest_oracle(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices);
std::vector<WcigEdge> max_weight_spanning_forest_oracle(
    const CliqueFamily& cliques, int num_graph_vertices);

/// Dense per-family MWSF (Lemma 2 for local views, and the dynamic
/// forest's small repair regions): selects the maximum weight spanning
/// forest of W restricted to the family {cliques[c] : c in family} and
/// appends the chosen edges to `out` as (min, max) pairs of clique indices,
/// in Kruskal order. Requires `cliques` strictly lexicographically sorted
/// (so rank == index and the paper's word tie-breaks are integer
/// comparisons) and `family` ascending. W need not be complete: pairs that
/// share no vertex are no W-edge and never enter the Kruskal, so a family
/// spanning several components yields one tree per component. Costs
/// O(|family|^2) plus one increment per shared (clique, clique, vertex)
/// triple and touches only family-sized scratch: no O(n) membership array,
/// no allocations once the scratch is warm. On return scratch.pair_a holds
/// one entry per positive-weight pair (the Kruskal candidates) when the
/// family has at least two cliques.
void family_forest_edges(const CliqueFamily& cliques,
                         std::span<const CliqueId> family,
                         ForestScratch& scratch,
                         std::vector<std::pair<int, int>>& out);

}  // namespace chordal
