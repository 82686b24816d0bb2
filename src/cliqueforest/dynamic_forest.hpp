// Incrementally maintained clique family + clique forest of a dynamic
// chordal graph.
//
// The static CliqueForest packs the canonical family and the unique MWSF
// into CSR slabs - unbeatable for batch queries, uneditable under churn.
// This class keeps the same mathematical objects in slot form: one sorted
// word per clique slot (stable id, free-listed), a per-vertex membership
// list phi, and the forest as small adjacency vectors with cached
// intersection weights. Updates arrive as *certified* mutations (the caller
// has already proved the graph stays chordal) and are applied as a
// remove/add delta on the family followed by a local repair of the forest:
//
//   family delta (all O(|phi(touched)| * omega)):
//     insert uv:  the one new maximal clique is C = {u,v} + (N(u) cut N(v));
//                 the cliques that die are exactly the old maximal cliques
//                 contained in C (each contains u or v, so phi finds them).
//     delete uv:  the unique clique K containing uv dies; K-u and K-v are
//                 reinstated iff no surviving clique contains them.
//     insert z/X: the new cliques are {z}+M for the maximal cliques M of
//                 G[X]; old cliques die iff they are one of those M.
//     delete z:   every K in phi(z) dies; K-z is reinstated iff maximal.
//
//   forest repair (region rebuild): let U be the vertices of the removed
//   and added words and R the alive cliques meeting U. Every forest edge
//   with both endpoints in R is dropped and replaced by the MWSF of W[R],
//   computed by the batch engines of cliqueforest/forest.hpp; nothing else
//   changes. Exactness rests on Lemma 2 (T(x) is the MWSF of W[phi(x)]):
//   an edge whose separator avoids U lies in T(x) for a vertex x whose phi
//   the update did not touch, so it survives as is - and every edge leaving
//   R has such a separator. Inside R, the new forest has one tree per
//   component of G'[U]; for all four update kinds two components of G'[U]
//   share no neighbor, so cliques of different trees share no vertex, W'[R]
//   has exactly those components, and by the cycle property (a better path
//   inside W'[R] is one in W') the new forest restricted to R is
//   MWSF(W'[R]). Each tree is a clique tree of the union of its words, so R
//   is the maximal-clique family of a chordal graph - the batch engine's
//   precondition. EXPERIMENTS E17 writes the argument out in full.
//
//   Engine per region: R is sorted by word (the paper's tie-break order).
//   Up to kDenseRegion cliques, family_forest_edges runs its dense pairwise
//   Kruskal straight on the slot words; larger (hub) regions relabel their
//   vertices monotonically to 0..k-1, which keeps word order, and run the
//   sparse separator-candidate max_weight_spanning_forest in
//   O(sum_{c in R} |C|). Either way the result is bit-identical (as a set
//   of word pairs) to a from-scratch build - which is precisely what the
//   audit matrix checks after every fuzzed update.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cliqueforest/family.hpp"
#include "cliqueforest/wcig.hpp"
#include "graph/ids.hpp"

namespace chordal {

/// Locality accounting for one certified update.
struct ForestRepairStats {
  int cliques_removed = 0;
  int cliques_added = 0;
  // Candidate W-edges of the region Kruskal: the positive-weight pairs on
  // the dense path, the separator candidates on the sparse one.
  int pool_edges = 0;
};

class DynamicCliqueForest {
 public:
  struct ForestNeighbor {
    std::int32_t clique;
    std::int32_t weight;  // |word(a) cut word(b)|, cached
  };

  DynamicCliqueForest() = default;

  /// Adopts the canonical family and MWSF edges of the initial graph
  /// (exactly what maximal_cliques_chordal_family +
  /// max_weight_spanning_forest produce). `vertex_slots` sizes phi.
  void init(const CliqueFamily& family, std::span<const WcigEdge> forest,
            int vertex_slots);

  int num_cliques() const { return alive_cliques_; }
  int num_clique_slots() const { return static_cast<int>(words_.size()); }
  CliqueWord word(int c) const { return words_[static_cast<std::size_t>(c)]; }
  /// Sorted clique-slot ids containing vertex slot v.
  std::span<const std::int32_t> cliques_of(int v) const {
    return phi_[static_cast<std::size_t>(v)];
  }
  std::span<const ForestNeighbor> forest_neighbors(int c) const {
    return forest_[static_cast<std::size_t>(c)];
  }

  /// omega(G): size of the largest alive word. O(#slots) scan (bench/cold).
  int max_clique_size() const;

  /// Grows phi to cover vertex slots [0, n).
  void ensure_vertex_slots(int n);

  /// Alive cliques containing both endpoints of edge uv, capped at 2; the
  /// slots land in out[0..count). count == 1 certifies uv deletable.
  int cliques_containing_edge(int u, int v, std::int32_t out[2]) const;

  // Certified-update appliers (the caller guarantees the *graph* mutation
  // keeps it chordal; `common` is the sorted N(u) cut N(v) before insertion,
  // `gx_cliques` the maximal cliques of G[X] as sorted words, one empty
  // outer list meaning X = {}).
  ForestRepairStats apply_edge_insert(int u, int v,
                                      std::span<const int> common);
  ForestRepairStats apply_edge_delete(int u, int v);
  ForestRepairStats apply_vertex_insert(
      int z, std::span<const std::vector<int>> gx_cliques);
  ForestRepairStats apply_vertex_delete(int z);

  /// Canonical (lex-sorted) family of the alive words - the object the
  /// static pipeline would compute. Cold path: audits, snapshots.
  CliqueFamily canonical_family() const;
  /// Forest edges as sorted (smaller word, larger word) pairs - the
  /// numbering-independent identity of the MWSF.
  std::vector<std::pair<std::vector<int>, std::vector<int>>>
  canonical_forest_edges() const;

  std::size_t memory_bytes() const;

 private:
  /// Regions of at most this many cliques take the dense pairwise Kruskal
  /// (family_forest_edges); larger ones the sparse separator engine.
  static constexpr int kDenseRegion = 48;

  // Both record the word in U and count it in pending_.
  int new_clique(std::vector<VertexId> word);
  void kill_clique(int c);
  void add_forest_edge(int a, int b, int weight);
  /// Region rebuild over U (see the header comment); returns and resets
  /// the pending stats.
  ForestRepairStats repair();

  std::vector<std::vector<VertexId>> words_;  // sorted; empty when dead
  std::vector<char> cl_alive_;
  std::vector<std::int32_t> free_cliques_;
  std::vector<std::vector<std::int32_t>> phi_;  // per vertex slot, sorted
  std::vector<std::vector<ForestNeighbor>> forest_;
  int alive_cliques_ = 0;

  // The pending update: U (with repeats until repair) and its counts.
  std::vector<VertexId> touched_;
  ForestRepairStats pending_;

  // Repair scratch, reused across updates.
  std::uint64_t repoch_ = 0;
  std::vector<std::uint64_t> rstamp_;  // per clique slot: in R this epoch
  std::vector<std::int32_t> region_;   // R, in word order
  CliqueFamily region_family_;         // the words of R, in that order
  std::vector<CliqueId> region_ids_;   // dense path: 0..|R|-1
  std::vector<VertexId> region_vertices_;  // sparse path: sorted, distinct
  std::vector<VertexId> relabel_;  // per vertex slot: its region_vertices_
                                   // index (valid for R's vertices only)
  ForestScratch engine_;
  std::vector<std::pair<int, int>> dense_out_;
  std::vector<WcigEdge> sparse_out_;
};

}  // namespace chordal
