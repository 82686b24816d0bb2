// Weighted clique intersection graph W_G (Section 3 of the paper).
//
// Vertices of W_G are the maximal cliques of a chordal graph G; two cliques
// with a nonempty intersection are joined by an edge weighted by the
// intersection size. The paper's linear order < on edges (weight, then the
// lexicographically smaller clique word, then the larger one) makes the
// maximum weight spanning forest unique, which is what lets independent
// local computations agree on one global clique forest.
#pragma once

#include <cstdint>
#include <vector>

#include "cliqueforest/family.hpp"

namespace chordal {

struct WcigEdge {
  int a = -1;      // clique index
  int b = -1;      // clique index, a < b
  int weight = 0;  // |C_a cut C_b|
};

/// Reusable scratch for the near-linear clique-forest engine (in the style
/// of local/workspace.hpp): per-graph-vertex tables plus flat counting-sort
/// / union-find / search buffers, so the forest selections allocate
/// nothing once the buffers are warm. The per-family paths use
/// epoch-stamped tables and never clear an O(n) array; the whole-graph
/// build resets its O(n) tables once per call, as it builds phi anyway.
/// One scratch per worker thread; a scratch must not be shared between
/// concurrent calls.
struct ForestScratch {
  /// Grows the stamped vertex tables to cover ids [0, n) (no-op once
  /// sized). Called by every engine entry point.
  void ensure_vertices(int n) {
    auto size = static_cast<std::size_t>(n);
    if (vertex_stamp.size() < size) {
      vertex_stamp.resize(size, 0);
      vertex_head.resize(size, -1);
    }
  }

  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> vertex_stamp;  // per vertex id, touch epoch
  std::vector<int> vertex_head;  // last entry of the vertex's occ chain
  std::vector<std::pair<int, int>> occ;  // (clique, previous occ index)
  std::vector<int> pair_a, pair_b;       // co-occurrence pair buffers
  std::vector<int> tmp_a, tmp_b;         // radix scratch
  std::vector<int> counts;               // counting-sort histogram
  std::vector<int> weights;              // per-family dense weight matrix
  std::vector<WcigEdge> edges, edges_tmp;
  std::vector<int> ranks;                // lexicographic rank per clique
  std::vector<int> uf_parent, uf_rank;   // scratch union-find
  // Sparse-candidate forest engine (max_weight_spanning_forest): phi as a
  // CSR slab, the clique MCS bucket queue, and the distinct separators.
  std::vector<EdgeIndex> phi_offsets;    // n+1
  std::vector<CliqueId> phi;             // ascending clique ids per vertex
  std::vector<char> vertex_flags;        // per vertex id: visited, marked
  std::vector<int> mcs_count;            // |C_c cut visited|; -1 = visited
  std::vector<std::vector<int>> mcs_buckets;  // clique stacks per count
  std::vector<EdgeIndex> sep_offsets;    // distinct separators, as a slab
  std::vector<VertexId> sep_vertices;
  std::vector<int> sep_head;             // per pivot vertex: last separator
  std::vector<int> sep_next;             // per separator: chain at its pivot
  std::vector<int> holders;              // cliques containing a separator
};

/// All edges of W_G for the given clique family over vertices 0..n-1.
/// Cliques must be sorted vertex lists. Output edges have a < b and are
/// sorted by (a, b).
std::vector<WcigEdge> wcig_edges(const std::vector<std::vector<int>>& cliques,
                                 int num_graph_vertices);

/// Counting-sort form of wcig_edges: identical output (edges with a < b,
/// sorted by (a, b), weight = |C_a cut C_b|), but edge weights are computed
/// as pair multiplicities while enumerating per-vertex membership pairs (no
/// per-pair sorted merges) and the pair list is ordered by a two-pass radix
/// sort over clique indices (no comparison sort). Runs in
/// O(sum_v |phi(v)|^2 + #cliques) and touches only scratch storage - no
/// O(n) membership table is built or cleared. No driver enumerates W_G any
/// more (max_weight_spanning_forest runs Kruskal over separator
/// candidates); this stays as the fast cross-check of the nested reference
/// form above in the tests and as what the pipeline benchmark times as its
/// W_G layer.
void wcig_edges_counting(const CliqueFamily& cliques, int num_graph_vertices,
                         ForestScratch& scratch, std::vector<WcigEdge>& out);

/// The paper's strict total order e < f on W_G edges:
///   w_e < w_f, or (w_e == w_f and l_e < l_f lexicographically), or
///   (both equal and h_e < h_f), where l/h are the lexicographically
///   smaller/larger of the two incident cliques' sorted ID words.
/// Comparing words (not indices) keeps the order meaningful across different
/// local views that number cliques differently. Part of the reference
/// oracle (max_weight_spanning_forest_oracle); the engine realizes the
/// same order through integer rank comparisons.
bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const std::vector<std::vector<int>>& cliques);

/// Membership map: for every graph vertex v, the sorted list of clique
/// indices containing v (the family phi(v)).
std::vector<std::vector<int>> clique_membership(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices);

}  // namespace chordal
