// DynamicChordal: the update layer over the whole pipeline.
//
// One object owns the mutable graph (graph/dynamic_graph.hpp), the
// incrementally repaired clique family + forest (cliqueforest/
// dynamic_forest.hpp), and the canonical labels (core/dynamic_labels.hpp).
// Every mutation is certified first - a chordality-breaking update throws
// ChordalityViolation carrying a witness chordless cycle and leaves all
// state untouched - and then *repaired* through, never rebuilt: the family
// delta, the region rebuild of the forest (the batch MWSF re-run on the
// cliques meeting the touched vertices), and the worklist recoloring each
// touch work proportional to the affected region, which is what
// bench_dynamic (E17) measures against the full-rebuild baseline.
//
// Edge-insert certification takes a clique-forest fast path before falling
// back to the BFS oracle: G+uv is chordal iff S = N(u) cut N(v) separates u
// from v, and in a clique tree the minimal u-v separators are exactly the
// edge intersections on the tree path between T(u) and T(v). Finding one
// path edge whose intersection is inside S proves separation in
// O(path * omega) - no graph BFS; only would-be rejections (and the rare
// miss) pay the oracle, which then also extracts the witness cycle.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cliqueforest/dynamic_forest.hpp"
#include "core/dynamic_labels.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"

namespace chordal {

/// Cumulative telemetry for one DynamicChordal instance.
struct DynamicStats {
  std::int64_t edge_inserts = 0;
  std::int64_t edge_deletes = 0;
  std::int64_t vertex_inserts = 0;
  std::int64_t vertex_deletes = 0;
  std::int64_t rejected = 0;         // mutations refused with a witness
  std::int64_t fastpath_accepts = 0; // edge inserts certified via the forest
  std::int64_t oracle_calls = 0;     // BFS-oracle certifications
  std::int64_t cliques_removed = 0;
  std::int64_t cliques_added = 0;
  // Candidate W-edges of the forest repair's region Kruskal (see
  // ForestRepairStats::pool_edges).
  std::int64_t pool_edges = 0;
  // Forest-BFS nodes popped by the edge-insert certificate's path search.
  std::int64_t path_steps = 0;
  std::int64_t labels_processed = 0;
  std::int64_t color_changes = 0;
  std::int64_t mis_flips = 0;
};

class DynamicChordal {
 public:
  /// Empty graph; grow it with insert_vertex.
  DynamicChordal() = default;

  /// Adopts a static chordal graph (throws std::invalid_argument when g is
  /// not chordal) and builds family, forest, and labels once.
  explicit DynamicChordal(const Graph& g);

  // Mutations. std::invalid_argument on malformed arguments (loops,
  // duplicate edges, dead endpoints); ChordalityViolation with a witness
  // cycle when the update would break chordality. Strong exception safety:
  // a throwing mutation changes nothing.
  void insert_edge(int u, int v);
  void delete_edge(int u, int v);
  /// Returns the new vertex's slot id (the lowest dead slot, else a fresh
  /// one).
  int insert_vertex(std::span<const int> neighbors);
  void delete_vertex(int v);

  const DynamicGraph& graph() const { return graph_; }
  const DynamicCliqueForest& forest() const { return forest_; }
  int color(int v) const { return labels_.color(v); }
  bool in_mis(int v) const { return labels_.in_mis(v); }
  int mis_size() const { return labels_.mis_size(); }
  int num_colors() const { return labels_.num_colors(graph_); }
  int max_clique_size() const { return forest_.max_clique_size(); }
  Graph materialize() const { return graph_.materialize(); }
  const DynamicStats& stats() const { return stats_; }

  /// Canonical snapshot of every derived structure, in slot ids: the parity
  /// surface the audits compare against full recomputation.
  struct Signature {
    std::vector<std::pair<int, int>> colors;  // (slot, color), ascending
    std::vector<int> mis;                     // ascending alive MIS slots
    std::vector<std::vector<int>> family;     // canonical clique words
    std::vector<std::pair<std::vector<int>, std::vector<int>>> forest;
    bool operator==(const Signature&) const = default;
  };
  Signature signature() const;

  /// What a non-incremental system computes per update: chordality check,
  /// canonical family, MWSF, and labels from scratch on the alive-induced
  /// graph, mapped back to slot ids. The parity oracle (and the full-rebuild
  /// baseline timed by bench_dynamic).
  static Signature recompute_signature(const DynamicGraph& g);

 private:
  /// Forest-path separation certificate; true proves G+uv stays chordal.
  bool edge_insert_fastpath(int u, int v, std::span<const int> common);
  std::vector<int> sorted_common_neighbors(int u, int v) const;
  void absorb(const ForestRepairStats& fs, const LabelRepairStats& ls);

  DynamicGraph graph_;
  DynamicCliqueForest forest_;
  DynamicLabels labels_;
  DynamicStats stats_;
  DynamicScratch scratch_;

  // Forest-BFS scratch for the fast certificate (sized by clique slots).
  std::uint64_t fepoch_ = 0;
  std::vector<std::uint64_t> fstamp_;
  std::vector<std::uint64_t> ftarget_;
  std::vector<std::int32_t> fparent_;
  std::vector<std::int32_t> fqueue_;

  std::vector<int> seed_buf_;
};

}  // namespace chordal
