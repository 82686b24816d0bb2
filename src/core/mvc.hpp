// Minimum Vertex Coloring on chordal graphs - the paper's first headline
// result (Algorithm 1 centralized / Algorithms 2-4 distributed, Theorems 3
// and 4): a deterministic (1 + eps)-approximation in O((1/eps) log n)
// rounds of the LOCAL model.
//
// The distributed and centralized algorithms compute the same coloring
// (Lemma 12); one engine implements both. Distributed semantics are
// captured by per-node round clocks: pruning costs 10k rounds per
// iteration survived, layers are colored as soon as they leave pruning
// (ColIntGraph, O(k log* n) rounds), and color correction waits on the
// conflicting higher layers before spending its O(k) rounds, exactly the
// parent/child choreography of Algorithms 3 and 4.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::core {

enum class LayerColoringMode {
  /// Algorithm 1 as analyzed: layers colored by the distributed-feasible
  /// ColIntGraph with (1 + 1/k) chi + 1 colors.
  kColIntGraph,
  /// Ablation: layers colored optimally (centralized-only shortcut).
  kOptimal,
};

enum class PruningMode {
  /// Global peeling with the clique-forest activity mask (fast; identical
  /// output by Lemma 12).
  kGlobal,
  /// Every layer decision made by the owning node from its own
  /// distance-10k ball (Algorithm 3 verbatim; one local view per active
  /// node per iteration - use for validation, not scale).
  kPerNodeLocalViews,
};

struct MvcOptions {
  double eps = 0.5;
  LayerColoringMode layer_coloring = LayerColoringMode::kColIntGraph;
  PruningMode pruning = PruningMode::kGlobal;
  /// Network model the round clocks are charged under (default LOCAL).
  /// Outputs are identical across models; only round counts may grow.
  local::BandwidthConfig net = {};
};

struct MvcResult {
  std::vector<int> colors;          // proper coloring of the input graph
  int num_colors = 0;
  int omega = 0;                    // clique number == chi (chordal)
  int k = 0;                        // ceil(2 / eps), floored at 2
  int num_layers = 0;               // peel iterations used (<= ceil(log n))
  std::int64_t rounds = 0;          // max node clock
  std::int64_t pruning_rounds = 0;  // phase breakdown
  std::int64_t coloring_rounds = 0;
  std::int64_t correction_rounds = 0;
  int palette_violations = 0;       // Lemma 9/10 tripwire, expected 0
  int recolored_vertices = 0;       // conflict-zone size across all layers
};

/// The distributed algorithm (Algorithm 2). eps > 0 and finite, with
/// ceil(2 / eps) fitting in an int (std::invalid_argument otherwise); the
/// (1+eps) approximation guarantee requires eps >= 2 / chi(G) (Theorem 3).
MvcResult mvc_chordal(const Graph& g, const MvcOptions& options = {});

/// Algorithm 1 with the centralized shortcut (optimal layer colorings);
/// round fields describe the run as if executed distributively.
MvcResult mvc_chordal_centralized(const Graph& g, double eps);

}  // namespace chordal::core
