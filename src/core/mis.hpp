// Maximum Independent Set on chordal graphs - the paper's second headline
// result (Algorithm 6, Theorems 7 and 8): a deterministic (1 + eps)-
// approximation in O((1/eps) log(1/eps) log* n) LOCAL rounds.
//
// Unlike coloring, only the first k = O(log(1/eps)) peel layers are
// processed: they already hold a (1 - eps/2) fraction of the optimum
// (Lemma 14). Each layer is an interval graph; small components get
// absorbing maximum independent sets, large ones the Algorithm 5
// (1 + eps/8)-approximation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::core {

struct MisOptions {
  double eps = 0.25;  // in (0, 1/2)
  /// Override for the paper's d = ceil(64/eps) scale constant (0 = paper
  /// value). The worst-case constant is loose; benches ablate it (E5).
  int d_override = 0;
  /// Network model the round clocks are charged under (default LOCAL).
  /// The chosen set is identical across models; only rounds may grow.
  local::BandwidthConfig net = {};
};

struct MisResult {
  std::vector<int> chosen;  // sorted independent set
  int d = 0;                // scale parameter
  int iterations = 0;       // k = ceil(log2(d/eps)) + 2 peel iterations
  std::int64_t rounds = 0;
  /// How many component solves took each branch (diagnostics / ablation).
  int absorbing_components = 0;
  int approx_components = 0;
};

/// eps in (0, 1/2), with d and the iteration count fitting in an int
/// (std::invalid_argument otherwise).
MisResult mis_chordal(const Graph& g, const MisOptions& options = {});

}  // namespace chordal::core
