// The layer-peeling process shared by both headline algorithms.
//
// Iteration i takes the clique forest T_i of the still-unassigned graph
// G[U_i], collects the set L_i of maximal pendant paths plus the maximal
// internal paths passing a mode-dependent threshold, and peels off the
// vertices whose whole subtree lies inside one of those paths. Lemma 5
// shows T_{i+1} is simply T_i minus the removed paths (the surviving
// maximal cliques are unchanged), so one globally built forest with an
// activity mask reproduces the entire process. Lemma 6 bounds the number of
// iterations by ceil(log2 n).
#pragma once

#include <vector>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/paths.hpp"
#include "graph/graph.hpp"

namespace chordal::core {

enum class PeelMode {
  /// Algorithm 1: internal paths need diameter >= 3k; run until exhausted.
  kColoring,
  /// Algorithm 6: internal paths need diameter >= 2d+3; exactly
  /// `max_iterations` rounds, the last switching to independence >= d.
  kIndependentSet,
};

struct PeelConfig {
  PeelMode mode = PeelMode::kColoring;
  int k = 2;              // coloring-mode scale (threshold 3k)
  int d = 4;              // MIS-mode scale (thresholds 2d+3 and alpha >= d)
  int max_iterations = 0; // MIS mode only; 0 = unbounded (coloring)
};

struct LayerPath {
  ForestPath path;
  std::vector<int> owned;  // W: the vertices peeled with this path, sorted
};

struct PeelingResult {
  /// layer_of[v]: 1-based peel iteration, or 0 if v was never peeled (only
  /// possible in MIS mode, which stops early).
  std::vector<int> layer_of;
  int num_layers = 0;
  /// layers[i-1]: the paths L_i with their owned vertex sets.
  std::vector<std::vector<LayerPath>> layers;
  /// Count of degree->=3 forest vertices per iteration start, recorded to
  /// let tests and benches check the Lemma 6 halving invariant.
  std::vector<int> high_degree_counts;
};

/// The threshold rule for an internal (non-pendant) maximal binary path
/// whose interval model is `model`: coloring mode removes it iff
/// diam >= 3k; MIS mode iff alpha >= d on the last iteration, else
/// diam >= 2d+3. peel() and the per-node decisions of local_decision.cpp
/// both call it, so Lemma 12's per-node = global equality holds for the
/// threshold by construction.
bool internal_path_removed(const PathIntervals& model,
                           const PeelConfig& config, bool last_round,
                           PathScratch& scratch);

/// Runs the peeling process on a prebuilt clique forest of g, recomputing
/// every path's threshold metric at every iteration.
PeelingResult peel(const Graph& g, const CliqueForest& forest,
                   const PeelConfig& config);

}  // namespace chordal::core
