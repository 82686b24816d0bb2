// Centralized exact baselines (cheap on chordal graphs) and the classic
// distributed (Delta+1) greedy - the comparison points for experiment E9
// and the ground truth for every approximation-ratio measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::baselines {

/// Optimal coloring of a chordal graph: greedy along the reverse perfect
/// elimination ordering uses exactly chi(G) = omega(G) colors.
std::vector<int> optimal_coloring_chordal(const Graph& g);

/// chi(G) of a chordal graph (== omega).
int chromatic_number_chordal(const Graph& g);

/// Exact maximum independent set of a chordal graph: greedy along the
/// perfect elimination ordering (take every unblocked simplicial vertex).
std::vector<int> maximum_independent_set_chordal(const Graph& g);

/// alpha(G) of a chordal graph.
int independence_number_chordal(const Graph& g);

struct DPlusOneResult {
  std::vector<int> colors;
  int num_colors = 0;
  int rounds = 0;  // genuine message-passing rounds
};

/// Distributed (Delta+1) coloring with random priorities over a Network
/// running under `bw`; terminates in O(log n) phases with high probability.
DPlusOneResult dplus1_coloring(const Graph& g, std::uint64_t seed,
                               const local::BandwidthConfig& bw = {});

}  // namespace chordal::baselines
