// Luby's randomized maximal independent set, run as a genuine
// message-passing program on the Network engine. Used as the classic
// baseline in experiment E9 and as a reference implementation of the
// three-round phase pattern (draw, join, deactivate).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::local {

struct LubyResult {
  std::vector<int> independent_set;  // sorted vertex list
  int rounds = 0;                    // communication rounds used
  int phases = 0;                    // Luby phases (3 rounds each)
};

/// Runs Luby's algorithm to completion over a Network running under `bw`.
/// Expected O(log n) phases.
LubyResult luby_mis(const Graph& g, std::uint64_t seed,
                    const BandwidthConfig& bw = {});

}  // namespace chordal::local
