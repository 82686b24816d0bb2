// Offline (centralized) exact coloring on interval models: the optimal
// baseline every coloring experiment compares against. On interval graphs
// greedy left-to-right coloring is chi-optimal. (The alpha-optimal
// earliest-deadline MIS is interval_mis in cliqueforest/paths.hpp.)
#pragma once

#include <vector>

#include "interval/rep.hpp"

namespace chordal::interval {

/// Optimal coloring: colors 0..omega-1, indexed like rep.vertices.
/// Left-to-right greedy with smallest-free-color; uses exactly omega colors
/// on a nonempty model.
std::vector<int> color_optimal(const PathIntervals& rep);

/// True iff `colors` (local-indexed) is a proper coloring of the model.
bool is_proper(const PathIntervals& rep, const std::vector<int>& colors);

}  // namespace chordal::interval
