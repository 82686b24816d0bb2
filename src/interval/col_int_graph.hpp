// ColIntGraph - deterministic distributed (1 + 1/k)-approximate coloring of
// interval graphs in O(k log* n) rounds, the subroutine the paper adopts
// from Halldorsson & Konrad [21] for the coloring phase of Algorithm 2.
//
// Structure of the stand-in implementation (DESIGN.md substitution #2):
//   1. components of diameter <= 10k are colored optimally from one ball;
//   2. otherwise a distance-(k+6) maximal independent set of anchors is
//      computed (Cole-Vishkin symmetry breaking: the log* n term);
//   3. each anchor's "column" (the clique of intervals crossing the
//      anchor's right endpoint) is colored canonically by vertex id;
//   4. the gaps between consecutive columns are completed by the Lemma 9
//      window solver with palette floor((1 + 1/k) * omega_window) + 1,
//      feasible because columns are >= k+3 apart.
// Output guarantee: at most floor((1 + 1/k) * chi(G)) + 1 colors.
#pragma once

#include <cstdint>
#include <vector>

#include "interval/rep.hpp"
#include "interval/window_recolor.hpp"
#include "local/ruling_set.hpp"

namespace chordal::interval {

struct DistColoringResult {
  std::vector<int> colors;       // per local index of the input model
  int num_colors = 0;            // distinct colors used
  std::int64_t rounds = 0;       // LOCAL rounds (max over components)
  int omega = 0;                 // measured clique number
  int color_bound = 0;           // floor((1+1/k) * omega) + 1
  /// Number of windows where the solver needed a wider palette than the
  /// Lemma 9 bound (should stay 0; tracked as a soundness tripwire).
  int palette_violations = 0;
};

/// Reusable buffers for col_int_graph: one per worker thread, so a loop
/// over many models copies each component and window into warm buffers.
struct ColIntScratch {
  // Internal state (used by col_int_graph.cpp).
  Components comps;
  PathIntervals sub;                  // the component being colored
  PathScratch paths;                  // its diameter
  local::RulingScratch ruling;        // its anchors
  std::vector<int> counts;            // omega, color counting
  std::vector<int> cuts, slot, local_colors;
  std::vector<std::size_t> slot_off, slot_members;  // vertices by slot
  std::vector<std::size_t> window;    // one gap's window, local indices
  PathIntervals window_rep;
  std::vector<int> fixed, solved;
  WindowScratch solver;
};

/// Colors the interval model with at most floor((1+1/k) * chi) + 1 colors.
/// Requires k >= 2. The first form reuses `scratch`.
DistColoringResult col_int_graph(const PathIntervals& rep, int k,
                                 ColIntScratch& scratch);
DistColoringResult col_int_graph(const PathIntervals& rep, int k);

}  // namespace chordal::interval
