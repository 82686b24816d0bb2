// The Lemma 9 recoloring engine.
//
// Lemma 9 (Halldorsson & Konrad [21]): on an interval graph whose clique
// forest is a path with end cliques C_1, C_k legally precolored from at most
// c colors and dist(C_1, C_k) >= r >= 5, the precoloring extends to the
// whole graph with max{floor((1 + 1/(r-3)) chi) + 1, c} colors.
//
// Substitution note (DESIGN.md #3): [21]'s constructive proof is not
// reproduced verbatim. Because LOCAL permits unbounded local computation, a
// node may find the guaranteed-to-exist extension by exact search over its
// O(k)-sized window; we run greedy-with-reservations first and fall back to
// exact backtracking. The solver is generic precoloring extension on an
// interval model: any subset of vertices may arrive with fixed colors.
//
// The search is flat: CSR neighbour lists from one sweep in lo order, a
// palette-sized blocked array cleared after each node, and one candidate
// buffer per search depth walked as an explicit stack, all held in a
// caller-owned WindowScratch and sized before the search starts, so a warm
// scratch solves a window without allocating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "interval/rep.hpp"

namespace chordal::interval {

struct RecolorProblem {
  PathIntervals rep;
  /// Per local index: fixed color >= 0, or -1 for "solver assigns".
  std::vector<int> fixed;
  /// Palette size: allowed colors are 0..palette-1.
  int palette = 0;
};

struct RecolorStats {
  std::int64_t backtrack_nodes = 0;
  bool used_backtracking = false;
};

/// Reusable buffers of the window solver. One scratch per worker thread;
/// once it has solved a window with at least as many vertices, adjacencies,
/// free vertices, occupied positions and colors, a call allocates nothing.
class WindowScratch {
 public:
  // Internal state (used by window_recolor.cpp).
  std::vector<int> bucket;                // counting sort by lo
  std::vector<int> by_lo;                 // local indices in lo order
  std::vector<std::size_t> nbr_off;       // CSR neighbours, n + 1 offsets
  std::vector<int> nbr;
  std::vector<std::uint64_t> uses;        // fixed (color, lo), ascending
  std::vector<std::size_t> free_order;    // free vertices in search order
  std::vector<std::size_t> fixed_list;    // fixed vertices, for restarts
  std::vector<int> gap;                   // restart order key per vertex
  std::vector<char> blocked;              // per color, cleared after a node
  std::vector<std::uint64_t> cand;        // per depth: palette value keys
  std::vector<int> cand_count, cand_next;  // per depth
};

/// Completes the precoloring `fixed` (per local index of `rep`: a color in
/// [0, palette), or -1 for "solver assigns") within the palette. On success
/// returns true with `colors` holding every vertex's color; returns false
/// if no completion was found within `node_budget` search nodes (callers
/// treat that as palette-too-small and retry wider; Lemma 9 guarantees it
/// cannot happen for the windows the coloring algorithms construct).
/// Throws std::invalid_argument on an empty palette, a size mismatch, a
/// fixed color outside the palette or an improper precoloring.
///
/// Search order: free vertices by (lo, hi); each tries its unblocked colors
/// by (latest next fixed use right of its interval, rotated tie, color).
/// Every tried value costs one node. The first attempt gets half the
/// budget; if it runs out, five restarts share the other half, ordering
/// free vertices most-constrained-first (position gap to the nearest fixed
/// vertex, then lo, hi) and rotating the tie-break.
bool extend_coloring(const PathIntervals& rep, std::span<const int> fixed,
                     int palette, WindowScratch& scratch,
                     std::vector<int>& colors, RecolorStats* stats = nullptr,
                     std::int64_t node_budget = 4'000'000);

/// Allocating form for tests and cold paths: the completion, or nullopt.
std::optional<std::vector<int>> extend_coloring(
    const RecolorProblem& problem, RecolorStats* stats = nullptr,
    std::int64_t node_budget = 4'000'000);

}  // namespace chordal::interval
