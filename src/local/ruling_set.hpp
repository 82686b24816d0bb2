// Distance-K maximal independent sets ("anchors") on interval graphs - the
// stand-in for MISUnitInterval of Schneider & Wattenhofer [31].
//
// Substitution note (see DESIGN.md): [31]'s bounded-independence machinery
// is reproduced in spirit, not verbatim. The genuinely-local
// symmetry-breaking ingredient - Cole-Vishkin on the rightmost-neighbor
// pseudoforest - is executed for real and supplies the measured log* n
// component of the round count; anchor selection then follows the canonical
// left-to-right greedy, which every node could derive consistently from its
// O(K)-ball once symmetry is broken. The output contract matches [31]:
// a maximal independent set of G^K, delivered in O(K log* n) rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "cliqueforest/paths.hpp"

namespace chordal::local {

struct RulingSetResult {
  /// Indices into rep.vertices of the chosen anchors, in left-to-right
  /// (hi, id) order.
  std::vector<std::size_t> anchors;
  std::int64_t rounds = 0;
};

/// Maximal distance-K independent set of a *connected* interval graph given
/// by clique-path positions. K >= 1. Anchors are pairwise at distance > K
/// and every vertex is within distance K of some anchor.
RulingSetResult distance_k_mis_interval(const PathIntervals& rep, int k);

}  // namespace chordal::local
