#include "interval/mis_interval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "interval/proper.hpp"
#include "local/ruling_set.hpp"

namespace chordal::interval {

namespace {

/// Processes one connected component of the domination-reduced model.
/// `comp` holds local indices into `reduced`; results are indices into
/// `reduced` as well.
std::int64_t mis_component(const PathIntervals& reduced,
                           const std::vector<std::size_t>& comp, int k,
                           std::vector<std::size_t>& out) {
  PathIntervals sub = restrict(reduced, comp);
  const std::size_t n = comp.size();
  // Appends an exact MIS of sub restricted to `segment` to `out`, as
  // indices into `reduced`.
  auto solve_exactly = [&](std::vector<std::size_t>& segment) {
    const std::size_t kept = interval_mis(sub, segment);
    for (std::size_t j = 0; j < kept; ++j) out.push_back(comp[segment[j]]);
  };

  PathScratch scratch;
  int diam = interval_diameter(sub, scratch);
  if (diam <= 10 * k) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    solve_exactly(all);
    return diam + 1;
  }

  // Step 1: distance-k maximal independent set I_1 (the anchors).
  auto ruling = chordal::local::distance_k_mis_interval(sub, k);
  std::vector<std::size_t> anchors(ruling.anchors.begin(),
                                   ruling.anchors.end());
  std::sort(anchors.begin(), anchors.end(),
            [&sub](std::size_t x, std::size_t y) {
              return sub.hi[x] < sub.hi[y];
            });
  for (std::size_t a : anchors) out.push_back(comp[a]);

  // Steps 2-5: between every pair of consecutive anchors (u, v), collect
  // V_{u,v} - intervals strictly between them, outside Gamma[u] and
  // Gamma[v] - and take an exact maximum independent set there; the
  // stretches left of the leftmost and right of the rightmost anchor are
  // handled the same way. One lo-sorted sweep serves all segments.
  std::vector<std::size_t> by_lo(n);
  for (std::size_t i = 0; i < n; ++i) by_lo[i] = i;
  std::sort(by_lo.begin(), by_lo.end(),
            [&sub](std::size_t x, std::size_t y) {
              return sub.lo[x] < sub.lo[y];
            });
  // Segment boundaries: (-inf, first anchor), (a_p, a_{p+1})..., (last, inf).
  for (std::size_t p = 0; p + 1 <= anchors.size(); ++p) {
    // Segment p sits between anchor p-1 and anchor p (0 = before first,
    // anchors.size() = after last).
    bool has_left = p > 0;
    bool has_right = p < anchors.size();
    int left_cut = has_left ? sub.hi[anchors[p - 1]] : -1;
    int right_cut = has_right ? sub.lo[anchors[p]]
                              : sub.num_positions + 1;
    std::vector<std::size_t> segment;
    auto first = std::lower_bound(
        by_lo.begin(), by_lo.end(), left_cut + 1,
        [&sub](std::size_t w, int key) { return sub.lo[w] < key; });
    for (auto it = first; it != by_lo.end() && sub.lo[*it] < right_cut;
         ++it) {
      if (sub.hi[*it] < right_cut) segment.push_back(*it);
    }
    solve_exactly(segment);
  }
  // The stretch after the last anchor.
  {
    std::vector<std::size_t> right_side;
    int cut = sub.hi[anchors.back()];
    auto first = std::lower_bound(
        by_lo.begin(), by_lo.end(), cut + 1,
        [&sub](std::size_t w, int key) { return sub.lo[w] < key; });
    for (auto it = first; it != by_lo.end(); ++it) right_side.push_back(*it);
    solve_exactly(right_side);
  }

  return ruling.rounds + 3 * static_cast<std::int64_t>(k);
}

}  // namespace

IntervalMisResult approx_mis_interval(const PathIntervals& rep, double eps) {
  if (eps <= 0.0 || eps >= 1.0) {
    throw std::invalid_argument("approx_mis_interval: eps outside (0,1)");
  }
  IntervalMisResult result;
  result.k = static_cast<int>(std::ceil(2.5 / eps + 0.5));

  // Domination reduction; checking Gamma[v] strictly-contains Gamma[u] is a
  // 2-round local test.
  auto kept = proper_reduction(rep);
  PathIntervals reduced = restrict(rep, kept);

  std::vector<std::size_t> chosen_reduced;
  std::int64_t rounds = 2;
  for (const auto& comp : components(reduced)) {
    rounds = std::max(
        rounds, 2 + mis_component(reduced, comp, result.k, chosen_reduced));
  }
  result.rounds = rounds;
  for (std::size_t i : chosen_reduced) result.chosen.push_back(kept[i]);
  std::sort(result.chosen.begin(), result.chosen.end());
  return result;
}

}  // namespace chordal::interval
