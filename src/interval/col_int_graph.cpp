#include "interval/col_int_graph.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "interval/offline.hpp"

namespace chordal::interval {

namespace {

/// Counting sort of the indices 0..key.size()-1 by key into `members`,
/// ascending within a key; key b's indices are members[off[b] .. off[b+1]).
void bucket_by(const std::vector<int>& key, std::size_t buckets,
               std::vector<std::size_t>& off,
               std::vector<std::size_t>& members) {
  off.assign(buckets + 1, 0);
  for (int b : key) ++off[static_cast<std::size_t>(b) + 1];
  for (std::size_t b = 0; b < buckets; ++b) off[b + 1] += off[b];
  members.resize(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) {
    members[off[static_cast<std::size_t>(key[i])]++] = i;
  }
  for (std::size_t b = buckets; b > 0; --b) off[b] = off[b - 1];
  off[0] = 0;
}

/// Colors one connected component; returns rounds spent and updates
/// `colors` (indexed by the component's local indices within `rep`).
std::int64_t color_component(const PathIntervals& rep,
                             std::span<const std::size_t> comp, int k,
                             ColIntScratch& s, std::vector<int>& colors,
                             int* violations) {
  restrict(rep, comp, s.sub);
  const PathIntervals& sub = s.sub;
  const std::size_t n = comp.size();
  int w = omega(sub, s.counts);

  int diam = interval_diameter(sub, s.paths);
  if (diam <= 10 * k) {
    // The whole component fits in one O(k) ball: color optimally.
    auto local = color_optimal(sub);
    for (std::size_t i = 0; i < n; ++i) colors[comp[i]] = local[i];
    return diam + 1;
  }

  const int spacing = k + 6;
  auto ruling =
      chordal::local::distance_k_mis_interval(sub, spacing, s.ruling);
  // Anchors in left-to-right order; their columns are the cliques crossing
  // the anchors' right endpoints.
  std::vector<int>& cuts = s.cuts;
  cuts.clear();
  for (std::size_t a : ruling.anchors) cuts.push_back(sub.hi[a]);
  std::sort(cuts.begin(), cuts.end());

  // Each vertex's slot, in left-to-right order: 2c + 1 for the column of
  // cut c (the vertices crossing it; anchors are pairwise > k+6 apart, so
  // no vertex crosses two cuts), 2g for gap g - the other vertices strictly
  // between cut g-1 and cut g (g = 0: before the first cut; g = cuts.size():
  // after the last).
  std::vector<int>& slot = s.slot;
  slot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = std::lower_bound(cuts.begin(), cuts.end(), sub.lo[i]);
    const int at = static_cast<int>(it - cuts.begin());
    slot[i] = it != cuts.end() && *it <= sub.hi[i] ? 2 * at + 1 : 2 * at;
  }
  const std::vector<std::size_t>& off = s.slot_off;
  std::vector<std::size_t>& members = s.slot_members;
  bucket_by(slot, 2 * cuts.size() + 1, s.slot_off, members);
  auto segment = [&off, &members](std::size_t first, std::size_t last) {
    return std::span<std::size_t>(members.data() + off[first],
                                  off[last] - off[first]);
  };
  // Canonical clique coloring: each column by global vertex id.
  std::vector<int>& local_colors = s.local_colors;
  local_colors.assign(n, -1);
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    std::span<std::size_t> column = segment(2 * c + 1, 2 * c + 2);
    std::sort(column.begin(), column.end(),
              [&sub](std::size_t x, std::size_t y) {
                return sub.vertices[x] < sub.vertices[y];
              });
    for (std::size_t j = 0; j < column.size(); ++j) {
      local_colors[column[j]] = static_cast<int>(j);
    }
  }

  for (std::size_t g = 0; g <= cuts.size(); ++g) {
    if (off[2 * g] == off[2 * g + 1]) continue;
    // Window = free gap vertices + the fixed boundary columns, which are
    // the slots on either side.
    const std::span<std::size_t> window =
        segment(g > 0 ? 2 * g - 1 : 0, std::min(2 * g + 2, off.size() - 1));
    s.window.assign(window.begin(), window.end());
    std::sort(s.window.begin(), s.window.end());
    restrict(sub, s.window, s.window_rep);
    s.fixed.assign(s.window.size(), -1);
    for (std::size_t i = 0; i < s.window.size(); ++i) {
      if (slot[s.window[i]] % 2 == 1) s.fixed[i] = local_colors[s.window[i]];
    }
    int w_window = omega(s.window_rep, s.counts);
    int palette = w_window + w_window / k + 1;
    while (!extend_coloring(s.window_rep, s.fixed, palette, s.solver,
                            s.solved)) {
      // Lemma 9 says this cannot happen; widen and record if it does.
      ++palette;
      ++*violations;
      if (palette > 2 * w + 2) {
        throw std::logic_error("col_int_graph: window unsolvable");
      }
    }
    for (std::size_t i = 0; i < s.window.size(); ++i) {
      local_colors[s.window[i]] = s.solved[i];
    }
  }

  for (std::size_t i = 0; i < n; ++i) colors[comp[i]] = local_colors[i];
  // Column formation and window solving touch O(k)-balls only.
  return ruling.rounds + 4 * static_cast<std::int64_t>(k) + 2;
}

}  // namespace

DistColoringResult col_int_graph(const PathIntervals& rep, int k,
                                 ColIntScratch& scratch) {
  if (k < 2) throw std::invalid_argument("col_int_graph: k < 2");
  DistColoringResult result;
  result.colors.assign(rep.vertices.size(), -1);
  result.omega = omega(rep, scratch.counts);
  result.color_bound = result.omega + result.omega / k + 1;
  components(rep, scratch.comps);
  for (std::size_t c = 0; c < scratch.comps.size(); ++c) {
    std::int64_t rounds =
        color_component(rep, scratch.comps[c], k, scratch, result.colors,
                        &result.palette_violations);
    result.rounds = std::max(result.rounds, rounds);
  }
  int max_color = -1;
  for (int c : result.colors) max_color = std::max(max_color, c);
  std::vector<int>& used = scratch.counts;
  used.assign(static_cast<std::size_t>(max_color) + 1, 0);
  for (int c : result.colors) {
    if (c >= 0) used[c] = 1;
  }
  result.num_colors = static_cast<int>(std::count(used.begin(), used.end(), 1));
  return result;
}

DistColoringResult col_int_graph(const PathIntervals& rep, int k) {
  ColIntScratch scratch;
  return col_int_graph(rep, k, scratch);
}

}  // namespace chordal::interval
