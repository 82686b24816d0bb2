#include "interval/col_int_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "interval/offline.hpp"
#include "interval/window_recolor.hpp"
#include "local/ruling_set.hpp"

namespace chordal::interval {

namespace {

/// Colors one connected component; returns rounds spent and updates
/// `colors` (indexed by the component's local indices within `rep`).
std::int64_t color_component(const PathIntervals& rep,
                             const std::vector<std::size_t>& comp, int k,
                             std::vector<int>& colors, int* violations) {
  PathIntervals sub = restrict(rep, comp);
  const std::size_t n = comp.size();
  int w = omega(sub);

  PathScratch scratch;
  int diam = interval_diameter(sub, scratch);
  if (diam <= 10 * k) {
    // The whole component fits in one O(k) ball: color optimally.
    auto local = color_optimal(sub);
    for (std::size_t i = 0; i < n; ++i) colors[comp[i]] = local[i];
    return diam + 1;
  }

  const int spacing = k + 6;
  auto ruling = chordal::local::distance_k_mis_interval(sub, spacing);
  // Anchors in left-to-right order; their columns are the cliques crossing
  // the anchors' right endpoints.
  std::vector<int> cuts;
  cuts.reserve(ruling.anchors.size());
  for (std::size_t a : ruling.anchors) cuts.push_back(sub.hi[a]);
  std::sort(cuts.begin(), cuts.end());

  // Column assignment: vertex -> index of the cut it crosses (-1 if none).
  // Anchors are pairwise > k+6 apart, so no vertex crosses two cuts.
  std::vector<int> column(n, -1);
  std::vector<std::vector<std::size_t>> column_members(cuts.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto it = std::lower_bound(cuts.begin(), cuts.end(), sub.lo[i]);
    if (it != cuts.end() && *it <= sub.hi[i]) {
      column[i] = static_cast<int>(it - cuts.begin());
      column_members[column[i]].push_back(i);
    }
  }
  std::vector<int> local_colors(n, -1);
  for (auto& members : column_members) {
    // Canonical clique coloring: sort by global vertex id.
    std::sort(members.begin(), members.end(),
              [&sub](std::size_t x, std::size_t y) {
                return sub.vertices[x] < sub.vertices[y];
              });
    int c = 0;
    for (std::size_t i : members) local_colors[i] = c++;
  }

  // Gap g holds non-column vertices strictly between cut g-1 and cut g
  // (g = 0: before the first cut; g = cuts.size(): after the last).
  std::vector<std::vector<std::size_t>> gap_members(cuts.size() + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (column[i] != -1) continue;
    auto it = std::lower_bound(cuts.begin(), cuts.end(), sub.lo[i]);
    gap_members[it - cuts.begin()].push_back(i);
  }

  for (std::size_t g = 0; g < gap_members.size(); ++g) {
    if (gap_members[g].empty()) continue;
    // Window = free gap vertices + the fixed boundary columns.
    std::vector<std::size_t> window = gap_members[g];
    if (g > 0) {
      window.insert(window.end(), column_members[g - 1].begin(),
                    column_members[g - 1].end());
    }
    if (g < cuts.size()) {
      window.insert(window.end(), column_members[g].begin(),
                    column_members[g].end());
    }
    std::sort(window.begin(), window.end());
    RecolorProblem problem;
    problem.rep = restrict(sub, window);
    problem.fixed.assign(window.size(), -1);
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (column[window[i]] != -1) problem.fixed[i] = local_colors[window[i]];
    }
    int w_window = omega(problem.rep);
    problem.palette = w_window + w_window / k + 1;
    for (;;) {
      auto solved = extend_coloring(problem);
      if (solved.has_value()) {
        for (std::size_t i = 0; i < window.size(); ++i) {
          local_colors[window[i]] = (*solved)[i];
        }
        break;
      }
      // Lemma 9 says this cannot happen; widen and record if it does.
      ++problem.palette;
      ++*violations;
      if (problem.palette > 2 * w + 2) {
        throw std::logic_error("col_int_graph: window unsolvable");
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) colors[comp[i]] = local_colors[i];
  // Column formation and window solving touch O(k)-balls only.
  return ruling.rounds + 4 * static_cast<std::int64_t>(k) + 2;
}

}  // namespace

DistColoringResult col_int_graph(const PathIntervals& rep, int k) {
  if (k < 2) throw std::invalid_argument("col_int_graph: k < 2");
  DistColoringResult result;
  result.colors.assign(rep.vertices.size(), -1);
  result.omega = omega(rep);
  result.color_bound = result.omega + result.omega / k + 1;
  for (const auto& comp : components(rep)) {
    std::int64_t rounds = color_component(rep, comp, k, result.colors,
                                          &result.palette_violations);
    result.rounds = std::max(result.rounds, rounds);
  }
  int max_color = -1;
  for (int c : result.colors) max_color = std::max(max_color, c);
  std::vector<char> used(static_cast<std::size_t>(max_color) + 1, 0);
  for (int c : result.colors) {
    if (c >= 0) used[c] = 1;
  }
  result.num_colors = static_cast<int>(
      std::count(used.begin(), used.end(), static_cast<char>(1)));
  return result;
}

}  // namespace chordal::interval
