#include "interval/offline.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

namespace chordal::interval {

std::vector<int> color_optimal(const PathIntervals& rep) {
  const std::size_t n = rep.vertices.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
    if (rep.lo[x] != rep.lo[y]) return rep.lo[x] < rep.lo[y];
    return rep.hi[x] < rep.hi[y];
  });
  std::vector<int> colors(n, -1);
  // Min-heap of (hi, color) for active intervals; free colors in a heap.
  std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                      std::greater<>>
      active;
  std::priority_queue<int, std::vector<int>, std::greater<>> free_colors;
  int next_fresh = 0;
  for (std::size_t i : order) {
    while (!active.empty() && active.top().first < rep.lo[i]) {
      free_colors.push(active.top().second);
      active.pop();
    }
    int c;
    if (!free_colors.empty()) {
      c = free_colors.top();
      free_colors.pop();
    } else {
      c = next_fresh++;
    }
    colors[i] = c;
    active.emplace(rep.hi[i], c);
  }
  return colors;
}

bool is_proper(const PathIntervals& rep, const std::vector<int>& colors) {
  const std::size_t n = rep.vertices.size();
  if (colors.size() != n) return false;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
    return rep.lo[x] < rep.lo[y];
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (colors[order[i]] < 0) return false;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rep.lo[order[j]] > rep.hi[order[i]]) break;
      if (colors[order[i]] == colors[order[j]]) return false;
    }
  }
  return true;
}

}  // namespace chordal::interval
