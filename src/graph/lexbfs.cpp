#include "graph/lexbfs.hpp"

namespace chordal {

// Partition refinement. Classes (vertices with equal labels) sit in a doubly
// linked list, lexicographically largest label first; each class holds its
// members in a doubly linked list. Visiting a pivot moves every unvisited
// neighbor w out of its class c into a class created immediately in front
// of c (one new class per c per pivot).
//
// Tie-break invariant: every class lists its members in ascending id. The
// initial class is 0..n-1; removals keep a list sorted; and a class created
// for the current pivot receives its members in the order of the pivot's
// CSR row, which is ascending. So the next pivot, the smallest id of the
// first class, is the head of the first class.
//
// A class is freed the moment it empties and reused from a free list, so
// there are never more than n + 1 class slots.
std::vector<int> lexbfs_order(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (n == 0) return order;

  const auto un = static_cast<std::size_t>(n);
  // Members: next/prev within the class; class_of[v] == -1 once visited.
  std::vector<int> next(un), prev(un), class_of(un, 0);
  // Classes: first/last member, neighbors in the class list, and for the
  // current pivot the class split off in front of this one.
  std::vector<int> first(un + 1), last(un + 1), cnext(un + 1), cprev(un + 1);
  std::vector<int> split_stamp(un + 1, -1), split_target(un + 1);

  for (int v = 0; v < n; ++v) {
    prev[v] = v - 1;
    next[v] = v + 1 < n ? v + 1 : -1;
  }
  first[0] = 0;
  last[0] = n - 1;
  cprev[0] = cnext[0] = -1;
  int head = 0;
  // Free class slots are chained through cnext.
  int free_head = 1;
  for (int c = 1; c <= n; ++c) cnext[c] = c < n ? c + 1 : -1;

  auto unlink = [&](int v, int c) {
    (prev[v] != -1 ? next[prev[v]] : first[c]) = next[v];
    (next[v] != -1 ? prev[next[v]] : last[c]) = prev[v];
    if (first[c] != -1) return;
    // c is empty: drop it from the class list and recycle its slot.
    (cprev[c] != -1 ? cnext[cprev[c]] : head) = cnext[c];
    if (cnext[c] != -1) cprev[cnext[c]] = cprev[c];
    cnext[c] = free_head;
    free_head = c;
  };

  for (int step = 0; step < n; ++step) {
    const int pivot = first[head];
    unlink(pivot, head);
    class_of[pivot] = -1;
    order.push_back(pivot);

    for (int w : g.neighbors(pivot)) {
      const int c = class_of[w];
      if (c == -1) continue;
      if (split_stamp[c] != step) {
        split_stamp[c] = step;
        const int nc = free_head;
        free_head = cnext[nc];
        first[nc] = last[nc] = -1;
        cprev[nc] = cprev[c];
        cnext[nc] = c;
        (cprev[c] != -1 ? cnext[cprev[c]] : head) = nc;
        cprev[c] = nc;
        split_target[c] = nc;
      }
      const int nc = split_target[c];
      // Unlinking may free c; nc is already linked in front of c and
      // stays put.
      unlink(w, c);
      prev[w] = last[nc];
      next[w] = -1;
      (last[nc] != -1 ? next[last[nc]] : first[nc]) = w;
      last[nc] = w;
      class_of[w] = nc;
    }
  }
  return order;
}

}  // namespace chordal
