// Test-only reference implementations of Lex-BFS and the PEO verifier, kept
// as the oracles `lexbfs_order` and `is_perfect_elimination_order` are
// differentially tested against. The Lex-BFS keeps each partition class in
// a std::set (O(m log n)); the verifier buckets the deferred adjacency
// checks in a vector of vectors and assumes a well-formed order.
#pragma once

#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "graph/peo.hpp"

namespace chordal::testing {

// Partition-refinement Lex-BFS. Groups of vertices with equal labels are kept
// in a doubly linked list ordered by label (lexicographically largest label
// first). Each group stores its members in an ordered set so that tie-breaks
// are by vertex id, making the order fully deterministic.
inline std::vector<int> lexbfs_order_oracle(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (n == 0) return order;

  struct Group {
    std::set<int> members;
    int prev = -1;
    int next = -1;
  };
  std::vector<Group> groups;
  groups.reserve(static_cast<std::size_t>(n) + 1);
  groups.emplace_back();
  int head = 0;
  for (int v = 0; v < n; ++v) groups[0].members.insert(v);

  std::vector<int> group_of(static_cast<std::size_t>(n), 0);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  // For the current pivot: split_target[g] = group created in front of g.
  std::vector<int> split_target(static_cast<std::size_t>(n) + 1, -1);
  std::vector<int> split_stamp(static_cast<std::size_t>(n) + 1, -1);

  for (int step = 0; step < n; ++step) {
    // Drop empty leading groups.
    while (head != -1 && groups[head].members.empty()) head = groups[head].next;
    int pivot = *groups[head].members.begin();
    groups[head].members.erase(groups[head].members.begin());
    visited[pivot] = 1;
    order.push_back(pivot);

    for (int w : g.neighbors(pivot)) {
      if (visited[w]) continue;
      int gw = group_of[w];
      if (split_stamp[gw] != step) {
        // Create a new group immediately in front of gw (larger label).
        split_stamp[gw] = step;
        groups.emplace_back();
        int ng = static_cast<int>(groups.size()) - 1;
        split_target[gw] = ng;
        groups[ng].prev = groups[gw].prev;
        groups[ng].next = gw;
        if (groups[gw].prev != -1) groups[groups[gw].prev].next = ng;
        groups[gw].prev = ng;
        if (head == gw) head = ng;
        if (split_stamp.size() < groups.size() + 1) {
          split_stamp.resize(groups.size() + 1, -1);
          split_target.resize(groups.size() + 1, -1);
        }
      }
      int ng = split_target[gw];
      groups[gw].members.erase(w);
      groups[ng].members.insert(w);
      group_of[w] = ng;
    }
  }
  return order;
}

inline bool is_perfect_elimination_order_oracle(
    const Graph& g, const EliminationOrder& peo) {
  const int n = g.num_vertices();
  if (static_cast<int>(peo.order.size()) != n) return false;
  // Deferred check: for each v, let u = the later neighbor of v closest to v
  // in the order ("follower"). Then the PEO property holds iff
  // N_later(v) \ {u} is always a subset of N(u). Accumulate the required
  // adjacencies at u and verify them with one pass over u's neighborhood.
  std::vector<std::vector<int>> required(static_cast<std::size_t>(n));
  for (int v : peo.order) {
    int follower = -1;
    for (int w : g.neighbors(v)) {
      if (peo.position[w] <= peo.position[v]) continue;
      if (follower == -1 || peo.position[w] < peo.position[follower]) {
        follower = w;
      }
    }
    if (follower == -1) continue;
    for (int w : g.neighbors(v)) {
      if (peo.position[w] > peo.position[v] && w != follower) {
        required[follower].push_back(w);
      }
    }
  }
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    if (required[u].empty()) continue;
    for (int w : g.neighbors(u)) mark[w] = 1;
    bool ok = true;
    for (int w : required[u]) ok = ok && mark[w];
    for (int w : g.neighbors(u)) mark[w] = 0;
    if (!ok) return false;
  }
  return true;
}

}  // namespace chordal::testing
