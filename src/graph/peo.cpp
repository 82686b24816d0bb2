#include "graph/peo.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/lexbfs.hpp"

namespace chordal {

EliminationOrder peo_candidate(const Graph& g) {
  EliminationOrder peo;
  peo.order = lexbfs_order(g);
  std::reverse(peo.order.begin(), peo.order.end());
  peo.position.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < peo.order.size(); ++i) {
    peo.position[peo.order[i]] = static_cast<int>(i);
  }
  return peo;
}

bool is_perfect_elimination_order(const Graph& g,
                                  const EliminationOrder& peo) {
  const int n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);
  if (peo.order.size() != un || peo.position.size() != un) return false;
  // order must be a permutation of 0..n-1 and position its inverse; both
  // are caller input, read unchecked below.
  for (int i = 0; i < n; ++i) {
    const int v = peo.order[i];
    if (v < 0 || v >= n || peo.position[v] != i) return false;
  }
  const std::vector<int>& pos = peo.position;
  // Deferred check: for each v, let u = the later neighbor of v closest to v
  // in the order ("follower"). Then the PEO property holds iff
  // N_later(v) \ {u} is always a subset of N(u). The required adjacencies
  // are bucketed by u into one counting-sorted CSR (count, prefix sum,
  // scatter) and verified with one pass over each u's neighborhood.
  std::vector<int> follower(un, -1);
  std::vector<EdgeIndex> start(un + 1, 0);
  for (int v = 0; v < n; ++v) {
    int f = -1;
    EdgeIndex later = 0;
    for (int w : g.neighbors(v)) {
      if (pos[w] <= pos[v]) continue;
      ++later;
      if (f == -1 || pos[w] < pos[f]) f = w;
    }
    if (f == -1) continue;
    follower[v] = f;
    start[f + 1] += later - 1;
  }
  for (int u = 0; u < n; ++u) start[u + 1] += start[u];
  std::vector<int> required(static_cast<std::size_t>(start[n]));
  std::vector<EdgeIndex> fill(start.begin(), start.end() - 1);
  for (int v = 0; v < n; ++v) {
    const int f = follower[v];
    if (f == -1) continue;
    for (int w : g.neighbors(v)) {
      if (pos[w] > pos[v] && w != f) required[fill[f]++] = w;
    }
  }
  // follower is no longer needed: reuse it as the adjacency stamp of u.
  std::vector<int>& mark = follower;
  std::fill(mark.begin(), mark.end(), -1);
  for (int u = 0; u < n; ++u) {
    if (start[u] == start[u + 1]) continue;
    for (int w : g.neighbors(u)) mark[w] = u;
    for (EdgeIndex i = start[u]; i < start[u + 1]; ++i) {
      if (mark[required[i]] != u) return false;
    }
  }
  return true;
}

bool is_chordal(const Graph& g) {
  return is_perfect_elimination_order(g, peo_candidate(g));
}

EliminationOrder peo_or_throw(const Graph& g) {
  EliminationOrder peo = peo_candidate(g);
  if (!is_perfect_elimination_order(g, peo)) {
    throw std::invalid_argument("peo_or_throw: graph is not chordal");
  }
  return peo;
}

}  // namespace chordal
