// Shared helpers for the test suite: the paper's worked example (Figures
// 1-4) and small brute-force oracles used by property tests.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace chordal::testing {

/// The 23-node chordal graph of Figure 1, 0-indexed (paper node i is vertex
/// i-1). Built as the union of its maximal cliques as listed in Figure 2.
inline const std::vector<std::vector<int>>& paper_cliques_1indexed() {
  static const std::vector<std::vector<int>> cliques = {
      {1, 2, 3},    {2, 3, 4},    {4, 5, 6},    {5, 6, 7},   {2, 4, 8},
      {8, 9, 10},   {9, 10, 11},  {11, 12, 13}, {12, 13, 14}, {14, 15, 16},
      {15, 16, 19}, {16, 17, 18}, {19, 20, 21}, {21, 22},     {21, 23}};
  return cliques;
}

inline Graph paper_figure1_graph() {
  GraphBuilder b(23);
  for (const auto& clique : paper_cliques_1indexed()) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        b.add_edge(clique[i] - 1, clique[j] - 1);
      }
    }
  }
  return b.build();
}

/// Exhaustive maximum independent set size; n <= 30 or so.
inline int brute_force_alpha(const Graph& g) {
  const int n = g.num_vertices();
  // Branch and bound on vertices in order; simple but fine for tests.
  std::vector<int> best{0};
  std::vector<char> banned(static_cast<std::size_t>(n), 0);
  auto rec = [&](auto&& self, int v, int size) -> void {
    if (v == n) {
      best[0] = std::max(best[0], size);
      return;
    }
    if (size + (n - v) <= best[0]) return;  // prune
    if (!banned[v]) {
      std::vector<int> newly;
      for (int w : g.neighbors(v)) {
        if (w > v && !banned[w]) {
          banned[w] = 1;
          newly.push_back(w);
        }
      }
      self(self, v + 1, size + 1);
      for (int w : newly) banned[w] = 0;
    }
    self(self, v + 1, size);
  };
  rec(rec, 0, 0);
  return best[0];
}

/// Exhaustive chromatic number; n small.
inline int brute_force_chromatic(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return 0;
  std::vector<int> color(static_cast<std::size_t>(n), -1);
  auto feasible = [&](auto&& self, int v, int limit) -> bool {
    if (v == n) return true;
    for (int c = 0; c < limit; ++c) {
      bool ok = true;
      for (int w : g.neighbors(v)) {
        ok = ok && color[w] != c;
      }
      if (ok) {
        color[v] = c;
        if (self(self, v + 1, limit)) return true;
        color[v] = -1;
      }
    }
    return false;
  };
  for (int limit = 1; limit <= n; ++limit) {
    std::fill(color.begin(), color.end(), -1);
    if (feasible(feasible, 0, limit)) return limit;
  }
  return n;
}

/// True iff `coloring` is a proper coloring of g (every vertex colored >= 0).
inline bool is_proper_coloring(const Graph& g, const std::vector<int>& coloring) {
  if (static_cast<int>(coloring.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (coloring[v] < 0) return false;
    for (int w : g.neighbors(v)) {
      if (coloring[v] == coloring[w]) return false;
    }
  }
  return true;
}

/// True iff `set` (vertex list) is independent in g.
inline bool is_independent_set(const Graph& g, const std::vector<int>& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (g.has_edge(set[i], set[j])) return false;
    }
  }
  return true;
}

/// True if v is simplicial (its neighborhood is a clique) in the subgraph
/// induced by {u : active[u]}; v must be active.
inline bool is_simplicial(const Graph& g, int v,
                          const std::vector<char>& active) {
  if (!active[v]) {
    throw std::invalid_argument("is_simplicial: inactive vertex");
  }
  std::vector<int> nbrs;
  for (int w : g.neighbors(v)) {
    if (active[w]) nbrs.push_back(w);
  }
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
      if (!g.has_edge(nbrs[i], nbrs[j])) return false;
    }
  }
  return true;
}

}  // namespace chordal::testing
