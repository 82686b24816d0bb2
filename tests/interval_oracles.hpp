// Reference implementations of the interval layer solves, kept as test
// oracles for the flat production code:
//  - model_by_sorting: the interval model by concatenating every clique
//    word of the sequence and sorting the union, then one position sweep;
//  - omega_by_events: omega by sorting 2n +1/-1 events;
//  - extend_coloring_recursive: the Lemma 9 window solver as a recursive
//    search with per-node vectors and a fresh solver per attempt.
// The production forms (interval_model, interval::omega and
// interval::extend_coloring) must agree with these bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cliqueforest/paths.hpp"
#include "interval/window_recolor.hpp"

namespace chordal::testing {

/// Interval model of the clique sequence `order`: the sorted union, then
/// the first and last position whose clique contains each vertex.
inline PathIntervals model_by_sorting(const CliqueFamily& family,
                                      std::span<const int> order) {
  PathIntervals out;
  out.num_positions = static_cast<int>(order.size());
  for (int c : order) {
    CliqueWord word = family[static_cast<std::size_t>(c)];
    out.vertices.insert(out.vertices.end(), word.begin(), word.end());
  }
  std::sort(out.vertices.begin(), out.vertices.end());
  out.vertices.erase(std::unique(out.vertices.begin(), out.vertices.end()),
                     out.vertices.end());
  const std::size_t n = out.vertices.size();
  out.lo.assign(n, 0);
  out.hi.assign(n, -1);
  std::unordered_map<int, std::size_t> slot;
  for (std::size_t i = 0; i < n; ++i) slot[out.vertices[i]] = i;
  for (int p = 0; p < out.num_positions; ++p) {
    for (VertexId v : family[static_cast<std::size_t>(order[p])]) {
      const std::size_t i = slot.at(static_cast<int>(v));
      if (out.hi[i] == -1) out.lo[i] = p;
      out.hi[i] = p;
    }
  }
  return out;
}

/// Maximum number of pairwise overlapping intervals, by an event sort.
inline int omega_by_events(const PathIntervals& rep) {
  std::vector<std::pair<int, int>> events;
  events.reserve(2 * rep.vertices.size());
  for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
    events.emplace_back(rep.lo[i], +1);
    events.emplace_back(rep.hi[i] + 1, -1);
  }
  std::sort(events.begin(), events.end());
  int active = 0, best = 0;
  for (auto [pos, delta] : events) {
    active += delta;
    best = std::max(best, active);
  }
  return best;
}

namespace recursive_solver {

struct Solver {
  const PathIntervals& rep;
  const std::vector<int>& fixed;
  int palette;
  std::int64_t budget;
  interval::RecolorStats* stats;
  int rotation;

  std::vector<std::vector<int>> neighbors;
  std::vector<int> assignment;
  std::vector<std::size_t> free_order;
  std::vector<std::vector<int>> fixed_use;

  bool exhausted = false;

  Solver(const interval::RecolorProblem& p, interval::RecolorStats* s,
         std::int64_t node_budget, int restart)
      : rep(p.rep), fixed(p.fixed), palette(p.palette),
        budget(node_budget), stats(s), rotation(restart) {
    const std::size_t n = rep.vertices.size();
    if (fixed.size() != n) {
      throw std::invalid_argument("extend_coloring: fixed size mismatch");
    }
    neighbors.assign(n, {});
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::size_t x, std::size_t y) {
                return rep.lo[x] < rep.lo[y];
              });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rep.lo[order[j]] > rep.hi[order[i]]) break;
        neighbors[order[i]].push_back(static_cast<int>(order[j]));
        neighbors[order[j]].push_back(static_cast<int>(order[i]));
      }
    }
    assignment.assign(n, -1);
    fixed_use.assign(static_cast<std::size_t>(palette), {});
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed[v] >= 0) {
        if (fixed[v] >= palette) {
          throw std::invalid_argument(
              "extend_coloring: fixed color outside palette");
        }
        assignment[v] = fixed[v];
        fixed_use[fixed[v]].push_back(rep.lo[v]);
      } else {
        free_order.push_back(v);
      }
    }
    for (auto& uses : fixed_use) std::sort(uses.begin(), uses.end());
    if (rotation == 0) {
      std::sort(free_order.begin(), free_order.end(),
                [this](std::size_t x, std::size_t y) {
                  if (rep.lo[x] != rep.lo[y]) return rep.lo[x] < rep.lo[y];
                  return rep.hi[x] < rep.hi[y];
                });
    } else {
      std::vector<int> gap(n, 1 << 28);
      std::vector<std::size_t> fixed_list;
      for (std::size_t v = 0; v < n; ++v) {
        if (fixed[v] >= 0) fixed_list.push_back(v);
      }
      for (std::size_t v : free_order) {
        for (std::size_t w : fixed_list) {
          int d = std::max({0, rep.lo[v] - rep.hi[w],
                            rep.lo[w] - rep.hi[v]});
          gap[v] = std::min(gap[v], d);
        }
      }
      std::sort(free_order.begin(), free_order.end(),
                [this, &gap](std::size_t x, std::size_t y) {
                  if (gap[x] != gap[y]) return gap[x] < gap[y];
                  if (rep.lo[x] != rep.lo[y]) return rep.lo[x] < rep.lo[y];
                  return rep.hi[x] < rep.hi[y];
                });
    }
  }

  int next_fixed_use_after(int c, int hi) const {
    const auto& uses = fixed_use[c];
    auto it = std::upper_bound(uses.begin(), uses.end(), hi);
    return it == uses.end() ? rep.num_positions + 1 : *it;
  }

  bool solve(std::size_t idx) {
    if (idx == free_order.size()) return true;
    if (exhausted) return false;
    std::size_t v = free_order[idx];
    std::vector<char> blocked(static_cast<std::size_t>(palette), 0);
    for (int u : neighbors[v]) {
      if (assignment[u] >= 0) blocked[assignment[u]] = 1;
    }
    std::vector<std::tuple<int, int, int>> candidates;
    for (int c = 0; c < palette; ++c) {
      if (!blocked[c]) {
        candidates.emplace_back(-next_fixed_use_after(c, rep.hi[v]),
                                (c + rotation * 7) % palette, c);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (auto [key, tie, c] : candidates) {
      (void)key;
      (void)tie;
      if (--budget <= 0) {
        exhausted = true;
        return false;
      }
      if (stats != nullptr) {
        ++stats->backtrack_nodes;
      }
      assignment[v] = c;
      if (solve(idx + 1)) return true;
      assignment[v] = -1;
      if (stats != nullptr) stats->used_backtracking = true;
      if (exhausted) return false;
    }
    return false;
  }
};

}  // namespace recursive_solver

/// The recursive window solver: same contract as interval::extend_coloring.
inline std::optional<std::vector<int>> extend_coloring_recursive(
    const interval::RecolorProblem& problem,
    interval::RecolorStats* stats = nullptr,
    std::int64_t node_budget = 4'000'000) {
  if (problem.palette <= 0) {
    throw std::invalid_argument("extend_coloring: empty palette");
  }
  constexpr int kRestarts = 6;
  for (int attempt = 0; attempt < kRestarts; ++attempt) {
    std::int64_t slice =
        attempt == 0 ? node_budget / 2
                     : node_budget / (2 * (kRestarts - 1));
    recursive_solver::Solver solver(
        problem, stats, std::max<std::int64_t>(slice, 1000), attempt);
    if (attempt == 0) {
      const std::size_t n = problem.rep.vertices.size();
      for (std::size_t v = 0; v < n; ++v) {
        if (problem.fixed[v] < 0) continue;
        for (int u : solver.neighbors[v]) {
          if (problem.fixed[u] >= 0 &&
              problem.fixed[u] == problem.fixed[v]) {
            throw std::invalid_argument(
                "extend_coloring: precoloring is not proper");
          }
        }
      }
    }
    if (solver.solve(0)) return solver.assignment;
    if (!solver.exhausted) return std::nullopt;
    if (stats != nullptr) stats->used_backtracking = true;
  }
  return std::nullopt;
}

}  // namespace chordal::testing
