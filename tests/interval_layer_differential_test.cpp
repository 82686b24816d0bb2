// Differential tests of the flat interval layer solves against the
// reference implementations in interval_oracles.hpp: the one-pass interval
// model against the concatenate-and-sort builder, omega by counting against
// the event sort, and the flat window solver against the recursive one.
// Each production call reuses one warm scratch across all cases, so state
// left over from a larger or different case would show up as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "cliqueforest/paths.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "interval/rep.hpp"
#include "interval/window_recolor.hpp"
#include "interval_oracles.hpp"
#include "local/workspace.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

void expect_same_model(const PathIntervals& got, const PathIntervals& want,
                       const std::string& where) {
  EXPECT_EQ(got.num_positions, want.num_positions) << where;
  EXPECT_EQ(got.vertices, want.vertices) << where;
  EXPECT_EQ(got.lo, want.lo) << where;
  EXPECT_EQ(got.hi, want.hi) << where;
}

/// The owned set by its definition: union vertices whose active cliques
/// all lie on the path.
std::vector<int> owned_by_definition(const CliqueForest& forest,
                                     const std::vector<char>& active,
                                     const ForestPath& path) {
  const PathIntervals model =
      testing::model_by_sorting(forest.cliques(), path.cliques);
  std::vector<int> owned;
  for (int v : model.vertices) {
    bool inside = true;
    for (CliqueId c : forest.cliques_of(v)) {
      if (active[c] && std::find(path.cliques.begin(), path.cliques.end(),
                                 static_cast<int>(c)) == path.cliques.end()) {
        inside = false;
      }
    }
    if (inside) owned.push_back(v);
  }
  return owned;
}

/// Checks every maximal binary path of the forest (fully active, and at
/// the second peel iteration) against the oracles, through one scratch.
void check_forest_paths(const Graph& g, const std::string& label,
                        PathScratch& scratch) {
  CliqueForest forest = CliqueForest::build(g);
  core::PeelConfig config;
  config.mode = core::PeelMode::kColoring;
  config.k = 2;
  const core::PeelingResult peeling = core::peel(g, forest, config);
  std::vector<int> owned;
  for (int iter = 1; iter <= std::min(2, peeling.num_layers); ++iter) {
    const std::vector<char> active =
        testing::active_at(forest, peeling, iter);
    for (const ForestPath& path : maximal_binary_paths(forest, active)) {
      const std::string where = label + " iter " + std::to_string(iter);
      interval_model(forest.cliques(), path.cliques, scratch, scratch.rep);
      expect_same_model(scratch.rep,
                        testing::model_by_sorting(forest.cliques(),
                                                  path.cliques),
                        where);
      path_owned_vertices(forest, active, path, scratch, owned);
      EXPECT_EQ(owned, owned_by_definition(forest, active, path)) << where;
    }
  }
}

TEST(IntervalLayerDifferential, ModelMatchesSortingBuilderOnCliqueTrees) {
  PathScratch scratch;
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kRandom,
                          TreeShape::kCaterpillar, TreeShape::kSpider}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
      CliqueTreeConfig config;
      config.num_bags = 60;
      config.shape = shape;
      config.seed = seed;
      check_forest_paths(random_chordal_from_clique_tree(config).graph,
                         "shape " + std::to_string(static_cast<int>(shape)) +
                             " seed " + std::to_string(seed),
                         scratch);
    }
  }
}

TEST(IntervalLayerDifferential, ModelMatchesSortingBuilderOnIntervalAndKTrees) {
  PathScratch scratch;
  for (std::uint64_t seed : {1u, 4u, 9u}) {
    auto gen = random_interval({.n = 300, .window = 400.0, .min_len = 1.0,
                                .max_len = 12.0, .seed = seed});
    check_forest_paths(gen.graph, "interval seed " + std::to_string(seed),
                       scratch);
    for (int k : {2, 3, 5}) {
      check_forest_paths(streaming_k_tree(400, k, seed),
                         "k-tree k " + std::to_string(k) + " seed " +
                             std::to_string(seed),
                         scratch);
    }
  }
}

/// Every maximal chain of view cliques with view-forest degree <= 2, in
/// forest order - the sequences the per-node decisions model.
std::vector<std::vector<int>> view_chains(const LocalView& view) {
  const int m = static_cast<int>(view.cliques.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(m));
  for (auto [a, b] : view.forest_edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  auto binary = [&adj](int c) { return adj[c].size() <= 2; };
  std::vector<char> used(static_cast<std::size_t>(m), 0);
  std::vector<std::vector<int>> chains;
  for (int c = 0; c < m; ++c) {
    if (used[c] || !binary(c)) continue;
    int binary_nbrs = 0;
    for (int d : adj[c]) binary_nbrs += binary(d) ? 1 : 0;
    if (binary_nbrs > 1) continue;  // interior; reached from an end
    std::vector<int> chain;
    for (int prev = -1, cur = c; cur != -1;) {
      used[cur] = 1;
      chain.push_back(cur);
      int next = -1;
      for (int d : adj[cur]) {
        if (d != prev && binary(d)) next = d;
      }
      prev = cur;
      cur = next;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

TEST(IntervalLayerDifferential, ModelMatchesSortingBuilderOnLocalViewChains) {
  PathScratch scratch;
  local::BallWorkspace ws;
  LocalView view;
  int chains = 0;
  for (TreeShape shape : {TreeShape::kCaterpillar, TreeShape::kSpider,
                          TreeShape::kRandom}) {
    for (std::uint64_t seed : {2u, 7u}) {
      CliqueTreeConfig config;
      config.num_bags = 50;
      config.shape = shape;
      config.seed = seed;
      const Graph g = random_chordal_from_clique_tree(config).graph;
      for (int v = 0; v < g.num_vertices(); v += 7) {
        for (int radius : {3, 8}) {
          local::compute_local_view(g, v, radius, nullptr, ws, view);
          for (const std::vector<int>& chain : view_chains(view)) {
            interval_model(view.cliques, chain, scratch, scratch.rep);
            expect_same_model(
                scratch.rep, testing::model_by_sorting(view.cliques, chain),
                "observer " + std::to_string(v));
            ++chains;
          }
        }
      }
    }
  }
  EXPECT_GT(chains, 100);
}

TEST(IntervalLayerDifferential, ModelOfScatteredRunsIsTheirHull) {
  // Not a clique-tree path: vertex 1 sits in positions 0 and 2 but not 1.
  CliqueFamily family(std::vector<std::vector<int>>{{0, 1}, {0, 2}, {1, 3}});
  const int order[] = {0, 1, 2};
  PathScratch scratch;
  interval_model(family, order, scratch, scratch.rep);
  expect_same_model(scratch.rep, testing::model_by_sorting(family, order),
                    "scattered");
  EXPECT_EQ(scratch.rep.lo[1], 0);
  EXPECT_EQ(scratch.rep.hi[1], 2);
}

TEST(IntervalLayerDifferential, OmegaMatchesEventSort) {
  std::vector<int> counts;
  PathIntervals empty;
  EXPECT_EQ(interval::omega(empty, counts), 0);
  EXPECT_EQ(testing::omega_by_events(empty), 0);
  PathIntervals single;
  single.vertices = {7};
  single.lo = {5};
  single.hi = {9};
  single.num_positions = 12;
  EXPECT_EQ(interval::omega(single, counts), 1);
  EXPECT_EQ(testing::omega_by_events(single), 1);

  Rng rng(20261019);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(60));
    auto gen = random_interval(
        {.n = n, .window = 10.0 + static_cast<double>(rng.next_below(200)),
         .min_len = 0.5,
         .max_len = 1.0 + static_cast<double>(rng.next_below(20)),
         .seed = static_cast<std::uint64_t>(trial) + 1});
    // Positions are endpoint ranks, up to 2n - 1.
    const PathIntervals rep = interval::from_geometry(gen.left, gen.right);
    EXPECT_EQ(interval::omega(rep, counts), testing::omega_by_events(rep))
        << "trial " << trial;
    // Sub-models keep their positions, so they need not start at 0.
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
      if (rng.next_below(3) != 0 && rep.lo[i] > 0) keep.push_back(i);
    }
    const PathIntervals sub = interval::restrict(rep, keep);
    EXPECT_EQ(interval::omega(sub, counts), testing::omega_by_events(sub))
        << "trial " << trial;
    const interval::Components comps = interval::components(rep);
    for (std::size_t c = 0; c < comps.size(); ++c) {
      const PathIntervals part = interval::restrict(rep, comps[c]);
      EXPECT_EQ(interval::omega(part, counts),
                testing::omega_by_events(part))
          << "trial " << trial << " component " << c;
    }
  }
}

/// What one solver run showed: the completion or nullopt, the stats, or
/// the exception message.
struct SolveOutcome {
  std::optional<std::vector<int>> colors;
  interval::RecolorStats stats;
  std::string error;
};

/// Runs both solvers on one problem, expects the same outcome and returns
/// it.
SolveOutcome expect_same_solve(const interval::RecolorProblem& problem,
                               std::int64_t budget,
                               interval::WindowScratch& scratch,
                               const std::string& where) {
  SolveOutcome want;
  try {
    want.colors =
        testing::extend_coloring_recursive(problem, &want.stats, budget);
  } catch (const std::invalid_argument& e) {
    want.error = e.what();
  }
  SolveOutcome got;
  std::vector<int> colors;
  try {
    if (interval::extend_coloring(problem.rep, problem.fixed,
                                  problem.palette, scratch, colors,
                                  &got.stats, budget)) {
      got.colors = colors;
    }
  } catch (const std::invalid_argument& e) {
    got.error = e.what();
  }
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.colors, want.colors) << where;
  EXPECT_EQ(got.stats.backtrack_nodes, want.stats.backtrack_nodes) << where;
  EXPECT_EQ(got.stats.used_backtracking, want.stats.used_backtracking)
      << where;
  return want;
}

/// A random window: n intervals over `width` positions, the vertices of
/// the two end columns fixed by a proper coloring drawn from [0, palette).
interval::RecolorProblem random_window(Rng& rng, int n, int width,
                                       int palette_slack) {
  interval::RecolorProblem problem;
  PathIntervals& rep = problem.rep;
  rep.num_positions = width;
  for (int i = 0; i < n; ++i) {
    const int lo = static_cast<int>(rng.next_below(width));
    const int len = static_cast<int>(rng.next_below(4));
    rep.vertices.push_back(100 + i);
    rep.lo.push_back(lo);
    rep.hi.push_back(std::min(width - 1, lo + len));
  }
  const int w = interval::omega(rep);
  problem.palette = std::max(1, w + palette_slack);
  problem.fixed.assign(static_cast<std::size_t>(n), -1);
  // Fix the columns crossing the first and last occupied positions, each
  // an injection into the palette (so the precoloring stays proper unless
  // the columns overlap).
  for (int pos : {0, width - 1}) {
    std::vector<int> colors(static_cast<std::size_t>(problem.palette));
    for (int c = 0; c < problem.palette; ++c) colors[c] = c;
    for (int c = problem.palette - 1; c > 0; --c) {
      std::swap(colors[c], colors[rng.next_below(c + 1)]);
    }
    std::size_t next = 0;
    for (int i = 0; i < n; ++i) {
      if (rep.lo[i] <= pos && pos <= rep.hi[i] && problem.fixed[i] < 0 &&
          next < colors.size()) {
        problem.fixed[i] = colors[next++];
      }
    }
  }
  return problem;
}

TEST(IntervalLayerDifferential, SolverMatchesRecursiveOracle) {
  interval::WindowScratch scratch;
  Rng rng(97);
  int infeasible = 0, backtracked = 0, rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(36));
    const int width = 4 + static_cast<int>(rng.next_below(24));
    const int slack = static_cast<int>(rng.next_below(5)) - 1;  // -1..3
    interval::RecolorProblem problem = random_window(rng, n, width, slack);
    // A small budget keeps the infeasible windows, which search until the
    // budget runs out, fast.
    const SolveOutcome outcome = expect_same_solve(
        problem, 20'000, scratch, "trial " + std::to_string(trial));
    if (!outcome.error.empty()) {
      ++rejected;
    } else {
      infeasible += outcome.colors.has_value() ? 0 : 1;
      backtracked += outcome.stats.used_backtracking ? 1 : 0;
    }
  }
  // The mix must exercise every outcome.
  EXPECT_GT(infeasible, 10);
  EXPECT_GT(backtracked, 10);
  EXPECT_GT(rejected, 10);
}

TEST(IntervalLayerDifferential, SolverProvesTriangleInfeasibleInTwoColors) {
  interval::RecolorProblem problem;
  problem.rep.vertices = {0, 1, 2};
  problem.rep.lo = {0, 0, 0};
  problem.rep.hi = {1, 1, 1};
  problem.rep.num_positions = 2;
  problem.fixed = {-1, -1, -1};
  problem.palette = 2;
  interval::WindowScratch scratch;
  // Warm the scratch on a larger window first: the per-depth buffers of
  // the triangle must not alias stale ones.
  Rng rng(3);
  expect_same_solve(random_window(rng, 30, 20, 2), 4'000'000, scratch,
                    "warm-up");
  expect_same_solve(problem, 4'000'000, scratch, "triangle");
  std::vector<int> colors;
  EXPECT_FALSE(interval::extend_coloring(problem.rep, problem.fixed,
                                         problem.palette, scratch, colors));
}

TEST(IntervalLayerDifferential, SolverExhaustsBudgetThroughRotatedRestarts) {
  // palette = omega - 1 on wide multi-track windows is infeasible, and the
  // search cannot prove it within the budget, so every restart runs.
  interval::WindowScratch scratch;
  int restarted = 0;
  for (int tracks : {5, 6, 8}) {
    for (std::int64_t budget : {2'000, 5'000, 12'000, 40'000}) {
      interval::RecolorProblem problem;
      PathIntervals& rep = problem.rep;
      rep.num_positions = 80;
      for (int t = 0; t < tracks; ++t) {
        for (int p = t % 2; p < 76; p += 2) {
          rep.vertices.push_back(static_cast<int>(rep.vertices.size()));
          rep.lo.push_back(p);
          rep.hi.push_back(p + 2);
        }
      }
      problem.fixed.assign(rep.vertices.size(), -1);
      problem.fixed[0] = 0;
      problem.palette = interval::omega(rep) - 1;
      const SolveOutcome outcome = expect_same_solve(
          problem, budget, scratch,
          "tracks " + std::to_string(tracks) + " budget " +
              std::to_string(budget));
      EXPECT_FALSE(outcome.colors.has_value());
      // More nodes than the first attempt's slice: restarts ran.
      if (outcome.stats.backtrack_nodes >=
          std::max<std::int64_t>(budget / 2, 1000)) {
        ++restarted;
      }
    }
  }
  EXPECT_GT(restarted, 6);
}

TEST(IntervalLayerDifferential, SolverRejectsBadPrecoloringsLikeOracle) {
  interval::WindowScratch scratch;
  interval::RecolorProblem problem;
  problem.rep.vertices = {0, 1, 2, 3};
  problem.rep.lo = {0, 1, 3, 5};
  problem.rep.hi = {1, 3, 4, 6};
  problem.rep.num_positions = 7;
  problem.palette = 3;
  problem.fixed = {1, 1, -1, -1};  // 0 and 1 overlap: improper
  expect_same_solve(problem, 4'000'000, scratch, "improper");
  problem.fixed = {-1, 3, -1, -1};  // outside the palette
  expect_same_solve(problem, 4'000'000, scratch, "outside palette");
  problem.fixed = {1, 1, 3, -1};  // both: the palette check comes first
  expect_same_solve(problem, 4'000'000, scratch, "both");
  problem.fixed = {-1, -1};
  expect_same_solve(problem, 4'000'000, scratch, "size mismatch");
  problem.fixed = {-1, -1, -1, -1};
  problem.palette = 0;
  expect_same_solve(problem, 4'000'000, scratch, "empty palette");
  problem.palette = 2;
  expect_same_solve(problem, 4'000'000, scratch, "after errors");
}

}  // namespace
}  // namespace chordal
