// The interval-model queries of cliqueforest/paths.hpp - diameter, alpha
// and distances - against graph oracles on the intersection graph: exact
// all-pairs BFS, brute-force alpha and plain BFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "cliqueforest/paths.hpp"
#include "graph/bfs.hpp"
#include "graph/diameter.hpp"
#include "interval/absorbing_mis.hpp"
#include "interval/rep.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

PathIntervals model_of(const std::vector<std::pair<int, int>>& ranges) {
  PathIntervals rep;
  for (auto [lo, hi] : ranges) {
    rep.vertices.push_back(static_cast<int>(rep.vertices.size()));
    rep.lo.push_back(lo);
    rep.hi.push_back(hi);
    rep.num_positions = std::max(rep.num_positions, hi + 1);
  }
  return rep;
}

/// Random integer model on few positions, so ties in lo and hi are common
/// (the inputs where a BFS double sweep runs low); n <= 16 keeps the
/// brute-force alpha cheap.
PathIntervals random_model(Rng& rng) {
  const int positions = static_cast<int>(rng.uniform_int(1, 8));
  const int n = static_cast<int>(rng.uniform_int(1, 16));
  std::vector<std::pair<int, int>> ranges;
  for (int i = 0; i < n; ++i) {
    int lo = static_cast<int>(rng.uniform_int(0, positions - 1));
    int hi = static_cast<int>(rng.uniform_int(lo, positions - 1));
    ranges.emplace_back(lo, hi);
  }
  return model_of(ranges);
}

TEST(IntervalQueries, MatchGraphOraclesOnRandomConnectedModels) {
  Rng rng(20261019);
  PathScratch scratch;
  std::vector<int> dist;
  int checked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    PathIntervals whole = random_model(rng);
    const interval::Components comps = interval::components(whole);
    for (std::size_t c = 0; c < comps.size(); ++c) {
      PathIntervals rep = interval::restrict(whole, comps[c]);
      Graph g = interval::to_graph(rep);
      ++checked;
      EXPECT_EQ(interval_diameter(rep, scratch), diameter_exact(g))
          << "trial " << trial;
      EXPECT_EQ(interval_alpha(rep, scratch), testing::brute_force_alpha(g))
          << "trial " << trial;
      // The kept set of interval_mis is independent and of size alpha.
      std::vector<std::size_t> members(rep.vertices.size());
      std::iota(members.begin(), members.end(), std::size_t{0});
      members.resize(interval_mis(rep, members));
      std::vector<int> kept(members.begin(), members.end());
      EXPECT_TRUE(testing::is_independent_set(g, kept)) << "trial " << trial;
      EXPECT_EQ(static_cast<int>(kept.size()), interval_alpha(rep, scratch));
      for (std::size_t s = 0; s < rep.vertices.size(); ++s) {
        interval_distances(rep, std::span<const std::size_t>(&s, 1), -1,
                           scratch, dist);
        EXPECT_EQ(dist, bfs_distances(g, static_cast<int>(s)))
            << "trial " << trial << " source " << s;
      }
    }
  }
  EXPECT_GT(checked, 600);
}

/// Reference for the span-growth semantics: every level rescans all
/// intervals for the unseen ones meeting the previous level's span.
std::vector<int> level_scan_distances(const PathIntervals& rep,
                                      const std::vector<std::size_t>& sources,
                                      int max_level) {
  std::vector<int> dist(rep.vertices.size(), -1);
  if (sources.empty()) return dist;
  int span_lo = rep.lo[sources[0]], span_hi = rep.hi[sources[0]];
  for (std::size_t s : sources) {
    dist[s] = 0;
    span_lo = std::min(span_lo, rep.lo[s]);
    span_hi = std::max(span_hi, rep.hi[s]);
  }
  for (int level = 1; max_level < 0 || level <= max_level; ++level) {
    int new_lo = span_lo, new_hi = span_hi;
    bool any = false;
    for (std::size_t v = 0; v < rep.vertices.size(); ++v) {
      if (dist[v] != -1 || rep.lo[v] > span_hi || rep.hi[v] < span_lo) {
        continue;
      }
      dist[v] = level;
      any = true;
      new_lo = std::min(new_lo, rep.lo[v]);
      new_hi = std::max(new_hi, rep.hi[v]);
    }
    if (!any) break;
    span_lo = new_lo;
    span_hi = new_hi;
  }
  return dist;
}

TEST(IntervalQueries, MultiSourceDistancesMatchALevelScan) {
  // Possibly disconnected models, random source sets and level caps.
  Rng rng(4242);
  PathScratch scratch;
  std::vector<int> dist;
  for (int trial = 0; trial < 2000; ++trial) {
    PathIntervals rep = random_model(rng);
    std::vector<std::size_t> sources;
    for (std::size_t v = 0; v < rep.vertices.size(); ++v) {
      if (rng.uniform_int(0, 3) == 0) sources.push_back(v);
    }
    const int max_level = static_cast<int>(rng.uniform_int(-1, 4));
    interval_distances(rep, sources, max_level, scratch, dist);
    EXPECT_EQ(dist, level_scan_distances(rep, sources, max_level))
        << "trial " << trial << " max_level " << max_level;
  }
}

TEST(IntervalQueries, DiameterThrowsOnDisconnectedModel) {
  PathScratch scratch;
  EXPECT_THROW(interval_diameter(model_of({{0, 1}, {3, 4}}), scratch),
               std::invalid_argument);
  EXPECT_EQ(interval_diameter(model_of({{2, 2}}), scratch), 0);
}

TEST(IntervalQueries, DoubleSweepRunsLowWhereTheClosedFormIsExact) {
  // [0,1] x 5, [0,0] x 2, [1,1]: the [0,0] and [1,1] intervals are at
  // distance 2, but a sweep from vertex 0 sees everything at distance 1
  // and restarts from vertex 1, which again sees everything at 1.
  PathIntervals rep = model_of(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 0}, {0, 0}, {1, 1}});
  Graph g = interval::to_graph(rep);
  PathScratch scratch;
  EXPECT_EQ(diameter_exact(g), 2);
  EXPECT_EQ(diameter_double_sweep(g, 0), 1);
  EXPECT_EQ(interval_diameter(rep, scratch), 2);
}

TEST(IntervalQueries, CliqueModelHasDiameterOne) {
  // One interval ends first and starts last ([1,1] lies inside the rest),
  // so the diametral pair degenerates to a single vertex.
  PathScratch scratch;
  EXPECT_EQ(interval_diameter(model_of({{0, 2}, {1, 1}, {0, 1}}), scratch),
            1);
  EXPECT_EQ(interval_diameter(model_of({{0, 0}, {0, 0}}), scratch), 1);
}

TEST(IntervalQueries, MultiSourceDistancesStartFromTheHull) {
  // Sources at both ends of a path of unit steps: the hull covers every
  // interval, so everything else lands at level 1 (a multi-source BFS
  // would put the middle at 2).
  PathIntervals rep =
      model_of({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  PathScratch scratch;
  std::vector<int> dist;
  const std::size_t ends[] = {0, 5};
  interval_distances(rep, ends, -1, scratch, dist);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 1, 1, 1, 0}));
  // max_level caps the levels; an empty source set reaches nothing.
  const std::size_t first[] = {0};
  interval_distances(rep, first, 2, scratch, dist);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, -1, -1, -1}));
  interval_distances(rep, {}, -1, scratch, dist);
  EXPECT_EQ(dist, (std::vector<int>(6, -1)));
}

TEST(IntervalQueries, LeftAttachedAbsorbingMisIsTheRightToLeftSweep) {
  // The kLeft sweep runs interval_mis on the mirror image; it must pick
  // exactly what a direct latest-start-first sweep picks.
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    PathIntervals rep = random_model(rng);
    std::vector<std::size_t> order(rep.vertices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
      if (rep.lo[x] != rep.lo[y]) return rep.lo[x] > rep.lo[y];
      return rep.hi[x] > rep.hi[y];
    });
    std::vector<std::size_t> expected;
    int last_lo = rep.num_positions + 1;
    for (std::size_t i : order) {
      if (rep.hi[i] < last_lo) {
        expected.push_back(i);
        last_lo = rep.lo[i];
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(interval::absorbing_mis(rep, interval::AttachSide::kLeft),
              expected)
        << "trial " << trial;
  }
}

TEST(IntervalQueries, ModelOfACliqueSequenceClipsToItsPositions) {
  // Cliques {0,1,2}, {1,2,3}, {3,4} as a path, plus an unrelated {5,6}.
  CliqueFamily family(
      std::vector<std::vector<int>>{{0, 1, 2}, {1, 2, 3}, {3, 4}, {5, 6}});
  PathScratch scratch;
  PathIntervals rep;
  const int order[] = {2, 1, 0};  // walked from the {3,4} end
  interval_model(family, order, scratch, rep);
  EXPECT_EQ(rep.num_positions, 3);
  EXPECT_EQ(rep.vertices, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rep.lo, (std::vector<int>{2, 1, 1, 0, 0}));
  EXPECT_EQ(rep.hi, (std::vector<int>{2, 2, 2, 1, 0}));
}

}  // namespace
}  // namespace chordal
