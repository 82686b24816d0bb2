#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "interval/absorbing_mis.hpp"
#include "interval/col_int_graph.hpp"
#include "interval/mis_interval.hpp"
#include "interval/offline.hpp"
#include "interval/proper.hpp"
#include "interval/rep.hpp"
#include "interval/window_recolor.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using interval::PathIntervals;

PathIntervals rep_from_random(int n, double window, double max_len,
                              std::uint64_t seed,
                              GeneratedInterval* out_gen = nullptr) {
  auto gen = random_interval(
      {.n = n, .window = window, .min_len = 0.5, .max_len = max_len,
       .seed = seed});
  if (out_gen != nullptr) *out_gen = gen;
  return interval::from_geometry(gen.left, gen.right);
}

TEST(IntervalRep, GeometryRoundTripPreservesAdjacency) {
  GeneratedInterval gen;
  auto rep = rep_from_random(70, 40.0, 5.0, 3, &gen);
  Graph g = interval::to_graph(rep);
  EXPECT_EQ(g.num_edges(), gen.graph.num_edges());
  for (auto [u, v] : gen.graph.edges()) EXPECT_TRUE(g.has_edge(u, v));
}

TEST(IntervalRep, ComponentsMatchGraphComponents) {
  auto rep = rep_from_random(80, 400.0, 3.0, 5);
  Graph g = interval::to_graph(rep);
  auto graph_comps = connected_components(g);
  auto rep_comps = interval::components(rep);
  EXPECT_EQ(static_cast<int>(rep_comps.size()), graph_comps.count);
}

TEST(IntervalRep, OmegaEqualsBruteForceChromatic) {
  for (std::uint64_t seed : {1u, 2u, 6u}) {
    auto rep = rep_from_random(16, 10.0, 4.0, seed);
    Graph g = interval::to_graph(rep);
    EXPECT_EQ(interval::omega(rep), testing::brute_force_chromatic(g));
  }
}

TEST(IntervalRep, DiameterMatchesExact) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 7u, 11u}) {
    auto rep = rep_from_random(60, 80.0, 4.0, seed);
    const interval::Components comps = interval::components(rep);
    for (std::size_t c = 0; c < comps.size(); ++c) {
      auto sub = interval::restrict(rep, comps[c]);
      Graph g = interval::to_graph(sub);
      if (g.num_vertices() <= 1) continue;
      PathScratch scratch;
      EXPECT_EQ(interval_diameter(sub, scratch), diameter_exact(g))
          << "seed " << seed;
    }
  }
}

TEST(IntervalOffline, OptimalColoringUsesOmegaColors) {
  for (std::uint64_t seed : {1u, 4u, 9u}) {
    auto rep = rep_from_random(100, 50.0, 6.0, seed);
    auto colors = interval::color_optimal(rep);
    EXPECT_TRUE(interval::is_proper(rep, colors));
    int used = *std::max_element(colors.begin(), colors.end()) + 1;
    EXPECT_EQ(used, interval::omega(rep));
  }
}

TEST(IntervalOffline, ExactMisMatchesBruteForce) {
  for (std::uint64_t seed : {2u, 5u, 8u}) {
    auto rep = rep_from_random(18, 12.0, 4.0, seed);
    Graph g = interval::to_graph(rep);
    PathScratch scratch;
    EXPECT_EQ(interval_alpha(rep, scratch), testing::brute_force_alpha(g));
  }
}

TEST(ProperReduction, KeepsAlphaAndRemovesDominated) {
  for (std::uint64_t seed : {1u, 3u, 7u}) {
    auto rep = rep_from_random(40, 20.0, 8.0, seed);
    auto kept = interval::proper_reduction(rep);
    auto reduced = interval::restrict(rep, kept);
    // alpha unchanged (dominated vertices are never needed).
    PathScratch scratch;
    EXPECT_EQ(interval_alpha(reduced, scratch), interval_alpha(rep, scratch));
    // The reduced graph must be proper interval, i.e. claw-free (Roberts):
    // any claw's center strictly dominates the middle leaf's closed
    // neighborhood, so centers are always removed.
    Graph g = interval::to_graph(reduced);
    for (int v = 0; v < g.num_vertices(); ++v) {
      auto nb = g.neighbors(v);
      for (std::size_t a = 0; a < nb.size(); ++a) {
        for (std::size_t b = a + 1; b < nb.size(); ++b) {
          if (g.has_edge(nb[a], nb[b])) continue;
          for (std::size_t c = b + 1; c < nb.size(); ++c) {
            bool claw = !g.has_edge(nb[a], nb[c]) && !g.has_edge(nb[b], nb[c]);
            EXPECT_FALSE(claw) << "seed " << seed << " center " << v;
          }
        }
      }
    }
  }
}

TEST(WindowRecolor, CompletesFreeColoringGreedily) {
  auto rep = rep_from_random(60, 30.0, 5.0, 12);
  interval::RecolorProblem problem;
  problem.rep = rep;
  problem.fixed.assign(rep.vertices.size(), -1);
  problem.palette = interval::omega(rep);
  auto solved = interval::extend_coloring(problem);
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(interval::is_proper(rep, *solved));
}

TEST(WindowRecolor, RespectsFixedColors) {
  auto rep = rep_from_random(50, 25.0, 5.0, 21);
  auto base = interval::color_optimal(rep);
  interval::RecolorProblem problem;
  problem.rep = rep;
  problem.fixed.assign(rep.vertices.size(), -1);
  // Freeze a scattered third of the vertices at their optimal colors.
  for (std::size_t i = 0; i < rep.vertices.size(); i += 3) {
    problem.fixed[i] = base[i];
  }
  problem.palette = interval::omega(rep);
  auto solved = interval::extend_coloring(problem);
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(interval::is_proper(rep, *solved));
  for (std::size_t i = 0; i < rep.vertices.size(); i += 3) {
    EXPECT_EQ((*solved)[i], base[i]);
  }
}

TEST(WindowRecolor, DetectsImproperPrecoloring) {
  PathIntervals rep;
  rep.num_positions = 3;
  rep.vertices = {0, 1};
  rep.lo = {0, 1};
  rep.hi = {2, 2};
  interval::RecolorProblem problem;
  problem.rep = rep;
  problem.fixed = {0, 0};  // adjacent, same color
  problem.palette = 2;
  EXPECT_THROW(interval::extend_coloring(problem), std::invalid_argument);
}

TEST(WindowRecolor, ReportsInfeasibleTinyPalette) {
  // A triangle (three mutually overlapping intervals) cannot be 2-colored.
  PathIntervals rep;
  rep.num_positions = 4;
  rep.vertices = {0, 1, 2};
  rep.lo = {0, 1, 2};
  rep.hi = {3, 3, 3};
  interval::RecolorProblem problem;
  problem.rep = rep;
  problem.fixed = {-1, -1, -1};
  problem.palette = 2;
  EXPECT_FALSE(interval::extend_coloring(problem).has_value());
}

TEST(WindowRecolor, TwoSidedBoundaryExtension) {
  // Lemma 9 setting: both end columns frozen with clashing layouts; the
  // middle must absorb the permutation within (1 + 1/k) omega + 1 colors.
  const int n = 40;
  PathIntervals rep;
  rep.num_positions = n + 4;
  // Four "tracks" of consecutive unit intervals.
  int id = 0;
  for (int track = 0; track < 4; ++track) {
    for (int p = track % 2; p < n; p += 2) {
      rep.vertices.push_back(id++);
      rep.lo.push_back(p);
      rep.hi.push_back(p + 2);
    }
  }
  interval::RecolorProblem problem;
  problem.rep = rep;
  problem.fixed.assign(rep.vertices.size(), -1);
  // Freeze the leftmost interval of each track to color = track and the
  // rightmost to a rotated color.
  for (int track = 0; track < 4; ++track) {
    std::size_t first = 0, last = 0;
    int best_lo = 1 << 30, best_hi = -1;
    for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
      bool in_track = false;
      // Recover track by construction: intervals were appended per track.
      // Track t spans indices [t*per, (t+1)*per).
      std::size_t per = rep.vertices.size() / 4;
      in_track = i / per == static_cast<std::size_t>(track);
      if (!in_track) continue;
      if (rep.lo[i] < best_lo) {
        best_lo = rep.lo[i];
        first = i;
      }
      if (rep.hi[i] > best_hi) {
        best_hi = rep.hi[i];
        last = i;
      }
    }
    problem.fixed[first] = track;
    problem.fixed[last] = (track + 1) % 4;
  }
  int w = interval::omega(rep);
  int k = 8;
  problem.palette = w + w / k + 1;
  auto solved = interval::extend_coloring(problem);
  ASSERT_TRUE(solved.has_value());
  EXPECT_TRUE(interval::is_proper(rep, *solved));
}

class ColIntGraphSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColIntGraphSeeds, MeetsLemmaColorBound) {
  for (int k : {2, 4, 8}) {
    auto rep = rep_from_random(300, 120.0, 6.0, GetParam());
    auto result = interval::col_int_graph(rep, k);
    EXPECT_TRUE(interval::is_proper(rep, result.colors)) << "k=" << k;
    EXPECT_LE(result.num_colors, result.color_bound) << "k=" << k;
    EXPECT_EQ(result.palette_violations, 0) << "k=" << k;
    EXPECT_GT(result.rounds, 0);
  }
}

TEST_P(ColIntGraphSeeds, ApproxMisMeetsRatio) {
  for (double eps : {0.5, 0.25}) {
    auto rep = rep_from_random(400, 160.0, 5.0, GetParam());
    auto result = interval::approx_mis_interval(rep, eps);
    // Independence.
    Graph g = interval::to_graph(rep);
    std::vector<int> chosen_vertices;
    for (std::size_t i : result.chosen) {
      chosen_vertices.push_back(static_cast<int>(i));
    }
    EXPECT_TRUE(testing::is_independent_set(g, chosen_vertices));
    // Ratio.
    PathScratch scratch;
    int opt = interval_alpha(rep, scratch);
    EXPECT_GE(static_cast<double>(result.chosen.size()) * (1.0 + eps),
              static_cast<double>(opt))
        << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColIntGraphSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AbsorbingMis, IsAlwaysOptimal) {
  for (std::uint64_t seed : {1u, 4u, 6u}) {
    auto rep = rep_from_random(20, 12.0, 4.0, seed);
    Graph g = interval::to_graph(rep);
    int opt = testing::brute_force_alpha(g);
    for (auto side : {interval::AttachSide::kNone, interval::AttachSide::kLeft,
                      interval::AttachSide::kRight}) {
      auto mis = interval::absorbing_mis(rep, side);
      std::vector<int> verts(mis.begin(), mis.end());
      std::vector<int> as_int;
      for (std::size_t i : mis) as_int.push_back(static_cast<int>(i));
      EXPECT_TRUE(testing::is_independent_set(g, as_int));
      EXPECT_EQ(static_cast<int>(mis.size()), opt);
    }
  }
}

TEST(AbsorbingMis, AbsorbsClosedNeighborhood) {
  // |I| must equal alpha(Gamma[I]) when sweeping away from the attachment.
  for (std::uint64_t seed : {2u, 3u, 5u, 9u}) {
    auto rep = rep_from_random(18, 10.0, 4.0, seed);
    Graph g = interval::to_graph(rep);
    for (auto side : {interval::AttachSide::kLeft,
                      interval::AttachSide::kRight}) {
      auto mis = interval::absorbing_mis(rep, side);
      std::set<int> closure;
      for (std::size_t i : mis) {
        closure.insert(static_cast<int>(i));
        for (int w : g.neighbors(static_cast<int>(i))) closure.insert(w);
      }
      std::vector<int> closure_list(closure.begin(), closure.end());
      Graph sub = g.induced_subgraph(closure_list);
      EXPECT_EQ(testing::brute_force_alpha(sub), static_cast<int>(mis.size()))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace chordal
