// Cross-validation of the two independent maximal-clique pipelines on
// interval graphs: the geometric sweep (clique_path_from_geometry) and the
// Lex-BFS/PEO chordal extraction must produce the same clique family, and
// the compact clique-path model must agree with the endpoint-rank model.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "interval/offline.hpp"
#include "interval/rep.hpp"

namespace chordal {
namespace {

void expect_same_cliques(const GeneratedInterval& gen, const char* tag) {
  auto cp = interval::clique_path_from_geometry(gen.left, gen.right);
  auto sorted = cp.cliques;
  std::sort(sorted.begin(), sorted.end());
  auto from_graph = maximal_cliques_chordal(gen.graph);
  EXPECT_EQ(sorted, from_graph) << tag;
}

TEST(CliquePathFromGeometry, MatchesChordalExtraction) {
  for (std::uint64_t seed : {1u, 2u, 5u, 9u}) {
    expect_same_cliques(random_interval({.n = 80,
                                         .window = 40.0,
                                         .min_len = 0.5,
                                         .max_len = 6.0,
                                         .seed = seed}),
                        "dense");
    expect_same_cliques(staircase_interval(80, 0.62, 0.05, seed),
                        "staircase");
    expect_same_cliques(random_unit_interval(60, 30.0, seed), "unit");
  }
}

TEST(CliquePathFromGeometry, ConsecutiveOnesProperty) {
  auto gen = random_interval(
      {.n = 90, .window = 45.0, .min_len = 1.0, .max_len = 5.0, .seed = 7});
  auto cp = interval::clique_path_from_geometry(gen.left, gen.right);
  // Every vertex must appear in exactly the cliques [lo, hi] of its range.
  for (int v = 0; v < 90; ++v) {
    for (int c = 0; c < cp.rep.num_positions; ++c) {
      bool member = std::binary_search(cp.cliques[c].begin(),
                                       cp.cliques[c].end(), v);
      bool in_range = cp.rep.lo[v] <= c && c <= cp.rep.hi[v];
      EXPECT_EQ(member, in_range) << "v=" << v << " c=" << c;
    }
  }
}

TEST(CliquePathFromGeometry, ModelAgreesWithEndpointRanks) {
  for (std::uint64_t seed : {3u, 8u}) {
    auto gen = random_interval({.n = 70,
                                .window = 35.0,
                                .min_len = 0.5,
                                .max_len = 4.0,
                                .seed = seed});
    auto compact = interval::clique_path_from_geometry(gen.left, gen.right);
    auto ranks = interval::from_geometry(gen.left, gen.right);
    // Same adjacency...
    Graph g1 = interval::to_graph(compact.rep);
    Graph g2 = interval::to_graph(ranks);
    EXPECT_EQ(g1.edges(), g2.edges()) << "seed " << seed;
    // ... same omega and alpha, far fewer positions.
    EXPECT_EQ(interval::omega(compact.rep), interval::omega(ranks));
    PathScratch scratch;
    EXPECT_EQ(interval_alpha(compact.rep, scratch),
              interval_alpha(ranks, scratch));
    EXPECT_LE(compact.rep.num_positions, ranks.num_positions);
  }
}

TEST(CliquePathFromGeometry, SingletonsAndNesting) {
  // Isolated interval, nested intervals, twins.
  std::vector<double> left = {0.0, 10.0, 10.5, 10.6, 20.0, 20.0};
  std::vector<double> right = {1.0, 14.0, 12.0, 11.0, 21.0, 21.0};
  auto cp = interval::clique_path_from_geometry(left, right);
  // Cliques: {0}, {1,2,3}, {1,2}? no - after 3 ends nothing new starts
  // before 2 ends, so the next maximal clique is {4,5}.
  ASSERT_EQ(cp.cliques.size(), 3u);
  EXPECT_EQ(cp.cliques[0], (std::vector<int>{0}));
  EXPECT_EQ(cp.cliques[1], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cp.cliques[2], (std::vector<int>{4, 5}));
}

TEST(CliquePathFromGeometry, RejectsBadInput) {
  EXPECT_THROW(interval::clique_path_from_geometry({0.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(interval::clique_path_from_geometry({2.0}, {1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace chordal
