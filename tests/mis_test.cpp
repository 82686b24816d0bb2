#include <gtest/gtest.h>

#include <limits>

#include "baselines/baselines.hpp"
#include "core/mis.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

void expect_valid_mis(const Graph& g, const core::MisResult& result,
                      double eps, const char* tag) {
  EXPECT_TRUE(testing::is_independent_set(g, result.chosen)) << tag;
  int opt = baselines::independence_number_chordal(g);
  EXPECT_GE(static_cast<double>(result.chosen.size()) * (1.0 + eps),
            static_cast<double>(opt))
      << tag << " got " << result.chosen.size() << " of " << opt;
}

TEST(MisChordal, PaperExampleGraph) {
  Graph g = testing::paper_figure1_graph();
  auto result = core::mis_chordal(g, {.eps = 0.25});
  expect_valid_mis(g, result, 0.25, "paper");
}

TEST(MisChordal, SimpleFamilies) {
  for (double eps : {0.4, 0.2}) {
    expect_valid_mis(path_graph(101), core::mis_chordal(path_graph(101),
                                                        {.eps = eps}),
                     eps, "path");
    expect_valid_mis(star_graph(9),
                     core::mis_chordal(star_graph(9), {.eps = eps}), eps,
                     "star");
    expect_valid_mis(complete_graph(7),
                     core::mis_chordal(complete_graph(7), {.eps = eps}), eps,
                     "complete");
    Graph cat = caterpillar(40, 3);
    expect_valid_mis(cat, core::mis_chordal(cat, {.eps = eps}), eps, "cat");
  }
}

TEST(MisChordal, RejectsBadEps) {
  EXPECT_THROW(core::mis_chordal(path_graph(4), {.eps = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(core::mis_chordal(path_graph(4), {.eps = 0.5}),
               std::invalid_argument);
  // NaN, or d = ceil(64/eps) beyond int: rejected at the boundary instead
  // of failing later inside peel after an undefined int cast.
  for (double eps : {std::numeric_limits<double>::quiet_NaN(), 1e-300}) {
    EXPECT_THROW(core::mis_chordal(path_graph(4), {.eps = eps}),
                 std::invalid_argument)
        << "eps=" << eps;
    EXPECT_THROW(core::mis_chordal(Graph{}, {.eps = eps}),
                 std::invalid_argument)
        << "eps=" << eps;
  }
}

TEST(MisChordal, EmptyGraph) {
  EXPECT_TRUE(core::mis_chordal(Graph{}).chosen.empty());
}

struct MisCase {
  std::uint64_t seed;
  double eps;
};

class MisRandom : public ::testing::TestWithParam<MisCase> {};

TEST_P(MisRandom, IncrementalChordalGraphs) {
  auto [seed, eps] = GetParam();
  RandomChordalConfig config;
  config.n = 350;
  config.max_clique = 6;
  config.chain_bias = 0.6;
  config.seed = seed;
  Graph g = random_chordal(config);
  expect_valid_mis(g, core::mis_chordal(g, {.eps = eps}), eps, "incremental");
}

TEST_P(MisRandom, CliqueTreeShapes) {
  auto [seed, eps] = GetParam();
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 140;
    config.shape = shape;
    config.seed = seed;
    auto gen = random_chordal_from_clique_tree(config);
    expect_valid_mis(gen.graph, core::mis_chordal(gen.graph, {.eps = eps}),
                     eps, "shape");
  }
}

TEST_P(MisRandom, TightDOverrideStillSound) {
  // The paper's d = 64/eps is a worst-case constant; the approximation test
  // must also hold with the ablated, much smaller d (quality can only
  // change, soundness - independence - cannot). We only check independence
  // plus a weak ratio here.
  auto [seed, eps] = GetParam();
  RandomChordalConfig config;
  config.n = 300;
  config.max_clique = 5;
  config.seed = seed;
  Graph g = random_chordal(config);
  auto result = core::mis_chordal(g, {.eps = eps, .d_override = 8});
  EXPECT_TRUE(testing::is_independent_set(g, result.chosen));
  int opt = baselines::independence_number_chordal(g);
  EXPECT_GE(static_cast<double>(result.chosen.size()) * 2.0,
            static_cast<double>(opt));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MisRandom,
    ::testing::Values(MisCase{1, 0.45}, MisCase{2, 0.3}, MisCase{3, 0.2},
                      MisCase{4, 0.1}, MisCase{5, 0.45}, MisCase{6, 0.25},
                      MisCase{7, 0.15}, MisCase{8, 0.35}));

TEST(MisChordal, BaselineExactMisIsExactOnSmallGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RandomChordalConfig config;
    config.n = 24;
    config.max_clique = 5;
    config.seed = seed;
    Graph g = random_chordal(config);
    EXPECT_EQ(baselines::independence_number_chordal(g),
              testing::brute_force_alpha(g))
        << "seed " << seed;
  }
}

TEST(MisChordal, BaselineOptimalColoringIsOptimalOnSmallGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RandomChordalConfig config;
    config.n = 20;
    config.max_clique = 5;
    config.seed = seed;
    Graph g = random_chordal(config);
    auto colors = baselines::optimal_coloring_chordal(g);
    EXPECT_TRUE(testing::is_proper_coloring(g, colors));
    EXPECT_EQ(baselines::chromatic_number_chordal(g),
              testing::brute_force_chromatic(g))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace chordal
