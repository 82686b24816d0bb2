#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/baselines.hpp"
#include "core/mvc.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using core::LayerColoringMode;
using core::MvcOptions;
using core::MvcResult;

void expect_valid(const Graph& g, const MvcResult& result, double eps,
                  const char* tag) {
  EXPECT_TRUE(testing::is_proper_coloring(g, result.colors)) << tag;
  int chi = baselines::chromatic_number_chordal(g);
  EXPECT_EQ(result.omega, chi) << tag;
  // The algorithm's unconditional guarantee (Lemma 10 induction):
  // at most floor((1+1/k) chi) + 1 colors.
  int bound = chi + chi / result.k + 1;
  EXPECT_LE(result.num_colors, bound) << tag;
  // And the headline (1+eps) factor whenever eps >= 2/chi (Theorem 3).
  if (eps >= 2.0 / chi) {
    EXPECT_LE(result.num_colors, static_cast<int>((1.0 + eps) * chi)) << tag;
  }
  EXPECT_EQ(result.palette_violations, 0) << tag;
  EXPECT_GT(result.rounds, 0) << tag;
}

TEST(MvcChordal, PaperExampleGraph) {
  Graph g = testing::paper_figure1_graph();
  auto result = core::mvc_chordal(g, {.eps = 1.0});
  expect_valid(g, result, 1.0, "paper");
  EXPECT_EQ(result.omega, 3);
}

TEST(MvcChordal, SimpleFamilies) {
  for (double eps : {1.0, 0.5}) {
    auto path = core::mvc_chordal(path_graph(64), {.eps = eps});
    expect_valid(path_graph(64), path, eps, "path");
    auto star = core::mvc_chordal(star_graph(10), {.eps = eps});
    expect_valid(star_graph(10), star, eps, "star");
    auto complete = core::mvc_chordal(complete_graph(12), {.eps = eps});
    expect_valid(complete_graph(12), complete, eps, "complete");
    // A complete graph is one clique: exactly chi colors, one layer.
    EXPECT_EQ(complete.num_colors, 12);
    auto cat = core::mvc_chordal(caterpillar(30, 2), {.eps = eps});
    expect_valid(caterpillar(30, 2), cat, eps, "caterpillar");
  }
}

TEST(MvcChordal, EmptyAndTinyGraphs) {
  EXPECT_EQ(core::mvc_chordal(Graph{}).colors.size(), 0u);
  GraphBuilder b(1);
  auto one = core::mvc_chordal(b.build(), {.eps = 0.5});
  EXPECT_EQ(one.num_colors, 1);
  GraphBuilder b2(2);
  b2.add_edge(0, 1);
  auto two = core::mvc_chordal(b2.build(), {.eps = 0.5});
  EXPECT_EQ(two.num_colors, 2);
}

TEST(MvcChordal, RejectsBadEps) {
  EXPECT_THROW(core::mvc_chordal(path_graph(3), {.eps = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(core::mvc_chordal(path_graph(3), {.eps = -1.0}),
               std::invalid_argument);
  // Not finite, or ceil(2/eps) beyond int: the k cast would be undefined
  // (it used to yield INT_MIN, silently clamped to k = 2).
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 1e-12}) {
    EXPECT_THROW(core::mvc_chordal(path_graph(3), {.eps = eps}),
                 std::invalid_argument)
        << "eps=" << eps;
    EXPECT_THROW(core::mvc_chordal(Graph{}, {.eps = eps}),
                 std::invalid_argument)
        << "eps=" << eps;
  }
}

struct MvcCase {
  std::uint64_t seed;
  double eps;
};

class MvcRandom : public ::testing::TestWithParam<MvcCase> {};

TEST_P(MvcRandom, IncrementalChordalGraphs) {
  auto [seed, eps] = GetParam();
  RandomChordalConfig config;
  config.n = 400;
  config.max_clique = 8;
  config.chain_bias = 0.7;
  config.seed = seed;
  Graph g = random_chordal(config);
  auto result = core::mvc_chordal(g, {.eps = eps});
  expect_valid(g, result, eps, "incremental");
}

TEST_P(MvcRandom, CliqueTreeShapes) {
  auto [seed, eps] = GetParam();
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 150;
    config.min_bag_size = 2;
    config.max_bag_size = 6;
    config.shape = shape;
    config.seed = seed;
    auto gen = random_chordal_from_clique_tree(config);
    auto result = core::mvc_chordal(gen.graph, {.eps = eps});
    expect_valid(gen.graph, result, eps,
                 ("shape" + std::to_string(static_cast<int>(shape))).c_str());
  }
}

TEST_P(MvcRandom, CentralizedVariantAlsoValid) {
  auto [seed, eps] = GetParam();
  RandomChordalConfig config;
  config.n = 300;
  config.max_clique = 6;
  config.seed = seed;
  Graph g = random_chordal(config);
  auto result = core::mvc_chordal_centralized(g, eps);
  expect_valid(g, result, eps, "centralized");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MvcRandom,
    ::testing::Values(MvcCase{1, 1.0}, MvcCase{2, 1.0}, MvcCase{3, 0.5},
                      MvcCase{4, 0.5}, MvcCase{5, 0.25}, MvcCase{6, 0.25},
                      MvcCase{7, 0.75}, MvcCase{8, 0.4}, MvcCase{9, 1.5},
                      MvcCase{10, 0.3}));

TEST(MvcChordal, RoundsScaleWithLayersTimesK) {
  // Lemma 12: rounds = O(k log n). Check the accounting identity: pruning
  // rounds equal (num_layers) * 10k at the deepest node.
  CliqueTreeConfig config;
  config.num_bags = 250;
  config.shape = TreeShape::kBinary;
  config.seed = 11;
  auto gen = random_chordal_from_clique_tree(config);
  auto result = core::mvc_chordal(gen.graph, {.eps = 0.5});
  EXPECT_EQ(result.pruning_rounds,
            static_cast<std::int64_t>(result.num_layers) * 10 * result.k);
}

TEST(MvcChordal, TreesGetThreeColorsAtMostWithLooseEps) {
  // chi = 2 on trees; with eps = 1 the bound is (1+1/2)*2+1 = 4, but the
  // engine typically lands on <= 3; assert the hard guarantee only.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Graph g = random_tree(500, seed);
    auto result = core::mvc_chordal(g, {.eps = 1.0});
    EXPECT_TRUE(testing::is_proper_coloring(g, result.colors));
    EXPECT_LE(result.num_colors, 4);
  }
}

}  // namespace
}  // namespace chordal
