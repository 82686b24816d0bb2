// Structural discipline of the independent-set peeling (Algorithm 6 step
// 1): pendant paths are always taken; internal paths taken before the last
// iteration must have diameter >= 2d+3; internal paths taken in the last
// iteration must have independence number >= d; and everything NOT taken
// must fail the corresponding threshold.
#include <gtest/gtest.h>

#include "cliqueforest/paths.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

struct StructureCase {
  std::uint64_t seed;
  int d;
  int iterations;
  TreeShape shape;
};

class MisPeelStructure : public ::testing::TestWithParam<StructureCase> {};

TEST_P(MisPeelStructure, ThresholdsRespected) {
  auto [seed, d, iterations, shape] = GetParam();
  CliqueTreeConfig config;
  config.num_bags = 120;
  config.shape = shape;
  config.seed = seed;
  auto gen = random_chordal_from_clique_tree(config);
  const Graph& g = gen.graph;
  CliqueForest forest = CliqueForest::build(g);
  core::PeelConfig pc;
  pc.mode = core::PeelMode::kIndependentSet;
  pc.d = d;
  pc.max_iterations = iterations;
  auto result = core::peel(g, forest, pc);

  for (std::size_t idx = 0; idx < result.layers.size(); ++idx) {
    bool last = static_cast<int>(idx) + 1 == result.num_layers;
    // Taken paths pass their threshold...
    for (const auto& lp : result.layers[idx]) {
      if (lp.path.pendant) continue;
      if (last) {
        EXPECT_GE(testing::path_alpha(forest, lp.path), d)
            << "seed " << seed << " layer " << idx + 1;
      } else {
        EXPECT_GE(testing::path_diameter(forest, lp.path), 2 * d + 3)
            << "seed " << seed << " layer " << idx + 1;
      }
    }
    // ... and every path NOT taken fails it (pendants are always taken, so
    // untaken ones must be internal below threshold).
    const auto active =
        testing::active_at(forest, result, static_cast<int>(idx) + 1);
    std::vector<char> taken_clique(
        static_cast<std::size_t>(forest.num_cliques()), 0);
    for (const auto& lp : result.layers[idx]) {
      for (int c : lp.path.cliques) taken_clique[c] = 1;
    }
    for (const auto& path : maximal_binary_paths(forest, active)) {
      bool taken = taken_clique[path.cliques.front()] != 0;
      if (taken) continue;
      EXPECT_FALSE(path.pendant) << "seed " << seed << " layer " << idx + 1;
      if (last) {
        EXPECT_LT(testing::path_alpha(forest, path), d)
            << "seed " << seed << " layer " << idx + 1;
      } else {
        EXPECT_LT(testing::path_diameter(forest, path), 2 * d + 3)
            << "seed " << seed << " layer " << idx + 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MisPeelStructure,
    ::testing::Values(StructureCase{1, 2, 4, TreeShape::kRandom},
                      StructureCase{2, 3, 3, TreeShape::kCaterpillar},
                      StructureCase{3, 2, 5, TreeShape::kBinary},
                      StructureCase{4, 4, 4, TreeShape::kSpider},
                      StructureCase{5, 5, 3, TreeShape::kPath},
                      StructureCase{6, 3, 4, TreeShape::kRandom}));

TEST(MisPeelStructure, ColoringModeTakesAllPendantsEveryIteration) {
  CliqueTreeConfig config;
  config.num_bags = 100;
  config.shape = TreeShape::kBinary;
  config.seed = 8;
  auto gen = random_chordal_from_clique_tree(config);
  CliqueForest forest = CliqueForest::build(gen.graph);
  core::PeelConfig pc;
  pc.mode = core::PeelMode::kColoring;
  pc.k = 3;
  auto result = core::peel(gen.graph, forest, pc);
  for (std::size_t idx = 0; idx < result.layers.size(); ++idx) {
    std::vector<char> taken_clique(
        static_cast<std::size_t>(forest.num_cliques()), 0);
    for (const auto& lp : result.layers[idx]) {
      for (int c : lp.path.cliques) taken_clique[c] = 1;
    }
    for (const auto& path : maximal_binary_paths(
             forest,
             testing::active_at(forest, result, static_cast<int>(idx) + 1))) {
      if (path.pendant) {
        EXPECT_TRUE(taken_clique[path.cliques.front()])
            << "layer " << idx + 1;
      }
    }
  }
}

}  // namespace
}  // namespace chordal
