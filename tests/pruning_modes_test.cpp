// Lemma 12, end to end: running the whole MVC pipeline with per-node
// local-view pruning decisions must reproduce the global-peel run exactly -
// identical layers, identical colors, identical round accounting.
#include <gtest/gtest.h>

#include <string>

#include "core/local_decision.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

void expect_identical_runs(const Graph& g, double eps) {
  auto global = core::mvc_chordal(
      g, {.eps = eps, .pruning = core::PruningMode::kGlobal});
  auto local = core::mvc_chordal(
      g, {.eps = eps, .pruning = core::PruningMode::kPerNodeLocalViews});
  EXPECT_EQ(global.colors, local.colors);
  EXPECT_EQ(global.num_layers, local.num_layers);
  EXPECT_EQ(global.rounds, local.rounds);
  EXPECT_TRUE(testing::is_proper_coloring(g, local.colors));
}

TEST(PruningModes, PaperExample) {
  expect_identical_runs(testing::paper_figure1_graph(), 1.0);
}

TEST(PruningModes, StructuredFamilies) {
  expect_identical_runs(path_graph(90), 0.5);
  expect_identical_runs(caterpillar(20, 2), 0.5);
  expect_identical_runs(broom(25, 4), 1.0);
  expect_identical_runs(star_graph(12), 0.5);
}

TEST(PruningModes, LayerPartitionsMatchDirectly) {
  for (std::uint64_t seed : {1u, 3u, 5u}) {
    CliqueTreeConfig config;
    config.num_bags = 45;
    config.shape = TreeShape::kRandom;
    config.seed = seed;
    auto gen = random_chordal_from_clique_tree(config);
    CliqueForest forest = CliqueForest::build(gen.graph);
    core::PeelConfig pc;
    pc.mode = core::PeelMode::kColoring;
    pc.k = 2;
    auto global = core::peel(gen.graph, forest, pc);
    auto local = core::peel_with_local_decisions(gen.graph, forest, 2);
    EXPECT_EQ(global.layer_of, local.layer_of) << "seed " << seed;
    EXPECT_EQ(global.num_layers, local.num_layers) << "seed " << seed;
  }
}

TEST(PruningModes, LayerPartitionsMatchOnChainHeavyShapes) {
  // Many short internal paths: the shapes on which a BFS double sweep
  // underestimates a visible chain's diameter.
  auto expect_same_layers = [](const Graph& g, int k) {
    CliqueForest forest = CliqueForest::build(g);
    core::PeelConfig pc;
    pc.mode = core::PeelMode::kColoring;
    pc.k = k;
    auto global = core::peel(g, forest, pc);
    auto local = core::peel_with_local_decisions(g, forest, k);
    EXPECT_EQ(global.layer_of, local.layer_of);
    EXPECT_EQ(global.num_layers, local.num_layers);
  };
  for (int k : {2, 3}) {
    for (TreeShape shape : {TreeShape::kCaterpillar, TreeShape::kSpider}) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        CliqueTreeConfig config;
        config.num_bags = 60;
        config.shape = shape;
        config.seed = seed;
        SCOPED_TRACE("k " + std::to_string(k) + " shape " +
                     std::to_string(static_cast<int>(shape)) + " seed " +
                     std::to_string(seed));
        expect_same_layers(random_chordal_from_clique_tree(config).graph, k);
      }
    }
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      RandomChordalConfig config;
      config.n = 150;
      config.max_clique = 4;
      config.chain_bias = 0.9;
      config.seed = seed;
      SCOPED_TRACE("k " + std::to_string(k) + " random_chordal seed " +
                   std::to_string(seed));
      expect_same_layers(random_chordal(config), k);
    }
  }
}

TEST(PruningModes, RandomChordalSweep) {
  for (std::uint64_t seed : {2u, 4u}) {
    RandomChordalConfig config;
    config.n = 120;
    config.max_clique = 5;
    config.chain_bias = 0.7;
    config.seed = seed;
    expect_identical_runs(random_chordal(config), 0.5);
  }
}

}  // namespace
}  // namespace chordal
