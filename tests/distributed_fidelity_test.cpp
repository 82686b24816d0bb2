// Lemma 12 as an executable statement: re-derive pruning decisions from
// nodes' distance-10k balls alone and compare with the global peeling.
#include <gtest/gtest.h>

#include "core/local_decision.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

core::LocalDecisionAudit audit(const Graph& g, int k, int stride) {
  CliqueForest forest = CliqueForest::build(g);
  core::PeelConfig config;
  config.mode = core::PeelMode::kColoring;
  config.k = k;
  auto peeling = core::peel(g, forest, config);
  return core::audit_local_pruning(g, peeling, k, stride);
}

TEST(DistributedFidelity, PaperExampleAllNodesAllIterations) {
  auto result = audit(testing::paper_figure1_graph(), 2, 1);
  EXPECT_GT(result.decisions_checked, 0);
  EXPECT_EQ(result.mismatches, 0);
}

TEST(DistributedFidelity, PathAndCaterpillar) {
  EXPECT_EQ(audit(path_graph(120), 2, 1).mismatches, 0);
  EXPECT_EQ(audit(caterpillar(25, 2), 2, 1).mismatches, 0);
  EXPECT_EQ(audit(broom(30, 5), 3, 1).mismatches, 0);
}

struct FidelityCase {
  std::uint64_t seed;
  int k;
  TreeShape shape;
};

class FidelitySweep : public ::testing::TestWithParam<FidelityCase> {};

TEST_P(FidelitySweep, LocalDecisionsMatchGlobalPeel) {
  auto [seed, k, shape] = GetParam();
  CliqueTreeConfig config;
  config.num_bags = 70;
  config.min_bag_size = 2;
  config.max_bag_size = 5;
  config.shape = shape;
  config.seed = seed;
  auto gen = random_chordal_from_clique_tree(config);
  auto result = audit(gen.graph, k, 3);
  EXPECT_GT(result.decisions_checked, 0);
  EXPECT_EQ(result.mismatches, 0)
      << "seed " << seed << " k " << k << " checked "
      << result.decisions_checked;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FidelitySweep,
    ::testing::Values(FidelityCase{1, 2, TreeShape::kRandom},
                      FidelityCase{2, 2, TreeShape::kCaterpillar},
                      FidelityCase{3, 2, TreeShape::kBinary},
                      FidelityCase{4, 3, TreeShape::kSpider},
                      FidelityCase{5, 3, TreeShape::kRandom},
                      FidelityCase{6, 4, TreeShape::kPath},
                      FidelityCase{7, 2, TreeShape::kSpider},
                      FidelityCase{8, 3, TreeShape::kBinary}));

TEST(DistributedFidelity, HorizonRuleEngagesOnLongPaths) {
  // A very long path forces ball-bounded views: the >= 3k horizon rule must
  // fire and still produce correct decisions.
  auto result = audit(path_graph(600), 2, 7);
  EXPECT_EQ(result.mismatches, 0);
  EXPECT_GT(result.horizon_hits, 0);
}

}  // namespace
}  // namespace chordal
