// Distributed fidelity of the MIS peeling (Section 7.3): every layer
// decision re-derived from the owning node's distance-(4d+10) ball must
// match the global independent-set-mode peel - including the final
// iteration's independence-number threshold.
#include <gtest/gtest.h>

#include "core/local_decision.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

core::LocalDecisionAudit audit_mis(const Graph& g, int d, int iterations,
                                   int stride) {
  CliqueForest forest = CliqueForest::build(g);
  core::PeelConfig config;
  config.mode = core::PeelMode::kIndependentSet;
  config.d = d;
  config.max_iterations = iterations;
  auto peeling = core::peel(g, forest, config);
  return core::audit_local_pruning_mis(g, peeling, d, stride);
}

TEST(MisFidelity, PaperExample) {
  auto result = audit_mis(testing::paper_figure1_graph(), 2, 4, 1);
  EXPECT_GT(result.decisions_checked, 0);
  EXPECT_EQ(result.mismatches, 0);
}

TEST(MisFidelity, StructuredFamilies) {
  EXPECT_EQ(audit_mis(path_graph(150), 3, 5, 1).mismatches, 0);
  EXPECT_EQ(audit_mis(caterpillar(30, 2), 2, 4, 1).mismatches, 0);
  EXPECT_EQ(audit_mis(broom(40, 6), 3, 3, 1).mismatches, 0);
}

struct MisFidelityCase {
  std::uint64_t seed;
  int d;
  int iterations;
  TreeShape shape;
};

class MisFidelitySweep : public ::testing::TestWithParam<MisFidelityCase> {};

TEST_P(MisFidelitySweep, LocalDecisionsMatchGlobalPeel) {
  auto [seed, d, iterations, shape] = GetParam();
  CliqueTreeConfig config;
  config.num_bags = 60;
  config.min_bag_size = 2;
  config.max_bag_size = 5;
  config.shape = shape;
  config.seed = seed;
  auto gen = random_chordal_from_clique_tree(config);
  auto result = audit_mis(gen.graph, d, iterations, 3);
  EXPECT_GT(result.decisions_checked, 0);
  EXPECT_EQ(result.mismatches, 0)
      << "seed " << seed << " d " << d << " iters " << iterations;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MisFidelitySweep,
    ::testing::Values(MisFidelityCase{1, 2, 3, TreeShape::kRandom},
                      MisFidelityCase{2, 3, 4, TreeShape::kCaterpillar},
                      MisFidelityCase{3, 2, 5, TreeShape::kBinary},
                      MisFidelityCase{4, 4, 3, TreeShape::kSpider},
                      MisFidelityCase{5, 3, 4, TreeShape::kRandom},
                      MisFidelityCase{6, 5, 2, TreeShape::kPath}));

}  // namespace
}  // namespace chordal
