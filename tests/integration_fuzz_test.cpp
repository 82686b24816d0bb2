// Seeded fuzz-style integration sweep: many random workloads pushed through
// both headline pipelines with every invariant asserted. Each seed covers a
// different (shape, size, eps) combination; failures print the seed for
// exact replay.
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/checks.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/generators.hpp"
#include "graph/peo.hpp"
#include "support/rng.hpp"

namespace chordal {
namespace {

Graph random_workload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b9ULL + 1);
  switch (rng.next_below(3)) {
    case 0: {
      RandomChordalConfig config;
      config.n = 50 + static_cast<int>(rng.next_below(250));
      config.max_clique = 3 + static_cast<int>(rng.next_below(6));
      config.chain_bias = rng.uniform01();
      config.seed = seed;
      return random_chordal(config);
    }
    case 1: {
      CliqueTreeConfig config;
      config.num_bags = 20 + static_cast<int>(rng.next_below(100));
      config.min_bag_size = 2;
      config.max_bag_size = 3 + static_cast<int>(rng.next_below(4));
      config.max_shared = 1 + static_cast<int>(rng.next_below(3));
      config.shape = static_cast<TreeShape>(rng.next_below(5));
      config.seed = seed;
      return random_chordal_from_clique_tree(config).graph;
    }
    default:
      return streaming_k_tree(30 + static_cast<int>(rng.next_below(120)),
                           1 + static_cast<int>(rng.next_below(4)), seed);
  }
}

class IntegrationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrationFuzz, FullPipelineInvariants) {
  std::uint64_t seed = GetParam();
  Graph g = random_workload(seed);
  ASSERT_TRUE(is_chordal(g)) << "seed " << seed;

  Rng rng(seed);
  double eps_color = 0.2 + rng.uniform01() * 1.2;
  double eps_mis = 0.1 + rng.uniform01() * 0.35;

  auto coloring = core::mvc_chordal(g, {.eps = eps_color});
  core::require_proper_coloring(g, coloring.colors);
  int chi = baselines::chromatic_number_chordal(g);
  EXPECT_EQ(coloring.omega, chi) << "seed " << seed;
  EXPECT_LE(coloring.num_colors, chi + chi / coloring.k + 1)
      << "seed " << seed << " eps " << eps_color;
  EXPECT_EQ(coloring.palette_violations, 0) << "seed " << seed;
  EXPECT_EQ(core::count_colors(coloring.colors), coloring.num_colors);
  EXPECT_GE(coloring.num_colors, chi) << "seed " << seed;

  auto mis = core::mis_chordal(g, {.eps = eps_mis});
  core::require_independent_set(g, mis.chosen);
  int alpha = baselines::independence_number_chordal(g);
  EXPECT_GE(static_cast<double>(mis.chosen.size()) * (1.0 + eps_mis),
            static_cast<double>(alpha))
      << "seed " << seed << " eps " << eps_mis;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace chordal
