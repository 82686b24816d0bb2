#include <gtest/gtest.h>

#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "graph/peo.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

Graph cycle_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

TEST(Chordality, BasicFamilies) {
  EXPECT_TRUE(is_chordal(path_graph(10)));
  EXPECT_TRUE(is_chordal(complete_graph(6)));
  EXPECT_TRUE(is_chordal(star_graph(5)));
  EXPECT_TRUE(is_chordal(cycle_graph(3)));
  EXPECT_FALSE(is_chordal(cycle_graph(4)));
  EXPECT_FALSE(is_chordal(cycle_graph(7)));
  EXPECT_TRUE(is_chordal(testing::paper_figure1_graph()));
}

TEST(Chordality, ChordedCycleIsChordal) {
  Graph c4 = cycle_graph(4);
  GraphBuilder b(4);
  for (auto [u, v] : c4.edges()) b.add_edge(u, v);
  b.add_edge(0, 2);
  EXPECT_TRUE(is_chordal(b.build()));
}

TEST(Chordality, EmptyAndSingleton) {
  EXPECT_TRUE(is_chordal(Graph{}));
  GraphBuilder b(1);
  EXPECT_TRUE(is_chordal(b.build()));
}

TEST(Peo, VerifierRejectsBadOrder) {
  // On C4 no ordering is a PEO.
  Graph g = cycle_graph(4);
  EliminationOrder order;
  order.order = {0, 1, 2, 3};
  order.position = {0, 1, 2, 3};
  EXPECT_FALSE(is_perfect_elimination_order(g, order));
}

// Malformed {order, position} pairs: the path has a valid PEO, so each
// false below is the permutation/inverse check, and none may read out of
// bounds.
TEST(Peo, VerifierAcceptsWellFormedOrder) {
  EXPECT_TRUE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 3}, {0, 1, 2, 3}}));
}

TEST(Peo, VerifierRejectsShortPosition) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 3}, {0, 1}}));
}

TEST(Peo, VerifierRejectsLongPosition) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 3}, {0, 1, 2, 3, 4}}));
}

TEST(Peo, VerifierRejectsShortOrder) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2}, {0, 1, 2, 3}}));
}

TEST(Peo, VerifierRejectsOutOfRangeId) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 4}, {0, 1, 2, 3}}));
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{-1, 1, 2, 3}, {0, 1, 2, 3}}));
}

TEST(Peo, VerifierRejectsRepeatedId) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 1, 3}, {0, 1, 2, 3}}));
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 1, 3}, {0, 2, 9, 3}}));
}

TEST(Peo, VerifierRejectsPositionThatIsNotTheInverse) {
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 3}, {1, 0, 2, 3}}));
  EXPECT_FALSE(is_perfect_elimination_order(
      path_graph(4), {{0, 1, 2, 3}, {0, 1, 2, -7}}));
}

TEST(Peo, ThrowsOnNonChordal) {
  EXPECT_THROW(peo_or_throw(cycle_graph(5)), std::invalid_argument);
}

using testing::is_simplicial;

TEST(Peo, SimplicialDetection) {
  Graph g = testing::paper_figure1_graph();
  std::vector<char> active(23, 1);
  // Paper node 1 (vertex 0) lies only in clique {1,2,3}: simplicial.
  EXPECT_TRUE(is_simplicial(g, 0, active));
  // Paper node 2 (vertex 1) lies in three maximal cliques: not simplicial.
  EXPECT_FALSE(is_simplicial(g, 1, active));
}

class RandomChordalParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChordalParam, IncrementalGeneratorIsChordal) {
  RandomChordalConfig config;
  config.n = 120;
  config.max_clique = 5;
  config.chain_bias = 0.6;
  config.seed = GetParam();
  Graph g = random_chordal(config);
  EXPECT_TRUE(is_chordal(g));
  EXPECT_LE(max_clique_size_chordal(g), 5);
}

TEST_P(RandomChordalParam, CliqueTreeGeneratorIsChordal) {
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 40;
    config.shape = shape;
    config.seed = GetParam();
    auto gen = random_chordal_from_clique_tree(config);
    EXPECT_TRUE(is_chordal(gen.graph))
        << "shape " << static_cast<int>(shape) << " seed " << GetParam();
  }
}

TEST_P(RandomChordalParam, KTreeIsChordal) {
  EXPECT_TRUE(is_chordal(streaming_k_tree(60, 4, GetParam())));
}

TEST_P(RandomChordalParam, IntervalGraphsAreChordal) {
  auto gen = random_interval({.n = 80, .window = 40.0, .min_len = 0.5,
                              .max_len = 6.0, .seed = GetParam()});
  EXPECT_TRUE(is_chordal(gen.graph));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChordalParam,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99, 123,
                                           2024));

}  // namespace
}  // namespace chordal
