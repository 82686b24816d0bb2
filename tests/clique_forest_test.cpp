#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "graph/generators.hpp"
#include "local/workspace.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

// Maps a clique (as 1-indexed paper vertices) to its index in the canonical
// clique list of the built forest.
int clique_index(const CliqueForest& forest, std::vector<int> paper_clique) {
  for (int& v : paper_clique) --v;
  std::sort(paper_clique.begin(), paper_clique.end());
  for (int c = 0; c < forest.num_cliques(); ++c) {
    if (word_vec(forest.clique(c)) == paper_clique) return c;
  }
  ADD_FAILURE() << "clique not found";
  return -1;
}

TEST(CliqueForest, PaperExampleForestEdges) {
  Graph g = testing::paper_figure1_graph();
  CliqueForest forest = CliqueForest::build(g);
  EXPECT_EQ(forest.num_cliques(), 15);
  forest.verify(g);

  // Applying the paper's deterministic tie-breaking order by hand yields the
  // following 14 spanning-tree edges (see Figure 2): weight-2 edges C1C2,
  // C2C5, C3C4, C6C7, C8C9, C10C11 plus weight-1 edges chosen in decreasing
  // lexicographic order: C14C15, C13C15, C11C13, C11C12, C9C10, C7C8, C5C6,
  // C3C5.
  auto idx = [&](std::vector<int> clique) {
    return clique_index(forest, std::move(clique));
  };
  std::vector<std::pair<std::vector<int>, std::vector<int>>> expected = {
      {{1, 2, 3}, {2, 3, 4}},     {{2, 3, 4}, {2, 4, 8}},
      {{4, 5, 6}, {5, 6, 7}},     {{8, 9, 10}, {9, 10, 11}},
      {{11, 12, 13}, {12, 13, 14}}, {{14, 15, 16}, {15, 16, 19}},
      {{21, 22}, {21, 23}},       {{19, 20, 21}, {21, 23}},
      {{15, 16, 19}, {19, 20, 21}}, {{15, 16, 19}, {16, 17, 18}},
      {{12, 13, 14}, {14, 15, 16}}, {{9, 10, 11}, {11, 12, 13}},
      {{2, 4, 8}, {8, 9, 10}},    {{4, 5, 6}, {2, 4, 8}},
  };
  std::vector<std::pair<int, int>> expected_edges;
  for (auto& [a, b] : expected) {
    int ia = idx(a), ib = idx(b);
    expected_edges.emplace_back(std::min(ia, ib), std::max(ia, ib));
  }
  std::sort(expected_edges.begin(), expected_edges.end());
  auto actual = forest.forest_edges();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected_edges);
}

TEST(CliqueForest, MembershipInducesSubtrees) {
  Graph g = testing::paper_figure1_graph();
  CliqueForest forest = CliqueForest::build(g);
  // Paper node 21 (vertex 20) belongs to C13, C14, C15.
  auto family = forest.cliques_of(20);
  EXPECT_EQ(family.size(), 3u);
  // Paper node 4 (vertex 3) belongs to C2, C3, C5.
  EXPECT_EQ(forest.cliques_of(3).size(), 3u);
}

TEST(CliqueForest, ForestOfDisconnectedGraphHasOneTreePerComponent) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  Graph g = b.build();  // path of 3, edge, isolated vertex
  CliqueForest forest = CliqueForest::build(g);
  forest.verify(g);
  // Cliques: {0,1}, {1,2}, {3,4}, {5} -> edges only between first two.
  EXPECT_EQ(forest.num_cliques(), 4);
  EXPECT_EQ(forest.forest_edges().size(), 1u);
}

class ForestSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForestSeeds, VerifyOnRandomChordal) {
  RandomChordalConfig config;
  config.n = 150;
  config.max_clique = 6;
  config.seed = GetParam();
  Graph g = random_chordal(config);
  CliqueForest forest = CliqueForest::build(g);
  forest.verify(g);
}

TEST_P(ForestSeeds, VerifyOnCliqueTreeShapes) {
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 60;
    config.shape = shape;
    config.seed = GetParam();
    auto gen = random_chordal_from_clique_tree(config);
    CliqueForest forest = CliqueForest::build(gen.graph);
    forest.verify(gen.graph);
  }
}

TEST_P(ForestSeeds, IntervalGraphForestVerifies) {
  // Note: Theorem 1 guarantees interval graphs possess *a* linear clique
  // forest, but the deterministic tie-broken MWSF is not always that one
  // (e.g. the star K_{1,4}: its W_G is a K_4 of weight-1 edges, and the
  // lexicographic Kruskal picks a star-shaped tree). The algorithms only
  // rely on the forward direction (forest paths induce interval graphs), so
  // here we check the tree-decomposition axioms.
  auto gen = random_interval({.n = 90, .window = 45.0, .min_len = 1.0,
                              .max_len = 7.0, .seed = GetParam()});
  CliqueForest forest = CliqueForest::build(gen.graph);
  forest.verify(gen.graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 21, 34, 55, 89,
                                           144));

TEST(LocalView, PaperFigure4Example) {
  Graph g = testing::paper_figure1_graph();
  // Observer is paper node 10 (vertex 9) with a distance-3 ball.
  local::BallWorkspace ws;
  LocalView view;
  local::compute_local_view(g, 9, 3, nullptr, ws, view);
  // Figure 4: C' = {C1, C2, C3, C5, C6, C7, C8, C9}.
  std::vector<std::vector<int>> expected_cliques = {
      {1, 2, 3},   {2, 3, 4},   {4, 5, 6},    {2, 4, 8},
      {8, 9, 10},  {9, 10, 11}, {11, 12, 13}, {12, 13, 14}};
  for (auto& clique : expected_cliques) {
    for (int& v : clique) --v;
    std::sort(clique.begin(), clique.end());
  }
  std::sort(expected_cliques.begin(), expected_cliques.end());
  CliqueFamily expected_family;
  for (const auto& clique : expected_cliques) expected_family.push_word(clique);
  EXPECT_EQ(view.cliques, expected_family);
  // The local forest must be the subtree of the global clique forest induced
  // by C': seven edges.
  EXPECT_EQ(view.forest_edges.size(), 7u);
}

TEST(LocalView, Lemma2ConsistencyWithGlobalForest) {
  // Every local-view forest edge must be a global clique-forest edge, and
  // for every trusted vertex u the full subtree T(u) must appear.
  for (std::uint64_t seed : {1, 2, 3, 7, 19}) {
    RandomChordalConfig config;
    config.n = 70;
    config.max_clique = 4;
    config.seed = seed;
    Graph g = random_chordal(config);
    CliqueForest global = CliqueForest::build(g);

    std::map<std::vector<std::vector<int>>, char> global_edges;
    for (auto [a, b] : global.forest_edges()) {
      std::vector<std::vector<int>> key = {word_vec(global.clique(a)),
                                           word_vec(global.clique(b))};
      std::sort(key.begin(), key.end());
      global_edges[key] = 1;
    }
    local::BallWorkspace ws;
    LocalView view;
    for (int v = 0; v < g.num_vertices(); v += 7) {
      local::compute_local_view(g, v, 4, nullptr, ws, view);
      for (auto [a, b] : view.forest_edges) {
        std::vector<std::vector<int>> key = {word_vec(view.cliques[a]),
                                             word_vec(view.cliques[b])};
        std::sort(key.begin(), key.end());
        EXPECT_TRUE(global_edges.count(key))
            << "seed " << seed << " observer " << v;
      }
      // Subtree completeness for trusted vertices.
      for (int u : view.trusted_vertices) {
        const auto& family = global.cliques_of(u);
        int expected_subtree_edges = static_cast<int>(family.size()) - 1;
        int found = 0;
        for (auto [a, b] : view.forest_edges) {
          const auto& ca = view.cliques[a];
          const auto& cb = view.cliques[b];
          bool in_a = std::binary_search(ca.begin(), ca.end(), u);
          bool in_b = std::binary_search(cb.begin(), cb.end(), u);
          if (in_a && in_b) ++found;
        }
        EXPECT_EQ(found, expected_subtree_edges)
            << "seed " << seed << " observer " << v << " vertex " << u;
      }
    }
  }
}

}  // namespace
}  // namespace chordal
