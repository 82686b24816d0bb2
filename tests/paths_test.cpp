#include <gtest/gtest.h>

#include <algorithm>

#include "cliqueforest/paths.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

std::vector<char> all_active(const CliqueForest& forest) {
  return std::vector<char>(static_cast<std::size_t>(forest.num_cliques()), 1);
}

TEST(ForestPaths, PathGraphIsOnePendantPath) {
  Graph g = path_graph(8);
  CliqueForest forest = CliqueForest::build(g);
  auto paths = maximal_binary_paths(forest, all_active(forest));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].pendant);
  EXPECT_EQ(paths[0].cliques.size(), 7u);
  EXPECT_EQ(paths[0].attach_left, -1);
  EXPECT_EQ(paths[0].attach_right, -1);
}

TEST(ForestPaths, StarDecomposesIntoPendantLeaves) {
  Graph g = star_graph(5);
  CliqueForest forest = CliqueForest::build(g);
  // Clique forest of a 5-leaf star: 5 bags {center, leaf} forming a star
  // around... every bag has degree 4 in no case; the forest is a tree over
  // the 5 bags. Bags of forest-degree <= 2 form the binary paths.
  auto paths = maximal_binary_paths(forest, all_active(forest));
  for (const auto& p : paths) EXPECT_TRUE(p.pendant || !p.cliques.empty());
  // Every clique must be covered by at most one path.
  std::vector<int> seen;
  for (const auto& p : paths) {
    seen.insert(seen.end(), p.cliques.begin(), p.cliques.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(ForestPaths, PaperExampleDecomposition) {
  Graph g = testing::paper_figure1_graph();
  CliqueForest forest = CliqueForest::build(g);
  auto paths = maximal_binary_paths(forest, all_active(forest));
  // Global forest degrees: C5 (cliques {2,4,8}... 0-indexed {1,3,7}) has
  // degree 3 (C2, C3, C6) and C13 ({19,20,21}->{18,19,20}) plus C11
  // ({15,16,19}) etc. Verify basic sanity: paths partition the degree<=2
  // cliques and each path's cliques are consecutive in the forest.
  std::size_t covered = 0;
  for (const auto& p : paths) {
    covered += p.cliques.size();
    for (std::size_t i = 0; i + 1 < p.cliques.size(); ++i) {
      const auto& nb = forest.forest_neighbors(p.cliques[i]);
      EXPECT_TRUE(std::find(nb.begin(), nb.end(), p.cliques[i + 1]) !=
                  nb.end());
    }
  }
  int low_degree = 0;
  for (int c = 0; c < forest.num_cliques(); ++c) {
    if (forest.forest_degree(c) <= 2) ++low_degree;
  }
  EXPECT_EQ(covered, static_cast<std::size_t>(low_degree));
}

TEST(ForestPaths, OwnedVerticesExcludeSharedWithAttachment) {
  // Chain of triangles sharing single vertices; build explicitly:
  // cliques {0,1,2},{2,3,4},{4,5,6} in a path; plus a branch at {4,7},{4,8},
  // {4,9} making the middle clique's bag... simpler: use the paper graph.
  Graph g = testing::paper_figure1_graph();
  CliqueForest forest = CliqueForest::build(g);
  auto paths = maximal_binary_paths(forest, all_active(forest));
  for (const auto& p : paths) {
    auto owned = path_owned_vertices(forest, all_active(forest), p);
    auto uni = path_union_vertices(forest, p);
    // Owned is a subset of the union.
    for (int v : owned) {
      EXPECT_TRUE(std::binary_search(uni.begin(), uni.end(), v));
    }
    // A vertex shared with an attachment clique must not be owned.
    for (int att : {p.attach_left, p.attach_right}) {
      if (att == -1) continue;
      for (int v : forest.clique(att)) {
        EXPECT_FALSE(std::binary_search(owned.begin(), owned.end(), v));
      }
    }
  }
}

TEST(ForestPaths, IntervalModelMatchesInducedGraph) {
  for (std::uint64_t seed : {3u, 5u, 8u, 13u}) {
    CliqueTreeConfig config;
    config.num_bags = 30;
    config.shape = TreeShape::kCaterpillar;
    config.seed = seed;
    auto gen = random_chordal_from_clique_tree(config);
    CliqueForest forest = CliqueForest::build(gen.graph);
    std::vector<char> active(static_cast<std::size_t>(forest.num_cliques()),
                             1);
    for (const auto& p : maximal_binary_paths(forest, active)) {
      PathScratch scratch;
      PathIntervals rep;
      interval_model(forest.cliques(), p.cliques, scratch, rep);
      for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
        for (std::size_t j = i + 1; j < rep.vertices.size(); ++j) {
          bool overlap = rep.lo[i] <= rep.hi[j] && rep.lo[j] <= rep.hi[i];
          EXPECT_EQ(gen.graph.has_edge(rep.vertices[i], rep.vertices[j]),
                    overlap)
              << "seed " << seed;
        }
      }
    }
  }
}

TEST(ForestPaths, DiameterMatchesExactBfs) {
  // kPath gives one long path with big diameters; the other shapes give
  // many short internal paths, where a BFS double sweep can run low.
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kRandom,
                          TreeShape::kCaterpillar, TreeShape::kSpider}) {
    for (std::uint64_t seed : {1u, 2u, 4u, 6u, 9u, 12u}) {
      CliqueTreeConfig config;
      config.num_bags = 40;
      config.shape = shape;
      config.seed = seed;
      auto gen = random_chordal_from_clique_tree(config);
      CliqueForest forest = CliqueForest::build(gen.graph);
      for (const auto& p : maximal_binary_paths(forest, all_active(forest))) {
        auto uni = path_union_vertices(forest, p);
        Graph induced = gen.graph.induced_subgraph(uni);
        EXPECT_EQ(testing::path_diameter(forest, p), diameter_exact(induced))
            << "shape " << static_cast<int>(shape) << " seed " << seed;
      }
    }
  }
}

TEST(ForestPaths, IndependenceMatchesBruteForce) {
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kRandom,
                          TreeShape::kCaterpillar, TreeShape::kSpider}) {
    for (std::uint64_t seed : {1u, 3u, 5u, 7u}) {
      CliqueTreeConfig config;
      config.num_bags = 12;
      config.shape = shape;
      config.max_bag_size = 4;
      config.seed = seed;
      auto gen = random_chordal_from_clique_tree(config);
      CliqueForest forest = CliqueForest::build(gen.graph);
      for (const auto& p : maximal_binary_paths(forest, all_active(forest))) {
        auto uni = path_union_vertices(forest, p);
        Graph induced = gen.graph.induced_subgraph(uni);
        EXPECT_EQ(testing::path_alpha(forest, p),
                  testing::brute_force_alpha(induced))
            << "shape " << static_cast<int>(shape) << " seed " << seed;
      }
    }
  }
}

TEST(ForestPaths, SingleCliquePathHasDiameterOne) {
  // The first-ending and last-starting intervals coincide, so the closed
  // form has no pair to measure; the model is one clique.
  Graph g = complete_graph(4);
  CliqueForest forest = CliqueForest::build(g);
  auto paths = maximal_binary_paths(forest, all_active(forest));
  ASSERT_EQ(paths.size(), 1u);
  ASSERT_EQ(paths[0].cliques.size(), 1u);
  EXPECT_EQ(testing::path_diameter(forest, paths[0]), 1);
  EXPECT_EQ(testing::path_alpha(forest, paths[0]), 1);
}

}  // namespace
}  // namespace chordal
