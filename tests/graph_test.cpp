#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graphio.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

TEST(GraphBuilder, DeduplicatesAndSortsNeighbors) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate in reverse
  b.add_edge(3, 1);
  b.add_edge(2, 3);
  Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3u);
  auto nb = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 2u);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphBuilder, RejectsBadEdges) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(b.add_edge(-1, 0), std::out_of_range);
}

TEST(Graph, EdgesRoundTripThroughIo) {
  Graph g = testing::paper_figure1_graph();
  Graph g2 = graph_from_string(graph_to_string(g));
  EXPECT_EQ(g2.num_vertices(), g.num_vertices());
  EXPECT_EQ(g2.edges(), g.edges());
}

// Regression (fuzz-found): read_graph trusted its header. A negative m
// wrapped through size_t into a misleading "truncated" error, an absurd m
// allocated unbounded work, and endpoint errors leaked GraphBuilder
// exceptions with no line context. Every field is now validated before the
// builder, and messages name the offending line.
TEST(Graph, ReadGraphRejectsHostileHeadersWithLineContext) {
  struct Case {
    const char* text;
    const char* expect_fragment;
  };
  const Case kCases[] = {
      {"", "line 1"},
      {"x", "expected vertex count"},
      {"-3 1\n0 1\n", "negative vertex count"},
      {"2147483648 0\n", "overflows the"},
      {"2 -1\n", "negative edge count"},
      {"3 99\n", "exceeds n*(n-1)/2"},
      {"3 1\n", "truncated edge list"},
      {"3 1\n0", "truncated edge list"},
      {"3 1\n0 zz\n", "truncated edge list"},
      {"3 1\n0 5\n", "endpoint out of range"},
      {"3 1\n-1 2\n", "endpoint out of range"},
      {"3 1\n1 1\n", "self-loop"},
      {"3 2\n0 1\n1 3\n", "line 3"},  // second edge line is line 3
  };
  for (const Case& c : kCases) {
    try {
      graph_from_string(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("read_graph"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(c.expect_fragment),
                std::string::npos)
          << "input " << c.text << " gave: " << e.what();
    }
  }
}

TEST(Graph, ReadGraphAcceptsDuplicatesAndCanonicalizes) {
  // Duplicate edge lines are legal input (the builder deduplicates); the
  // parse must reach the canonical fixpoint in one serialize/reparse.
  Graph g = graph_from_string("4 3\n0 1\n1 0\n2 3\n");
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2u);
  Graph g2 = graph_from_string(graph_to_string(g));
  EXPECT_EQ(g2.edges(), g.edges());
  // Degenerate but legal: empty graph and isolated vertices.
  EXPECT_EQ(graph_from_string("0 0\n").num_vertices(), 0);
  EXPECT_EQ(graph_from_string("5 0\n").num_edges(), 0u);
}

TEST(Graph, InducedSubgraphRelabelsConsistently) {
  Graph g = path_graph(6);
  std::vector<int> keep = {1, 3, 4};
  std::vector<int> orig;
  Graph sub = g.induced_subgraph(keep, &orig);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(orig, keep);
  EXPECT_TRUE(sub.has_edge(1, 2));   // 3-4 edge survives
  EXPECT_FALSE(sub.has_edge(0, 1));  // 1-3 were not adjacent
  EXPECT_EQ(sub.num_edges(), 1u);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  Graph g = path_graph(4);
  std::vector<int> bad = {1, 1};
  EXPECT_THROW(g.induced_subgraph(bad), std::invalid_argument);
}

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(distance_between(g, 1, 4), 3);
}

TEST(Bfs, RestrictedSearchRespectsActiveSet) {
  Graph g = path_graph(5);
  std::vector<char> active = {1, 1, 0, 1, 1};
  auto dist = bfs_distances_restricted(g, 0, active);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], -1);  // cut off by inactive vertex 2
}

TEST(Bfs, BallCollectsClosedNeighborhoodByRadius) {
  Graph g = testing::paper_figure1_graph();
  // Paper node 10 = vertex 9; Figure 3's Gamma^2[10] in 0-indexed terms.
  auto ball = ball_vertices(g, 9, 2);
  std::sort(ball.begin(), ball.end());
  EXPECT_EQ(ball, (std::vector<VertexId>{1, 3, 7, 8, 9, 10, 11, 12}));
}

TEST(Components, CountsAndGroups) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Graph g = b.build();
  auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 4);
  auto groups = comps.groups();
  EXPECT_EQ(groups.size(), 4u);
}

TEST(Components, RestrictedIgnoresInactive) {
  Graph g = path_graph(5);
  std::vector<char> active = {1, 1, 0, 1, 1};
  auto comps = connected_components_restricted(g, active);
  EXPECT_EQ(comps.count, 2);
  EXPECT_EQ(comps.component[2], -1);
}

TEST(Diameter, ExactAndDoubleSweepAgreeOnTrees) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = random_tree(40, seed);
    EXPECT_EQ(diameter_exact(g), diameter_double_sweep(g)) << "seed " << seed;
  }
}

TEST(Diameter, ThrowsOnDisconnected) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_THROW(diameter_exact(g), std::invalid_argument);
}

TEST(Generators, FamiliesHaveExpectedShape) {
  EXPECT_EQ(path_graph(7).num_edges(), 6u);
  EXPECT_EQ(complete_graph(5).num_edges(), 10u);
  EXPECT_EQ(star_graph(8).num_edges(), 8u);
  Graph cat = caterpillar(4, 2);
  EXPECT_EQ(cat.num_vertices(), 12);
  EXPECT_EQ(cat.num_edges(), 11u);  // tree
  Graph br = broom(5, 3);
  EXPECT_EQ(br.num_vertices(), 8);
  EXPECT_EQ(br.degree(4), 4);  // end of handle holds bristles
}

TEST(Generators, RandomTreeIsTree) {
  Graph g = random_tree(50, 7);
  EXPECT_EQ(g.num_edges(), 49u);
  EXPECT_EQ(connected_components(g).count, 1);
}

TEST(Generators, RandomIntervalMatchesGeometry) {
  auto gen = random_interval({.n = 60, .window = 30.0, .min_len = 1.0,
                              .max_len = 5.0, .seed = 11});
  for (int u = 0; u < 60; ++u) {
    for (int v = u + 1; v < 60; ++v) {
      bool overlap = gen.left[u] <= gen.right[v] && gen.left[v] <= gen.right[u];
      EXPECT_EQ(gen.graph.has_edge(u, v), overlap) << u << "," << v;
    }
  }
}

TEST(Generators, KTreeHasRightEdgeCount) {
  Graph g = streaming_k_tree(30, 3, 5);
  // k-tree edges: C(k+1,2) + (n-k-1)*k.
  EXPECT_EQ(g.num_edges(), 6u + 26u * 3u);
}

}  // namespace
}  // namespace chordal
