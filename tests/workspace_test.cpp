// Ball collection and local views: the workspace forms of collect_ball and
// compute_local_view must be bit-identical to the allocating oracles in
// local_view_oracle.hpp, including after heavy reuse of one workspace,
// at radius 1, under restricted and disconnected active sets, and must
// record the collection telemetry. The Fulkerson-Gross extraction the
// views run on their ball graphs is checked against Bron-Kerbosch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "graph/bfs.hpp"
#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "local/workspace.hpp"
#include "local_view_oracle.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using local::Ball;
using local::BallWorkspace;

std::vector<std::vector<int>> adjacency(const Graph& g) {
  std::vector<std::vector<int>> adj;
  adj.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& nbrs = g.neighbors(v);
    adj.emplace_back(nbrs.begin(), nbrs.end());
  }
  return adj;
}

void expect_same_ball(const Ball& ref, const Ball& ws) {
  EXPECT_EQ(ref.vertices, ws.vertices);
  EXPECT_EQ(ref.dist, ws.dist);
  ASSERT_EQ(ref.graph.num_vertices(), ws.graph.num_vertices());
  EXPECT_EQ(ref.graph.num_edges(), ws.graph.num_edges());
  EXPECT_EQ(adjacency(ref.graph), adjacency(ws.graph));
}

void expect_same_view(const LocalView& ref, const LocalView& ws) {
  EXPECT_EQ(ref.cliques, ws.cliques);
  EXPECT_EQ(ref.trusted_vertices, ws.trusted_vertices);
  EXPECT_EQ(ref.forest_edges, ws.forest_edges);
}

/// Two triangles and a path joined through vertices 3 and 7; knocking those
/// out leaves an active set of three components plus an isolated vertex.
struct SplitGraph {
  Graph g;
  std::vector<char> active;
};

SplitGraph split_graph() {
  GraphBuilder b(12);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4},
                      {4, 5}, {5, 6}, {4, 6}, {6, 7}, {7, 8}, {8, 9},
                      {9, 10}, {3, 11}}) {
    b.add_edge(u, v);
  }
  SplitGraph s{b.build(), std::vector<char>(12, 1)};
  s.active[3] = 0;
  s.active[7] = 0;
  return s;
}

TEST(BallWorkspace, CollectBallMatchesAllocatingPath) {
  Graph g = testing::paper_figure1_graph();
  BallWorkspace workspace;
  Ball out;
  for (int radius = 1; radius <= 5; ++radius) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      Ball ref = testing::collect_ball_oracle(g, v, radius);
      local::collect_ball(g, v, radius, nullptr, workspace, out);
      expect_same_ball(ref, out);
    }
  }
}

TEST(BallWorkspace, CollectBallMatchesUnderActiveMask) {
  RandomChordalConfig config;
  config.n = 120;
  config.max_clique = 5;
  config.seed = 7;
  Graph g = random_chordal(config);
  // Deterministic mask knocking out a third of the vertices.
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 0; v < g.num_vertices(); v += 3) active[v] = 0;
  BallWorkspace workspace;
  Ball out;
  for (int radius : {1, 3}) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!active[v]) continue;
      Ball ref = testing::collect_ball_oracle(g, v, radius, &active);
      local::collect_ball(g, v, radius, &active, workspace, out);
      expect_same_ball(ref, out);
    }
  }
}

TEST(BallWorkspace, DisconnectedActiveSetMatchesOracle) {
  // Balls must stop at the inactive cut vertices: the active subgraph has
  // components {0,1,2}, {4,5,6}, {8,9,10} and {11}.
  SplitGraph s = split_graph();
  BallWorkspace workspace;
  Ball ball;
  LocalView view;
  for (int radius = 1; radius <= 4; ++radius) {
    for (int v = 0; v < s.g.num_vertices(); ++v) {
      if (!s.active[v]) continue;
      Ball ref = testing::collect_ball_oracle(s.g, v, radius, &s.active);
      local::collect_ball(s.g, v, radius, &s.active, workspace, ball);
      expect_same_ball(ref, ball);
      EXPECT_LE(ball.vertices.size(), 3u) << "v=" << v;
      local::compute_local_view(s.g, v, radius, &s.active, workspace, view);
      expect_same_view(testing::local_view_oracle(s.g, v, radius, &s.active),
                       view);
    }
  }
  EXPECT_THROW(local::collect_ball(s.g, 3, 2, &s.active, workspace, ball),
               std::invalid_argument);
}

TEST(BallWorkspace, ReusedWorkspaceStaysExact) {
  // The whole point of the workspace: repeated collections on one instance
  // must not leak state between calls (epoch stamping, no clears), also
  // when ball collections, masked views and a second graph interleave.
  Graph g = caterpillar(30, 2);
  Graph other = testing::paper_figure1_graph();
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 2; v < g.num_vertices(); v += 5) active[v] = 0;
  BallWorkspace workspace;
  Ball out;
  LocalView view;
  for (int pass = 0; pass < 3; ++pass) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      int radius = 1 + (v + pass) % 4;
      Ball ref = testing::collect_ball_oracle(g, v, radius);
      local::collect_ball(g, v, radius, nullptr, workspace, out);
      expect_same_ball(ref, out);
      if (active[v]) {
        local::compute_local_view(g, v, radius + 1, &active, workspace, view);
        expect_same_view(testing::local_view_oracle(g, v, radius + 1, &active),
                         view);
      }
      int w = v % other.num_vertices();
      local::compute_local_view(other, w, radius, nullptr, workspace, view);
      expect_same_view(testing::local_view_oracle(other, w, radius), view);
    }
  }
}

TEST(BallWorkspace, ChargesSameTelemetry) {
  // One ball.collections tick and one ball.volume_words sample (the
  // adjacency encoding of the collected ball) per collection.
  Graph g = testing::paper_figure1_graph();
  obs::Registry expected_reg, reg;
  for (int v = 0; v < g.num_vertices(); ++v) {
    Ball ref = testing::collect_ball_oracle(g, v, 3);
    expected_reg.histogram("ball.volume_words")
        .add(static_cast<double>(ref.vertices.size() +
                                 2 * ref.graph.num_edges()));
  }
  {
    obs::ScopedRegistry scope(reg);
    BallWorkspace workspace;
    Ball out;
    for (int v = 0; v < g.num_vertices(); ++v) {
      local::collect_ball(g, v, 3, nullptr, workspace, out);
    }
  }
  const obs::Counter* collections = reg.find_counter("ball.collections");
  ASSERT_NE(collections, nullptr);
  EXPECT_EQ(collections->value(), static_cast<std::int64_t>(g.num_vertices()));
  const obs::Histogram* ref_h =
      expected_reg.find_histogram("ball.volume_words");
  const obs::Histogram* ws_h = reg.find_histogram("ball.volume_words");
  ASSERT_NE(ws_h, nullptr);
  EXPECT_EQ(ref_h->count(), ws_h->count());
  EXPECT_EQ(ref_h->mean(), ws_h->mean());
  EXPECT_EQ(ref_h->max(), ws_h->max());
}

TEST(BallWorkspace, LocalViewMatchesAllocatingPath) {
  Graph g = testing::paper_figure1_graph();
  BallWorkspace workspace;
  LocalView out;
  for (int radius = 1; radius <= 6; ++radius) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      LocalView ref = testing::local_view_oracle(g, v, radius);
      local::compute_local_view(g, v, radius, nullptr, workspace, out);
      expect_same_view(ref, out);
    }
  }
  EXPECT_THROW(local::compute_local_view(g, 0, 0, nullptr, workspace, out),
               std::invalid_argument);
}

TEST(BallWorkspace, LocalViewMatchesOnRandomChordalWithMask) {
  RandomChordalConfig config;
  config.n = 90;
  config.max_clique = 4;
  config.chain_bias = 0.8;
  config.seed = 21;
  Graph g = random_chordal(config);
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 1; v < g.num_vertices(); v += 4) active[v] = 0;
  BallWorkspace workspace;
  LocalView out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!active[v]) continue;
    LocalView ref = testing::local_view_oracle(g, v, 4, &active);
    local::compute_local_view(g, v, 4, &active, workspace, out);
    expect_same_view(ref, out);
  }
}

TEST(BallWorkspace, LastBallDistReportsRestrictedDistances) {
  Graph g = path_graph(12);
  BallWorkspace workspace;
  LocalView out;
  local::compute_local_view(g, 5, 3, nullptr, workspace, out);
  for (int v = 0; v < g.num_vertices(); ++v) {
    int expected = std::abs(v - 5) <= 3 ? std::abs(v - 5) : -1;
    EXPECT_EQ(workspace.last_ball_dist(v), expected) << "v=" << v;
  }
  // Under a mask: the restricted BFS distance inside the radius, else -1.
  SplitGraph s = split_graph();
  local::compute_local_view(s.g, 4, 2, &s.active, workspace, out);
  std::vector<int> dist = bfs_distances_restricted(s.g, 4, s.active);
  for (int v = 0; v < s.g.num_vertices(); ++v) {
    int expected = dist[v] >= 0 && dist[v] <= 2 ? dist[v] : -1;
    EXPECT_EQ(workspace.last_ball_dist(v), expected) << "v=" << v;
  }
}

TEST(BallWorkspace, FulkersonGrossMatchesBruteforceOnBallGraphs) {
  // The family extraction compute_local_view runs on each collected ball
  // graph equals Bron-Kerbosch on that graph, masked or not.
  std::vector<std::pair<std::string, Graph>> graphs;
  for (TreeShape shape : {TreeShape::kCaterpillar, TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 40;
    config.shape = shape;
    config.seed = 31;
    graphs.emplace_back("clique_tree_" + std::to_string(static_cast<int>(shape)),
                        random_chordal_from_clique_tree(config).graph);
  }
  for (std::uint64_t seed : {3, 11}) {
    RandomChordalConfig config;
    config.n = 80;
    config.max_clique = 5;
    config.chain_bias = 0.7;
    config.seed = seed;
    graphs.emplace_back("random_chordal_" + std::to_string(seed),
                        random_chordal(config));
  }
  BallWorkspace workspace;
  Ball ball;
  for (const auto& [name, g] : graphs) {
    std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
    for (int v = 1; v < g.num_vertices(); v += 4) active[v] = 0;
    for (bool masked : {false, true}) {
      for (int radius = 2; radius <= 5; ++radius) {
        for (int v = 0; v < g.num_vertices(); v += 3) {
          if (masked && !active[v]) continue;
          local::collect_ball(g, v, radius, masked ? &active : nullptr,
                              workspace, ball);
          EXPECT_EQ(maximal_cliques_chordal_family(ball.graph),
                    CliqueFamily(maximal_cliques_bruteforce(ball.graph)))
              << name << " v=" << v << " radius=" << radius
              << (masked ? " masked" : "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace chordal
