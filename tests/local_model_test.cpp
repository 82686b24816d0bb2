#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "interval/rep.hpp"
#include "local/cole_vishkin.hpp"
#include "local/luby.hpp"
#include "local/network.hpp"
#include "local/ruling_set.hpp"
#include "local/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using local::CvResult;
using local::Network;

TEST(Network, DeliversOnlyAfterRoundBoundary) {
  Graph g = path_graph(3);
  Network net(g);
  net.send(0, 1, {42});
  EXPECT_TRUE(net.inbox(1).empty());
  net.deliver();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].data[0], 42);
  EXPECT_EQ(net.rounds(), 1);
  net.deliver();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, RejectsNonNeighborSend) {
  Graph g = path_graph(3);
  Network net(g);
  EXPECT_THROW(net.send(0, 2, {1}), std::invalid_argument);
}

TEST(Network, BroadcastReachesAllNeighbors) {
  Graph g = star_graph(4);
  Network net(g);
  net.broadcast(0, {7});
  net.deliver();
  for (int leaf = 1; leaf <= 4; ++leaf) {
    ASSERT_EQ(net.inbox(leaf).size(), 1u);
    EXPECT_EQ(net.inbox(leaf)[0].data[0], 7);
  }
}

TEST(Network, BroadcastSharesOnePayloadSlab) {
  Graph g = star_graph(4);  // center 0, leaves 1..4
  Network net(g);
  net.broadcast(0, {5, 6, 7});
  net.deliver();
  const local::Payload* slab = net.inbox(1)[0].data.slab();
  ASSERT_NE(slab, nullptr);
  for (int leaf = 2; leaf <= 4; ++leaf) {
    // All copies of the broadcast alias the same backing storage.
    EXPECT_EQ(net.inbox(leaf)[0].data.slab(), slab);
  }
  // Accounting is still per delivered copy: 4 messages of 3 words each.
  EXPECT_EQ(net.stats().total_messages, 4);
  EXPECT_EQ(net.stats().total_payload_words, 12);
  // Point-to-point sends keep private slabs.
  net.send(1, 0, {9});
  net.send(2, 0, {9});
  net.deliver();
  EXPECT_NE(net.inbox(0)[0].data.slab(), net.inbox(0)[1].data.slab());
}

TEST(Network, BroadcastOnIsolatedVertexIsSilentNoop) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 stays isolated
  Graph g = builder.build();
  Network net(g);
  net.broadcast(2, {99});
  net.deliver();
  for (int v = 0; v < 3; ++v) EXPECT_TRUE(net.inbox(v).empty());
  EXPECT_EQ(net.stats().total_messages, 0);
  EXPECT_EQ(net.rounds(), 1);
}

TEST(Network, InboxClearsAcrossDelivers) {
  Graph g = path_graph(3);
  Network net(g);
  net.send(0, 1, {1});
  net.deliver();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  net.send(2, 1, {2});
  net.deliver();
  // Round 1's message must be gone; only round 2's remains.
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 2);
  EXPECT_EQ(net.inbox(1)[0].data[0], 2);
  net.deliver();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, RoundCounterIsMonotone) {
  Graph g = path_graph(2);
  Network net(g);
  EXPECT_EQ(net.rounds(), 0);
  int previous = 0;
  for (int i = 0; i < 5; ++i) {
    if (i % 2 == 0) net.send(0, 1, {i});
    net.deliver();
    EXPECT_EQ(net.rounds(), previous + 1);  // +1 per deliver, even when idle
    previous = net.rounds();
  }
}

TEST(Network, StatsTrackCongestionMaxima) {
  Graph g = star_graph(3);  // center 0, leaves 1..3
  Network net(g);
  // Round 1: every leaf sends 2 words to the center.
  for (int leaf = 1; leaf <= 3; ++leaf) net.send(leaf, 0, {1, 2});
  net.deliver();
  // Round 2: one large message in the other direction.
  net.send(0, 1, {1, 2, 3, 4, 5});
  net.deliver();
  const local::NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.total_messages, 4);
  EXPECT_EQ(stats.total_payload_words, 11);
  EXPECT_EQ(stats.max_message_words, 5);
  EXPECT_EQ(stats.max_inbox_messages, 3);  // center, round 1
  EXPECT_EQ(stats.max_inbox_words, 6);     // center, round 1
  ASSERT_EQ(stats.node_max_inbox_messages.size(), 4u);
  EXPECT_EQ(stats.node_max_inbox_messages[0], 3);
  EXPECT_EQ(stats.node_max_inbox_words[0], 6);
  EXPECT_EQ(stats.node_max_inbox_messages[1], 1);
  EXPECT_EQ(stats.node_max_inbox_words[1], 5);
  EXPECT_EQ(stats.node_max_inbox_messages[2], 0);
}

TEST(Network, PublishesMetricsToRegistry) {
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);
    obs::Span phase("test phase");
    Graph g = path_graph(3);
    Network net(g);
    net.send(0, 1, {1, 2, 3});
    net.deliver();
    net.deliver();  // silent round still counts
  }
  const obs::Counter* messages = reg.find_counter("net.messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_EQ(messages->value(), 1);
  const obs::Counter* rounds = reg.find_counter("net.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value(), 2);
  const obs::Histogram* inbox_words =
      reg.find_histogram("net.node_max_inbox_words");
  ASSERT_NE(inbox_words, nullptr);
  EXPECT_EQ(inbox_words->count(), 3u);
  EXPECT_DOUBLE_EQ(inbox_words->max(), 3.0);
  // Traffic was charged to the innermost live span.
  ASSERT_EQ(reg.span_root().children.size(), 1u);
  const obs::SpanNode& span = *reg.span_root().children[0];
  EXPECT_EQ(span.rounds, 2);
  EXPECT_EQ(span.messages, 1);
  EXPECT_EQ(span.payload_words, 3);
}

// Regression (fuzz-found): publish_metrics gated on rounds_ == 0 alone, so
// a run that sent traffic but never reached deliver() (early driver exit,
// thrown exception) published nothing and its nonzero totals vanished from
// the ledger. Such runs are exactly the ones worth inspecting.
TEST(Network, PublishesTotalsWhenTrafficSentButNeverDelivered) {
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);
    Graph g = path_graph(3);
    Network net(g);
    net.send(0, 1, {1, 2, 3});
    // No deliver(): the message stays in flight.
  }
  const obs::Counter* messages = reg.find_counter("net.messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_EQ(messages->value(), 1);
  const obs::Counter* words = reg.find_counter("net.payload_words");
  ASSERT_NE(words, nullptr);
  EXPECT_EQ(words->value(), 3);
  const obs::Counter* rounds = reg.find_counter("net.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value(), 0);
}

TEST(Network, QuietNetworkStillPublishesNothing) {
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);
    Graph g = path_graph(3);
    Network net(g);  // constructed and destroyed without any traffic
  }
  EXPECT_EQ(reg.find_counter("net.messages"), nullptr);
  EXPECT_EQ(reg.find_counter("net.rounds"), nullptr);
}

TEST(CollectBall, SpanRoundsMatchCollectionRounds) {
  // Each collection charges ball_collection_rounds to the innermost span:
  // the radius under LOCAL, the drain bound through the center's edges
  // under CONGEST (B = 1 makes the star's hub and leaves drain-limited).
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"path", path_graph(9)});
  cases.push_back({"star", star_graph(12)});
  cases.push_back({"figure1", testing::paper_figure1_graph()});
  local::BallWorkspace ws;
  local::Ball ball;
  bool drain_limited = false;
  for (const auto& [name, g] : cases) {
    for (const local::BandwidthConfig& bw :
         {local::BandwidthConfig{}, local::congest(1)}) {
      for (int center = 0; center < g.num_vertices(); ++center) {
        for (int radius = 1; radius <= 3; ++radius) {
          obs::Registry reg;
          {
            obs::ScopedRegistry scope(reg);
            obs::Span span("collect");
            local::collect_ball(g, center, radius, nullptr, ws, ball, bw);
          }
          const std::int64_t words = static_cast<std::int64_t>(
              ball.vertices.size() + 2 * ball.graph.num_edges());
          const std::int64_t expected = local::ball_collection_rounds(
              radius, words, g.degree(center), bw, g.num_vertices());
          const obs::SpanNode& span = *reg.span_root().children.at(0);
          EXPECT_EQ(span.rounds, expected) << name << " center=" << center;
          EXPECT_EQ(span.messages,
                    static_cast<std::int64_t>(ball.vertices.size()));
          EXPECT_EQ(span.payload_words, words);
          if (bw.model == local::NetworkModel::kLocal) {
            EXPECT_EQ(span.rounds, radius);
          }
          drain_limited = drain_limited || span.rounds > radius;
        }
      }
    }
  }
  EXPECT_TRUE(drain_limited);
  // The path's radius-2 ball around 4 under LOCAL: five vertices, 2 rounds.
  local::collect_ball(path_graph(9), 4, 2, nullptr, ws, ball);
  EXPECT_EQ(ball.vertices.size(), 5u);
  EXPECT_EQ(ball.vertices[0], 4u);
  EXPECT_EQ(ball.graph.num_edges(), 4u);
}

TEST(ColeVishkin, PathColoringIsProperAndFast) {
  for (int n : {1, 2, 3, 10, 100, 5000}) {
    std::vector<std::int64_t> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = (i * 2654435761LL) % 1000003 + i * 1000003LL;
    CvResult cv = local::cole_vishkin_path(ids);
    ASSERT_EQ(cv.colors.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_GE(cv.colors[i], 0);
      EXPECT_LE(cv.colors[i], 2);
      if (i > 0) {
        EXPECT_NE(cv.colors[i], cv.colors[i - 1]) << "n=" << n;
      }
    }
    // log* flavor: even 5000 ids of ~60 bits need very few rounds.
    EXPECT_LE(cv.rounds, 12) << "n=" << n;
  }
}

TEST(ColeVishkin, ForestColoringIsProper) {
  Graph g = random_tree(300, 3);
  // Root at 0; parents via BFS order.
  std::vector<int> parent(300, -1);
  std::vector<int> order;
  std::vector<char> seen(300, 0);
  order.push_back(0);
  seen[0] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    int v = order[head];
    for (int w : g.neighbors(v)) {
      if (!seen[w]) {
        seen[w] = 1;
        parent[w] = v;
        order.push_back(w);
      }
    }
  }
  std::vector<std::int64_t> ids(300);
  for (int i = 0; i < 300; ++i) ids[i] = i * 977 + 13;
  CvResult cv = local::cole_vishkin_pseudoforest(ids, parent);
  for (int v = 0; v < 300; ++v) {
    if (parent[v] != -1) {
      EXPECT_NE(cv.colors[v], cv.colors[parent[v]]);
    }
  }
}

TEST(ColeVishkin, RejectsMismatchedInput) {
  std::vector<std::int64_t> ids = {1, 2};
  std::vector<int> parent = {-1};
  EXPECT_THROW(local::cole_vishkin_pseudoforest(ids, parent),
               std::invalid_argument);
}

std::vector<int> distances_from(const PathIntervals& rep, std::size_t source) {
  PathScratch scratch;
  std::vector<int> dist;
  interval_distances(rep, std::span<const std::size_t>(&source, 1), -1,
                     scratch, dist);
  return dist;
}

PathIntervals line_rep(int n) {
  // Unit-ish intervals [i, i+1]: a path-like proper interval graph.
  PathIntervals rep;
  rep.num_positions = n + 1;
  for (int i = 0; i < n; ++i) {
    rep.vertices.push_back(i);
    rep.lo.push_back(i);
    rep.hi.push_back(i + 1);
  }
  return rep;
}

TEST(IntervalDistances, MatchGraphBfsOnRandomModels) {
  for (std::uint64_t seed : {2u, 4u, 8u}) {
    auto gen = random_interval({.n = 50, .window = 25.0, .min_len = 1.0,
                                .max_len = 4.0, .seed = seed});
    auto rep = interval::from_geometry(gen.left, gen.right);
    Graph g = interval::to_graph(rep);
    for (std::size_t s = 0; s < 50; s += 9) {
      auto by_rep = distances_from(rep, s);
      auto by_bfs = bfs_distances(g, static_cast<int>(s));
      for (int v = 0; v < 50; ++v) {
        EXPECT_EQ(by_rep[v], by_bfs[v]) << "seed " << seed << " src " << s;
      }
    }
  }
}

TEST(RulingSet, DistanceKMisContract) {
  for (int k : {1, 2, 3, 5, 8}) {
    PathIntervals rep = line_rep(60);
    auto result = local::distance_k_mis_interval(rep, k);
    ASSERT_FALSE(result.anchors.empty());
    // Independence in G^k and maximality.
    std::vector<std::vector<int>> dists;
    for (std::size_t a : result.anchors) {
      dists.push_back(distances_from(rep, a));
    }
    for (std::size_t i = 0; i < result.anchors.size(); ++i) {
      for (std::size_t j = i + 1; j < result.anchors.size(); ++j) {
        EXPECT_GT(dists[i][result.anchors[j]], k) << "k=" << k;
      }
    }
    for (std::size_t v = 0; v < rep.vertices.size(); ++v) {
      int best = 1 << 30;
      for (const auto& d : dists) best = std::min(best, d[v]);
      EXPECT_LE(best, k) << "k=" << k << " vertex " << v;
    }
    EXPECT_GT(result.rounds, 0);
  }
}

TEST(RulingSet, WorksOnRandomIntervalModels) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    auto gen = random_interval({.n = 120, .window = 200.0, .min_len = 1.0,
                                .max_len = 6.0, .seed = seed});
    auto rep = interval::from_geometry(gen.left, gen.right);
    const interval::Components comps = interval::components(rep);
    for (std::size_t c = 0; c < comps.size(); ++c) {
      auto sub = interval::restrict(rep, comps[c]);
      auto result = local::distance_k_mis_interval(sub, 3);
      for (std::size_t v = 0; v < sub.vertices.size(); ++v) {
        int best = 1 << 30;
        for (std::size_t a : result.anchors) {
          auto d = distances_from(sub, a);
          best = std::min(best, d[v]);
        }
        EXPECT_LE(best, 3);
      }
    }
  }
}

TEST(Luby, ComputesMaximalIndependentSet) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    RandomChordalConfig config;
    config.n = 200;
    config.max_clique = 5;
    config.seed = seed;
    Graph g = random_chordal(config);
    auto result = local::luby_mis(g, seed * 31 + 1);
    EXPECT_TRUE(testing::is_independent_set(g, result.independent_set));
    // Maximality: every vertex is in the set or adjacent to it.
    std::set<int> in(result.independent_set.begin(),
                     result.independent_set.end());
    for (int v = 0; v < g.num_vertices(); ++v) {
      bool covered = in.count(v) > 0;
      for (int w : g.neighbors(v)) covered = covered || in.count(w) > 0;
      EXPECT_TRUE(covered) << "vertex " << v;
    }
    EXPECT_GT(result.rounds, 0);
    // Luby terminates in O(log n) phases with high probability.
    EXPECT_LE(result.phases, 40);
  }
}

}  // namespace
}  // namespace chordal
