// Differential tests of the linked-list Lex-BFS and the flat PEO verifier
// against their std::set / vector-of-vectors oracles (lexbfs_oracle.hpp):
// the Lex-BFS order must be bit-identical, and the verifier's verdict must
// match on candidate PEOs and on random (mostly non-PEO) orders.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/lexbfs.hpp"
#include "graph/peo.hpp"
#include "lexbfs_oracle.hpp"
#include "support/rng.hpp"

namespace chordal {
namespace {

using Corpus = std::vector<std::pair<std::string, Graph>>;

Graph relabeled(const Graph& g, Rng& rng) {
  const std::vector<int> perm = rng.permutation(g.num_vertices());
  GraphBuilder b(g.num_vertices());
  for (auto [u, v] : g.edges()) b.add_edge(perm[u], perm[v]);
  return b.build();
}

Graph cycle_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph gnp(int n, double p, Rng& rng) {
  GraphBuilder b(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.chance(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Chordal graph plus `extra` uniformly random edges (usually non-chordal).
Graph with_noise(const Graph& g, int extra, Rng& rng) {
  const int n = g.num_vertices();
  GraphBuilder b(n);
  for (auto [u, v] : g.edges()) b.add_edge(u, v);
  for (int i = 0; i < extra && n > 1; ++i) {
    const int u = static_cast<int>(rng.next_below(n));
    const int v = static_cast<int>(rng.next_below(n));
    if (u != v) b.add_edge(u, v);
  }
  return b.build();
}

Corpus chordal_corpus() {
  Corpus out;
  Rng rng(18);
  auto add = [&](const std::string& name, const Graph& g) {
    out.emplace_back(name, g);
    out.emplace_back(name + " relabeled", relabeled(g, rng));
  };
  for (int max_clique : {2, 3, 5, 8, 12}) {
    for (double bias : {0.0, 0.5, 0.95}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomChordalConfig c;
        c.n = 40 + static_cast<int>(seed) * 30;
        c.max_clique = max_clique;
        c.chain_bias = bias;
        c.seed = seed;
        add("random_chordal w=" + std::to_string(max_clique) +
                " bias=" + std::to_string(bias) +
                " seed=" + std::to_string(seed),
            random_chordal(c));
      }
    }
  }
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      CliqueTreeConfig c;
      c.num_bags = 60;
      c.max_bag_size = 2 + static_cast<int>(seed);
      c.shape = shape;
      c.seed = seed;
      add("clique_tree shape=" + std::to_string(static_cast<int>(shape)) +
              " seed=" + std::to_string(seed),
          random_chordal_from_clique_tree(c).graph);
    }
  }
  for (int k = 1; k <= 8; ++k) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      add("k_tree k=" + std::to_string(k) + " seed=" + std::to_string(seed),
          streaming_k_tree(k + 1 + 60 * static_cast<long long>(seed), k,
                           seed));
    }
  }
  for (int core = 1; core <= 4; ++core) {
    for (int blade_size = 1; blade_size <= 4; ++blade_size) {
      add("windmill core=" + std::to_string(core) +
              " blade=" + std::to_string(blade_size),
          windmill_graph(core, 12, blade_size));
    }
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    add("interval seed=" + std::to_string(seed),
        random_interval({.n = 150, .window = 60.0, .min_len = 0.5,
                         .max_len = 8.0, .seed = seed})
            .graph);
    add("staircase seed=" + std::to_string(seed),
        staircase_interval(120, 0.7, 0.1, seed).graph);
  }
  for (int n : {0, 1, 2, 3, 10, 257}) {
    add("path n=" + std::to_string(n), path_graph(n));
  }
  for (int n : {1, 2, 5, 40}) {
    add("complete n=" + std::to_string(n), complete_graph(n));
  }
  add("star", star_graph(30));
  add("caterpillar", caterpillar(20, 3));
  add("broom", broom(10, 12));
  add("random_tree", random_tree(200, 3));
  return out;
}

Corpus non_chordal_corpus() {
  Corpus out;
  Rng rng(1805);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomChordalConfig c;
    c.n = 150;
    c.max_clique = 2 + static_cast<int>(seed % 6);
    c.chain_bias = 0.5;
    c.seed = seed;
    const Graph base = random_chordal(c);
    for (int extra : {1, 3, 20}) {
      out.emplace_back("noisy seed=" + std::to_string(seed) +
                           " extra=" + std::to_string(extra),
                       with_noise(base, extra, rng));
    }
  }
  for (int n : {10, 40, 120}) {
    for (double p : {0.02, 0.1, 0.3, 0.7}) {
      for (int rep = 0; rep < 3; ++rep) {
        out.emplace_back("gnp n=" + std::to_string(n) +
                             " p=" + std::to_string(p) +
                             " rep=" + std::to_string(rep),
                         gnp(n, p, rng));
      }
    }
  }
  for (int n : {4, 5, 6, 9, 50}) {
    const Graph c = cycle_graph(n);
    out.emplace_back("cycle n=" + std::to_string(n), c);
    out.emplace_back("cycle n=" + std::to_string(n) + " relabeled",
                     relabeled(c, rng));
  }
  return out;
}

EliminationOrder as_elimination_order(std::vector<int> order) {
  EliminationOrder peo;
  peo.order = std::move(order);
  peo.position.assign(peo.order.size(), -1);
  for (std::size_t i = 0; i < peo.order.size(); ++i) {
    peo.position[peo.order[i]] = static_cast<int>(i);
  }
  return peo;
}

TEST(LexBfsDifferential, MatchesOracleOnChordalCorpus) {
  for (const auto& [name, g] : chordal_corpus()) {
    const std::vector<int> order = lexbfs_order(g);
    EXPECT_EQ(testing::lexbfs_order_oracle(g), order) << name;
    EXPECT_TRUE(is_chordal(g)) << name;
  }
}

TEST(LexBfsDifferential, MatchesOracleOnNonChordalInputs) {
  int rejected = 0;
  for (const auto& [name, g] : non_chordal_corpus()) {
    EXPECT_EQ(testing::lexbfs_order_oracle(g), lexbfs_order(g)) << name;
    rejected += is_chordal(g) ? 0 : 1;
  }
  // The corpus must actually exercise the non-chordal path.
  EXPECT_GT(rejected, 60);
}

TEST(PeoVerifierDifferential, AgreesWithOracle) {
  Rng rng(544);
  int accepted = 0;
  int rejected = 0;
  auto check = [&](const std::string& name, const Graph& g) {
    std::vector<EliminationOrder> orders;
    orders.push_back(peo_candidate(g));
    for (int rep = 0; rep < 4; ++rep) {
      orders.push_back(
          as_elimination_order(rng.permutation(g.num_vertices())));
    }
    for (std::size_t i = 0; i < orders.size(); ++i) {
      const bool verdict = is_perfect_elimination_order(g, orders[i]);
      EXPECT_EQ(testing::is_perfect_elimination_order_oracle(g, orders[i]),
                verdict)
          << name << " order " << i;
      (verdict ? accepted : rejected) += 1;
    }
  };
  for (const auto& [name, g] : chordal_corpus()) check(name, g);
  for (const auto& [name, g] : non_chordal_corpus()) check(name, g);
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace chordal
