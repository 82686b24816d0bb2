// Differential fuzz suite for the near-linear clique-forest engine: the
// counting-sort W_G enumeration (wcig_edges_counting), the separator-
// candidate MWSF (max_weight_spanning_forest) and the per-family forests
// (family_forest_edges) must be bit-identical to the allocating reference
// oracle (wcig_edges + wcig_edge_less + max_weight_spanning_forest_oracle)
// on every workload - including the all-equal-weight tie storms of k-trees
// and unit-interval chains, where only the paper's deterministic
// (weight, word, word) order separates the candidate edges. On top of the
// construction-level checks, the drivers (MVC with per-node local views,
// MIS) must produce identical outputs and identical scrubbed telemetry
// at every thread count (1/2/8).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "audit/fuzzers.hpp"
#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "local/workspace.hpp"
#include "local_view_oracle.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

std::vector<std::array<int, 3>> flat(const std::vector<WcigEdge>& edges) {
  std::vector<std::array<int, 3>> out;
  out.reserve(edges.size());
  for (const auto& e : edges) out.push_back({e.a, e.b, e.weight});
  return out;
}

/// Differential workloads. The k-trees and unit-interval chains are the tie
/// storms: every separator of a k-tree has exactly k vertices, so whole
/// weight classes collide and the word order alone decides the forest.
std::vector<std::pair<std::string, Graph>> engine_workloads() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("paper_figure1", testing::paper_figure1_graph());
  for (std::uint64_t seed : {1, 7, 42}) {
    RandomChordalConfig config;
    config.n = 180;
    config.max_clique = 6;
    config.chain_bias = 0.7;
    config.seed = seed;
    out.emplace_back("random_chordal_" + std::to_string(seed),
                     random_chordal(config));
  }
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    CliqueTreeConfig config;
    config.num_bags = 70;
    config.shape = shape;
    config.seed = 13;
    out.emplace_back(
        "clique_tree_" + std::to_string(static_cast<int>(shape)),
        random_chordal_from_clique_tree(config).graph);
  }
  out.emplace_back("k_tree_2", streaming_k_tree(120, 2, 3));
  out.emplace_back("k_tree_4", streaming_k_tree(150, 4, 9));
  out.emplace_back("staircase_interval",
                   staircase_interval(160, 0.7, 0.1, 5).graph);
  out.emplace_back("unit_interval",
                   random_unit_interval(140, 60.0, 11).graph);
  out.emplace_back("path", path_graph(60));
  out.emplace_back("star", star_graph(12));
  out.emplace_back("complete", complete_graph(12));
  {
    GraphBuilder b(9);  // three components incl. an isolated vertex
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    b.add_edge(3, 4);
    b.add_edge(5, 6);
    b.add_edge(6, 7);
    out.emplace_back("disconnected", b.build());
  }
  return out;
}

class EngineRestorer {
 public:
  ~EngineRestorer() { support::set_num_threads(0); }
};

/// Registry JSON with wall-clock timings removed; everything else must
/// match byte for byte.
std::string scrub_volatile(const std::string& json) {
  std::string out;
  std::size_t i = 0;
  while (i < json.size()) {
    bool drop = json.compare(i, 10, "\"wall_ms\":") == 0;
    if (!drop) {
      out.push_back(json[i]);
      ++i;
      continue;
    }
    ++i;  // opening quote of the key
    while (i < json.size() && json[i] != '"') ++i;
    i += 2;  // closing quote and ':'
    if (i < json.size() && (json[i] == '{' || json[i] == '[')) {
      int depth = 0;
      do {
        if (json[i] == '{' || json[i] == '[') ++depth;
        if (json[i] == '}' || json[i] == ']') --depth;
        ++i;
      } while (i < json.size() && depth > 0);
    } else {
      while (i < json.size() && json[i] != ',' && json[i] != '}') ++i;
    }
    if (i < json.size() && json[i] == ',') {
      ++i;  // the dropped member's separator
    } else if (!out.empty() && out.back() == ',') {
      out.pop_back();  // dropped the last member of its object
    }
  }
  return out;
}

TEST(ForestEngine, WcigCountingMatchesReference) {
  ForestScratch scratch;  // shared across workloads: epochs must not leak
  std::vector<WcigEdge> fast;
  for (const auto& [name, g] : engine_workloads()) {
    auto cliques = maximal_cliques_chordal(g);
    auto reference = wcig_edges(cliques, g.num_vertices());
    wcig_edges_counting(CliqueFamily(cliques), g.num_vertices(), scratch,
                        fast);
    EXPECT_EQ(flat(reference), flat(fast)) << name;
  }
}

TEST(ForestEngine, MwsfMatchesReferenceOnCanonicalFamilies) {
  ForestScratch scratch;
  std::vector<WcigEdge> fast;
  for (const auto& [name, g] : engine_workloads()) {
    auto cliques = maximal_cliques_chordal(g);
    ASSERT_TRUE(cliques_lex_sorted(CliqueFamily(cliques))) << name;
    auto reference =
        max_weight_spanning_forest_oracle(cliques, g.num_vertices());
    max_weight_spanning_forest(CliqueFamily(cliques), g.num_vertices(),
                               scratch, fast);
    EXPECT_EQ(flat(reference), flat(fast)) << name;
  }
}

TEST(ForestEngine, MwsfMatchesReferenceOnShuffledFamilies) {
  // Non-canonical clique order exercises the explicit lexicographic
  // ranking + radix reorder path; the reference compares words directly and
  // is order-robust by construction.
  ForestScratch scratch;
  std::vector<WcigEdge> fast;
  std::mt19937 rng(20240807);
  for (const auto& [name, g] : engine_workloads()) {
    auto cliques = maximal_cliques_chordal(g);
    std::shuffle(cliques.begin(), cliques.end(), rng);
    auto reference =
        max_weight_spanning_forest_oracle(cliques, g.num_vertices());
    max_weight_spanning_forest(CliqueFamily(cliques), g.num_vertices(),
                               scratch, fast);
    EXPECT_EQ(flat(reference), flat(fast)) << name;
  }
}

TEST(ForestEngine, MwsfMatchesReferenceOnHubFamilies) {
  // Hub packs: windmills, a star, K_7 and k-trees up to k = 8, where phi of
  // a hub vertex spans most cliques - W_G is quadratic there, the engine's
  // separator candidates are not, and whole weight classes tie.
  ForestScratch scratch;
  std::vector<WcigEdge> fast;
  std::mt19937 rng(15);
  auto check = [&](const std::string& name, const Graph& g) {
    auto cliques = maximal_cliques_chordal(g);
    for (bool shuffled : {false, true}) {
      if (shuffled) std::shuffle(cliques.begin(), cliques.end(), rng);
      auto reference =
          max_weight_spanning_forest_oracle(cliques, g.num_vertices());
      max_weight_spanning_forest(CliqueFamily(cliques), g.num_vertices(),
                                 scratch, fast);
      EXPECT_EQ(flat(reference), flat(fast))
          << name << (shuffled ? " shuffled" : " canonical");
    }
  };
  for (int core = 1; core <= 4; ++core) {
    for (int blade_size = 1; blade_size <= 4; ++blade_size) {
      check("windmill core=" + std::to_string(core) +
                " blade=" + std::to_string(blade_size),
            windmill_graph(core, 40, blade_size));
    }
  }
  check("star", star_graph(40));
  check("complete", complete_graph(7));
  for (int k = 1; k <= 8; ++k) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      check("k_tree k=" + std::to_string(k) + " seed=" + std::to_string(seed),
            streaming_k_tree(2 * k + 2 + static_cast<int>(seed), k, seed));
    }
  }
}

TEST(ForestEngine, CandidatesAreTheForestOnKTrees) {
  // Every separator of a k-tree is a k-set whose holders meet exactly in
  // it, so the candidate list is exactly the forest: cliques - 1 edges,
  // where W_G has sum_v |phi(v)|^2 of them. A count, not a timing, so a
  // return of the quadratic term fails here on any machine.
  struct Case {
    int n, k;
    std::uint64_t seed;
  };
  for (Case c : {Case{20000, 8, 17}, Case{50000, 3, 5}}) {
    Graph g = streaming_k_tree(c.n, c.k, c.seed);
    CliqueFamily family = maximal_cliques_chordal_family(g);
    ForestScratch scratch;
    std::vector<WcigEdge> out;
    max_weight_spanning_forest(family, g.num_vertices(), scratch, out);
    EXPECT_EQ(scratch.edges.size(), family.size() - 1) << "k=" << c.k;
    EXPECT_EQ(out.size(), family.size() - 1) << "k=" << c.k;
  }
}

TEST(ForestEngine, FamilyEngineMatchesPerFamilyReference) {
  ForestScratch scratch;
  for (const auto& [name, g] : engine_workloads()) {
    CliqueForest forest = CliqueForest::build(g);
    std::vector<std::pair<int, int>> fast;
    for (int v = 0; v < g.num_vertices(); ++v) {
      const auto& family = forest.cliques_of(v);
      if (family.size() < 2) continue;
      std::vector<std::vector<int>> family_cliques;
      for (int c : family) family_cliques.push_back(word_vec(forest.clique(c)));
      std::vector<std::pair<int, int>> reference;
      for (const auto& e : max_weight_spanning_forest_oracle(
               family_cliques, g.num_vertices())) {
        reference.emplace_back(family[e.a], family[e.b]);
      }
      fast.clear();
      family_forest_edges(forest.cliques(), family, scratch, fast);
      EXPECT_EQ(reference, fast) << name << " vertex " << v;
    }
  }
}

TEST(ForestEngine, FamilyEngineMatchesReferenceOnWholeFamilies) {
  // The dynamic forest's region rebuild hands family_forest_edges families
  // whose W is not complete: distant interval cliques, and separate
  // components. Zero-weight pairs must simply stay out of the Kruskal.
  std::vector<std::pair<std::string, Graph>> cases;
  for (std::uint64_t seed : {2, 5, 23}) {
    RandomChordalConfig config;
    config.n = 150;
    config.max_clique = 5;
    config.chain_bias = 0.6;
    config.seed = seed;
    cases.emplace_back("random_chordal_" + std::to_string(seed),
                       random_chordal(config));
    cases.emplace_back("unit_interval_" + std::to_string(seed),
                       random_unit_interval(160, 50.0, seed).graph);
    cases.emplace_back("union_" + std::to_string(seed),
                       audit::disconnected_union(seed));
  }
  ForestScratch scratch;
  std::vector<CliqueId> ids;
  std::vector<std::pair<int, int>> fast;
  for (const auto& [name, g] : cases) {
    CliqueFamily family = maximal_cliques_chordal_family(g);
    std::vector<std::pair<int, int>> reference;
    for (const auto& e :
         max_weight_spanning_forest_oracle(family, g.num_vertices())) {
      reference.emplace_back(e.a, e.b);
    }
    ids.resize(family.size());
    std::iota(ids.begin(), ids.end(), CliqueId{0});
    fast.clear();
    family_forest_edges(family, ids, scratch, fast);
    EXPECT_EQ(reference, fast) << name;
  }
}

TEST(ForestEngine, LocalViewsMatchOracleAllPaths) {
  local::BallWorkspace ws;
  LocalView ws_view;
  for (const auto& [name, g] : engine_workloads()) {
    if (g.num_vertices() < 2) continue;
    for (int radius : {2, 4}) {
      for (int v = 0; v < g.num_vertices(); v += 5) {
        LocalView oracle = testing::local_view_oracle(g, v, radius);
        local::compute_local_view(g, v, radius, nullptr, ws, ws_view);
        EXPECT_EQ(oracle.cliques, ws_view.cliques) << name;
        EXPECT_EQ(oracle.forest_edges, ws_view.forest_edges) << name;
        EXPECT_EQ(oracle.trusted_vertices, ws_view.trusted_vertices) << name;
      }
    }
  }
}

TEST(ForestEngine, LocalViewsMatchOracleUnderActivityMask) {
  RandomChordalConfig config;
  config.n = 150;
  config.max_clique = 5;
  config.chain_bias = 0.8;
  config.seed = 77;
  Graph g = random_chordal(config);
  std::vector<char> active(static_cast<std::size_t>(g.num_vertices()), 1);
  for (int v = 0; v < g.num_vertices(); v += 3) active[v] = 0;
  local::BallWorkspace ws;
  LocalView ws_view;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!active[v]) continue;
    LocalView oracle = testing::local_view_oracle(g, v, 4, &active);
    local::compute_local_view(g, v, 4, &active, ws, ws_view);
    EXPECT_EQ(oracle.cliques, ws_view.cliques);
    EXPECT_EQ(oracle.forest_edges, ws_view.forest_edges);
    EXPECT_EQ(oracle.trusted_vertices, ws_view.trusted_vertices);
  }
}

TEST(ForestEngine, BuildMatchesReferenceForest) {
  // The full pipeline (CliqueForest::build) must store exactly the forest
  // the reference Kruskal selects on the same canonical family.
  for (const auto& [name, g] : engine_workloads()) {
    CliqueForest forest = CliqueForest::build(g);
    auto cliques = maximal_cliques_chordal(g);
    EXPECT_EQ(CliqueFamily(cliques), forest.cliques()) << name;
    std::vector<std::pair<int, int>> reference;
    for (const auto& e :
         max_weight_spanning_forest_oracle(cliques, g.num_vertices())) {
      reference.emplace_back(e.a, e.b);
    }
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(reference, forest.forest_edges()) << name;
  }
}

TEST(ForestEngine, DriverOutputsAndTelemetryEngineInvariant) {
  // MVC through per-node local views (one Lemma 2 family selection per
  // active node per peel iteration - the engine's hottest consumer) and the
  // full MIS driver: outputs and scrubbed telemetry must be identical at
  // every thread count.
  EngineRestorer restore;
  RandomChordalConfig config;
  config.n = 160;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 5;
  Graph g = random_chordal(config);
  core::MvcOptions options;
  options.pruning = core::PruningMode::kPerNodeLocalViews;
  std::vector<core::MvcResult> mvc_results;
  std::vector<core::MisResult> mis_results;
  std::vector<std::string> telemetry;
  std::vector<std::string> labels;
  for (int threads : {1, 2, 8}) {
    support::set_num_threads(threads);
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      mvc_results.push_back(core::mvc_chordal(g, options));
      mis_results.push_back(core::mis_chordal(g));
    }
    telemetry.push_back(scrub_volatile(reg.to_json()));
    labels.push_back("threads=" + std::to_string(threads));
  }
  for (std::size_t i = 1; i < mvc_results.size(); ++i) {
    EXPECT_EQ(mvc_results[0].colors, mvc_results[i].colors) << labels[i];
    EXPECT_EQ(mvc_results[0].num_colors, mvc_results[i].num_colors)
        << labels[i];
    EXPECT_EQ(mvc_results[0].rounds, mvc_results[i].rounds) << labels[i];
    EXPECT_EQ(mvc_results[0].pruning_rounds, mvc_results[i].pruning_rounds)
        << labels[i];
    EXPECT_EQ(mvc_results[0].num_layers, mvc_results[i].num_layers)
        << labels[i];
    EXPECT_EQ(mis_results[0].chosen, mis_results[i].chosen) << labels[i];
    EXPECT_EQ(mis_results[0].rounds, mis_results[i].rounds) << labels[i];
    EXPECT_EQ(telemetry[0], telemetry[i]) << "telemetry diverged: "
                                          << labels[i];
  }
}

TEST(ForestEngine, FamilyEngineSteadyStateIsAllocationFree) {
  // After one warm-up pass the scratch buffers must have reached their
  // high-water marks: a second identical pass may not grow any capacity
  // (the observable proxy for "zero steady-state allocations" that does
  // not require hooking the global allocator).
  auto gen = random_chordal_from_clique_tree(
      {.num_bags = 120, .shape = TreeShape::kRandom, .seed = 21});
  CliqueForest forest = CliqueForest::build(gen.graph);
  ForestScratch scratch;
  std::vector<std::pair<int, int>> out;
  auto sweep = [&] {
    for (int v = 0; v < gen.graph.num_vertices(); ++v) {
      out.clear();
      family_forest_edges(forest.cliques(), forest.cliques_of(v), scratch,
                          out);
    }
  };
  sweep();  // warm-up
  const std::array<std::size_t, 6> caps = {
      scratch.occ.capacity(),    scratch.pair_a.capacity(),
      scratch.counts.capacity(), scratch.weights.capacity(),
      scratch.uf_parent.capacity(), scratch.vertex_stamp.capacity()};
  sweep();
  const std::array<std::size_t, 6> caps_after = {
      scratch.occ.capacity(),    scratch.pair_a.capacity(),
      scratch.counts.capacity(), scratch.weights.capacity(),
      scratch.uf_parent.capacity(), scratch.vertex_stamp.capacity()};
  EXPECT_EQ(caps, caps_after);
}

}  // namespace
}  // namespace chordal
