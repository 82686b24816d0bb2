// Mutation-API edge cases for the dynamic layer: argument validation
// (loops, duplicates, dead slots), rejection witnesses that really are
// chordless cycles, clique-family behavior when a maximal clique loses its
// last vertex, updates on the empty graph, slot reuse, and a mixed
// all-four-mutations schedule whose Signature parity is id-width
// independent (the same test binary runs in the CHORDAL_WIDE_IDS=ON tree,
// see scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "audit/auditors.hpp"
#include "core/dynamic.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/peo.hpp"

namespace chordal {
namespace {

Graph path_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return b.build();
}

/// Asserts `cycle` is a chordless cycle of length >= 4 under the given
/// adjacency predicate (the graph *after* the rejected update would have
/// been applied).
void expect_chordless_cycle(const std::vector<int>& cycle,
                            const std::function<bool(int, int)>& adj) {
  ASSERT_GE(cycle.size(), 4u);
  std::vector<int> sorted = cycle;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "witness repeats a vertex";
  const int k = static_cast<int>(cycle.size());
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      bool consecutive = (j == i + 1) || (i == 0 && j == k - 1);
      EXPECT_EQ(adj(cycle[static_cast<std::size_t>(i)],
                    cycle[static_cast<std::size_t>(j)]),
                consecutive)
          << "witness pair (" << cycle[static_cast<std::size_t>(i)] << ", "
          << cycle[static_cast<std::size_t>(j)] << ")";
    }
  }
}

void expect_parity(const DynamicChordal& dc) {
  EXPECT_TRUE(dc.signature() == DynamicChordal::recompute_signature(dc.graph()));
}

TEST(DynamicGraphTest, RejectsMalformedMutations) {
  DynamicChordal dc(path_graph(3));
  EXPECT_THROW(dc.insert_edge(1, 1), std::invalid_argument);  // self-loop
  EXPECT_THROW(dc.insert_edge(0, 1), std::invalid_argument);  // duplicate
  EXPECT_THROW(dc.insert_edge(0, 7), std::invalid_argument);  // no such slot
  EXPECT_THROW(dc.delete_edge(0, 2), std::invalid_argument);  // not an edge
  EXPECT_THROW(dc.delete_edge(2, 2), std::invalid_argument);
  EXPECT_THROW(dc.delete_vertex(9), std::invalid_argument);
  int dup[] = {1, 1};
  EXPECT_THROW(dc.insert_vertex(dup), std::invalid_argument);
  int dead[] = {0};
  dc.delete_vertex(0);
  EXPECT_THROW(dc.insert_vertex(dead), std::invalid_argument);
  EXPECT_THROW(dc.delete_vertex(0), std::invalid_argument);  // already dead
  expect_parity(dc);
}

TEST(DynamicGraphTest, EdgeInsertRejectionCarriesChordlessCycle) {
  DynamicChordal dc(path_graph(4));  // 0-1-2-3
  auto before = dc.signature();
  try {
    dc.insert_edge(0, 3);  // would close the chordless 4-cycle 0,1,2,3
    FAIL() << "expected ChordalityViolation";
  } catch (const ChordalityViolation& e) {
    expect_chordless_cycle(e.witness_cycle(), [&](int a, int b) {
      if ((a == 0 && b == 3) || (a == 3 && b == 0)) return true;
      return dc.graph().has_edge(a, b);
    });
  }
  // Strong exception safety: the rejected mutation changed nothing.
  EXPECT_TRUE(dc.signature() == before);
  EXPECT_EQ(dc.stats().rejected, 1);
  expect_parity(dc);
}

TEST(DynamicGraphTest, EdgeDeleteRejectionCarriesChordlessCycle) {
  GraphBuilder b(4);  // 4-cycle plus the 0-2 chord: deleting it leaves C4
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  b.add_edge(0, 2);
  DynamicChordal dc(b.build());
  try {
    dc.delete_edge(0, 2);
    FAIL() << "expected ChordalityViolation";
  } catch (const ChordalityViolation& e) {
    expect_chordless_cycle(e.witness_cycle(), [&](int a, int b) {
      if ((a == 0 && b == 2) || (a == 2 && b == 0)) return false;
      return dc.graph().has_edge(a, b);
    });
  }
  EXPECT_TRUE(dc.graph().has_edge(0, 2));
  expect_parity(dc);
}

TEST(DynamicGraphTest, VertexInsertRejectionUsesNewVertexPlaceholder) {
  DynamicChordal dc(path_graph(3));  // 0-1-2
  int ends[] = {0, 2};
  try {
    dc.insert_vertex(ends);  // z-0-1-2-z would be a chordless 4-cycle
    FAIL() << "expected ChordalityViolation";
  } catch (const ChordalityViolation& e) {
    const auto& cycle = e.witness_cycle();
    ASSERT_EQ(std::count(cycle.begin(), cycle.end(),
                         ChordalityViolation::kNewVertex),
              1);
    expect_chordless_cycle(cycle, [&](int a, int b) {
      if (a == ChordalityViolation::kNewVertex) std::swap(a, b);
      if (b == ChordalityViolation::kNewVertex) {
        return a == 0 || a == 2;  // z's neighborhood is exactly X
      }
      return dc.graph().has_edge(a, b);
    });
  }
  EXPECT_EQ(dc.graph().num_alive(), 3);
  expect_parity(dc);
}

TEST(DynamicGraphTest, ValidNonCliqueNeighborhoodInsertAccepted) {
  // 0-1 plus isolated 2: X = {0, 2} spans two components of G - X, each
  // attachment a single vertex, so the insert is chordal despite X not
  // being a clique (exercises the G[X] clique decomposition path).
  GraphBuilder b(3);
  b.add_edge(0, 1);
  DynamicChordal dc(b.build());
  int x[] = {0, 2};
  int z = dc.insert_vertex(x);
  EXPECT_EQ(z, 3);
  EXPECT_TRUE(dc.graph().has_edge(z, 0));
  EXPECT_TRUE(dc.graph().has_edge(z, 2));
  expect_parity(dc);
}

TEST(DynamicGraphTest, DeletingLastVertexOfCliqueReinstatesSubcliques) {
  DynamicChordal dc(triangle());
  EXPECT_EQ(dc.max_clique_size(), 3);
  dc.delete_vertex(2);  // {0,1,2} dies; {0,1} is reinstated
  EXPECT_EQ(dc.max_clique_size(), 2);
  expect_parity(dc);
  dc.delete_vertex(1);
  EXPECT_EQ(dc.max_clique_size(), 1);
  expect_parity(dc);
  dc.delete_vertex(0);  // last vertex of the last clique
  EXPECT_EQ(dc.graph().num_alive(), 0);
  EXPECT_EQ(dc.max_clique_size(), 0);
  EXPECT_EQ(dc.num_colors(), 0);
  EXPECT_EQ(dc.mis_size(), 0);
  EXPECT_TRUE(dc.signature().family.empty());
  expect_parity(dc);
}

TEST(DynamicGraphTest, EmptyGraphGrowsAndShrinks) {
  DynamicChordal dc;  // empty: no vertices at all
  EXPECT_EQ(dc.graph().num_alive(), 0);
  EXPECT_EQ(dc.num_colors(), 0);
  expect_parity(dc);
  int a = dc.insert_vertex({});
  EXPECT_EQ(a, 0);
  int first[] = {a};
  int b = dc.insert_vertex(first);
  EXPECT_EQ(b, 1);
  EXPECT_TRUE(dc.graph().has_edge(a, b));
  EXPECT_EQ(dc.num_colors(), 2);
  EXPECT_EQ(dc.mis_size(), 1);
  expect_parity(dc);
  dc.delete_edge(a, b);
  EXPECT_EQ(dc.num_colors(), 1);
  EXPECT_EQ(dc.mis_size(), 2);
  expect_parity(dc);
  dc.delete_vertex(a);
  dc.delete_vertex(b);
  EXPECT_EQ(dc.graph().num_alive(), 0);
  expect_parity(dc);
}

TEST(DynamicGraphTest, DeletedSlotsAreReusedLowestFirst) {
  DynamicChordal dc(path_graph(5));
  dc.delete_vertex(3);
  dc.delete_vertex(1);
  EXPECT_EQ(dc.insert_vertex({}), 1);  // lowest dead slot first
  int nbr[] = {2};
  EXPECT_EQ(dc.insert_vertex(nbr), 3);
  EXPECT_EQ(dc.insert_vertex({}), 5);  // free list drained: fresh slot
  expect_parity(dc);
}

// All four mutations on one instance, checking Signature parity after each
// step. Signatures are pure slot-id structures, so the expectations are
// identical in the 32-bit and CHORDAL_WIDE_IDS=ON builds - running this
// binary in both trees is the parity check.
TEST(DynamicGraphTest, MixedScheduleKeepsParityAcrossIdWidths) {
  RandomChordalConfig config;
  config.n = 60;
  config.max_clique = 4;
  config.chain_bias = 0.8;
  config.seed = 2024;
  DynamicChordal dc(random_chordal(config));
  expect_parity(dc);

  // Vertex delete + revive through the free list.
  dc.delete_vertex(10);
  expect_parity(dc);
  int nbr[] = {11};
  ASSERT_EQ(dc.insert_vertex(nbr), 10);
  expect_parity(dc);

  // Edge churn: delete an edge on a simplicial border, re-insert it.
  int u = -1, v = -1;
  for (int cand = 0; cand < dc.graph().num_slots() && u < 0; ++cand) {
    if (!dc.graph().alive(cand)) continue;
    for (VertexId w : dc.graph().neighbors(cand)) {
      if (certify_edge_delete(dc.graph(), cand, static_cast<int>(w)).empty()) {
        u = cand;
        v = static_cast<int>(w);
        break;
      }
    }
  }
  ASSERT_GE(u, 0) << "no safely deletable edge found";
  dc.delete_edge(u, v);
  expect_parity(dc);
  dc.insert_edge(u, v);
  expect_parity(dc);

  // Simplicial vertex insert: clone an existing closed neighborhood corner.
  std::vector<int> x;
  for (VertexId w : dc.graph().neighbors(u)) x.push_back(static_cast<int>(w));
  x.push_back(u);
  std::sort(x.begin(), x.end());
  // u's closed neighborhood need not be a clique; shrink to one greedily.
  std::vector<int> clique;
  for (int cand : x) {
    bool ok = true;
    for (int have : clique) {
      if (!dc.graph().has_edge(cand, have)) ok = false;
    }
    if (ok) clique.push_back(cand);
  }
  int z = dc.insert_vertex(clique);
  expect_parity(dc);
  dc.delete_vertex(z);
  expect_parity(dc);

  // The materialized snapshot is chordal throughout.
  EXPECT_TRUE(is_chordal(dc.materialize()));
}

/// Deletes and re-inserts a deletable edge at `hub` (its first neighbor
/// whose edge lies in exactly one maximal clique K). The forest repair
/// rebuilds only the cliques meeting K's vertices, so each update's
/// candidate count must stay within 2 * sum_{v in K} |phi(v)| - a count,
/// not a timing, so a return of a pool quadratic in the hub's phi fails
/// here on any machine. Parity is audited after both updates.
void expect_hub_edge_churn_is_linear(DynamicChordal& dc, int hub) {
  const DynamicCliqueForest& forest = dc.forest();
  int other = -1;
  std::int64_t bound = 0;
  for (VertexId w : dc.graph().neighbors(hub)) {
    std::int32_t holders[2];
    if (forest.cliques_containing_edge(hub, static_cast<int>(w), holders) !=
        1) {
      continue;
    }
    other = static_cast<int>(w);
    for (VertexId x : forest.word(holders[0])) {
      bound += 2 * static_cast<std::int64_t>(
                       forest.cliques_of(static_cast<int>(x)).size());
    }
    break;
  }
  ASSERT_GE(other, 0) << "no deletable edge at the hub";
  std::int64_t before = dc.stats().pool_edges;
  dc.delete_edge(hub, other);
  EXPECT_LE(dc.stats().pool_edges - before, bound) << "edge delete";
  EXPECT_NO_THROW(audit::audit_dynamic_parity(dc));
  before = dc.stats().pool_edges;
  dc.insert_edge(hub, other);
  EXPECT_LE(dc.stats().pool_edges - before, bound) << "edge insert";
  EXPECT_NO_THROW(audit::audit_dynamic_parity(dc));
}

TEST(DynamicGraphTest, HubEdgeChurnRepairIsLinearOnKTree) {
  DynamicChordal dc(streaming_k_tree(20000, 3, 17));
  int hub = 0;
  for (int v = 1; v < dc.graph().num_slots(); ++v) {
    if (dc.forest().cliques_of(v).size() >
        dc.forest().cliques_of(hub).size()) {
      hub = v;
    }
  }
  expect_hub_edge_churn_is_linear(dc, hub);
}

TEST(DynamicGraphTest, BladeEdgeChurnRepairIsLinearOnWindmill) {
  // Core vertex 0 lies in all 2,000 triangles, so deleting and restoring
  // the blade edge {1, 2} repairs a 2,001-clique region: the sparse
  // forest engine's path, deterministically.
  DynamicChordal dc(windmill_graph(1, 2000, 2));
  expect_hub_edge_churn_is_linear(dc, 1);
}

}  // namespace
}  // namespace chordal
