// The compact memory substrate: checked id narrowing, the CsrAssembler
// bulk-ingest path, CliqueFamily slab semantics, and the streaming
// million-node generators. The streaming k-tree must be a k-tree (edge
// count, chordality, clique number), and the streaming interval generator
// must produce exactly the overlap graph of its own endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/auditors.hpp"
#include "cliqueforest/family.hpp"
#include "graph/cliques.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graphio.hpp"
#include "graph/ids.hpp"
#include "graph/peo.hpp"

namespace chordal {
namespace {

bool same_graph(const Graph& a, const Graph& b) {
  return a.num_vertices() == b.num_vertices() &&
         a.num_edges() == b.num_edges() && a.edges() == b.edges();
}

TEST(Ids, CheckedNarrowingAcceptsTheFullRange) {
  EXPECT_EQ(checked_vertex_id(0, "t"), 0);
  EXPECT_EQ(checked_vertex_id(123, "t"), 123);
  constexpr long long kMax =
      static_cast<long long>(std::numeric_limits<VertexId>::max());
  EXPECT_EQ(static_cast<long long>(checked_vertex_id(kMax, "t")), kMax);
  EXPECT_EQ(static_cast<long long>(checked_edge_index(kMax, "t")), kMax);
}

TEST(Ids, CheckedNarrowingThrowsTypedOverflow) {
  constexpr long long kMax =
      static_cast<long long>(std::numeric_limits<VertexId>::max());
  if (kMax < std::numeric_limits<long long>::max()) {
    EXPECT_THROW(checked_vertex_id(kMax + 1, "vertex count"),
                 IdOverflowError);
    EXPECT_THROW(checked_edge_index(kMax + 1, "adjacency volume"),
                 IdOverflowError);
  }
  EXPECT_THROW(checked_vertex_id(-1, "vertex count"), IdOverflowError);
  // The typed error is still a runtime_error, so existing hostile-input
  // handling that catches runtime_error keeps working.
  try {
    checked_vertex_id(-1, "vertex count");
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("vertex count"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("CHORDAL_WIDE_IDS"),
              std::string::npos);
  }
}

TEST(Ids, ReadGraphOverflowIsTyped) {
  // A header vertex count beyond the id width must raise IdOverflowError
  // specifically (not just any runtime_error), and name the rebuild knob.
  const std::string text = "9223372036854775806 0\n";
  EXPECT_THROW(graph_from_string(text), IdOverflowError);
  try {
    graph_from_string(text);
  } catch (const IdOverflowError& e) {
    EXPECT_NE(std::string(e.what()).find("read_graph"), std::string::npos);
  }
}

TEST(CsrAssembler, MatchesGraphBuilderWithDuplicates) {
  GraphBuilder b(6);
  CsrAssembler a(6);
  const std::pair<int, int> edges[] = {{0, 1}, {1, 0}, {2, 3}, {3, 4},
                                       {2, 3}, {0, 5}, {4, 5}};
  for (auto [u, v] : edges) {
    b.add_edge(u, v);
    a.add_edge(u, v);
  }
  Graph via_builder = b.build();
  Graph via_assembler = a.finish();
  EXPECT_TRUE(same_graph(via_builder, via_assembler));
  audit::audit_graph_csr(via_assembler);
}

TEST(CsrAssembler, RejectsBadEdgesLikeGraphBuilder) {
  CsrAssembler a(3);
  EXPECT_THROW(a.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(a.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(a.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW(CsrAssembler(-1), std::invalid_argument);
}

TEST(CsrAssembler, FinishReleasesStagingAndIsReusable) {
  CsrAssembler a(4);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  EXPECT_GT(a.staged_bytes(), 0u);
  Graph g1 = a.finish();
  EXPECT_EQ(g1.num_edges(), 2u);
  EXPECT_EQ(a.staged_edges(), 0u);
  a.add_edge(1, 2);
  Graph g2 = a.finish();
  EXPECT_EQ(g2.num_edges(), 1u);
  EXPECT_TRUE(g2.has_edge(1, 2));
  audit::audit_graph_csr(g2);
}

TEST(CsrAssembler, EmptyAndIsolatedVertices) {
  EXPECT_EQ(CsrAssembler(0).finish().num_vertices(), 0);
  Graph g = CsrAssembler(5).finish();
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0u);
  audit::audit_graph_csr(g);
}

TEST(CliqueFamily, SlabRoundTripsNestedCliques) {
  std::vector<std::vector<int>> nested = {{0, 1, 2}, {2, 3}, {4}, {1, 4, 5}};
  CliqueFamily fam(nested);
  ASSERT_EQ(fam.size(), nested.size());
  for (std::size_t c = 0; c < nested.size(); ++c) {
    EXPECT_EQ(word_vec(fam[c]), nested[c]);
  }
  EXPECT_EQ(fam.to_nested(), nested);
  EXPECT_EQ(fam.total_vertices(), 9u);
  CliqueFamily rebuilt;
  for (const auto& clique : nested) rebuilt.push_word(clique);
  EXPECT_EQ(fam, rebuilt);
}

TEST(CliqueFamily, ClearKeepsCapacityForReuse) {
  CliqueFamily fam;
  fam.push_word(std::vector<int>{1, 2, 3});
  fam.push_word(std::vector<int>{4, 5});
  std::size_t bytes = fam.memory_bytes();
  fam.clear();
  EXPECT_TRUE(fam.empty());
  EXPECT_EQ(fam.total_vertices(), 0u);
  EXPECT_EQ(fam.memory_bytes(), bytes);  // capacity retained
  fam.push_word(std::vector<int>{7});
  ASSERT_EQ(fam.size(), 1u);
  EXPECT_EQ(word_vec(fam[0]), (std::vector<int>{7}));
}

TEST(CliqueFamily, WordOrderHelpersMatchVectorSemantics) {
  CliqueFamily fam(std::vector<std::vector<int>>{{1, 2}, {1, 2, 3}, {2}});
  EXPECT_TRUE(word_less(fam[0], fam[1]));   // prefix < longer
  EXPECT_TRUE(word_less(fam[1], fam[2]));   // 1xx < 2
  EXPECT_FALSE(word_less(fam[2], fam[2]));
  EXPECT_TRUE(word_eq(fam[0], fam[0]));
  EXPECT_FALSE(word_eq(fam[0], fam[1]));
}

TEST(StreamingGenerators, KTreeHasKTreeInvariants) {
  // A k-tree on n vertices has C(k+1, 2) + (n-k-1)*k edges, is chordal, and
  // its largest clique is exactly the starting K_{k+1}.
  for (int k : {1, 2, 3, 5}) {
    for (long long n : {static_cast<long long>(k + 1), 10LL, 257LL}) {
      for (std::uint64_t seed : {1ULL, 42ULL}) {
        Graph g = streaming_k_tree(n, k, seed);
        audit::audit_graph_csr(g);
        const auto kk = static_cast<std::size_t>(k);
        EXPECT_EQ(g.num_edges(),
                  kk * (kk + 1) / 2 + static_cast<std::size_t>(n - k - 1) * kk)
            << "k=" << k << " n=" << n << " seed=" << seed;
        ASSERT_TRUE(is_chordal(g)) << "k=" << k << " n=" << n;
        EXPECT_EQ(max_clique_size_chordal(g), k + 1) << "k=" << k
                                                     << " n=" << n;
      }
    }
  }
}

TEST(StreamingGenerators, KTreeRejectsBadShapes) {
  EXPECT_THROW(streaming_k_tree(3, 3, 1), std::invalid_argument);
  EXPECT_THROW(streaming_k_tree(5, 0, 1), std::invalid_argument);
}

TEST(StreamingGenerators, IntervalMatchesItsOwnGeometry) {
  StreamingIntervalConfig config;
  config.n = 400;
  config.gap_mean = 1.0;
  config.min_len = 2.0;
  config.max_len = 6.0;
  config.seed = 9;
  StreamingInterval gen = streaming_interval_graph(config);
  ASSERT_EQ(gen.graph.num_vertices(), 400);
  EXPECT_TRUE(std::is_sorted(gen.left.begin(), gen.left.end()));
  audit::audit_graph_csr(gen.graph);
  for (int u = 0; u < 400; ++u) {
    for (int v = u + 1; v < 400; ++v) {
      bool overlap =
          gen.left[u] <= gen.right[v] && gen.left[v] <= gen.right[u];
      ASSERT_EQ(gen.graph.has_edge(u, v), overlap) << u << "," << v;
    }
  }
}

TEST(StreamingGenerators, IntervalHandlesDegenerateSizes) {
  StreamingIntervalConfig config;
  config.n = 0;
  EXPECT_EQ(streaming_interval_graph(config).graph.num_vertices(), 0);
  config.n = 1;
  StreamingInterval one = streaming_interval_graph(config);
  EXPECT_EQ(one.graph.num_vertices(), 1);
  EXPECT_EQ(one.graph.num_edges(), 0u);
  config.n = -1;
  EXPECT_THROW(streaming_interval_graph(config), std::invalid_argument);
  config.n = 10;
  config.max_len = 0.5;  // max_len < min_len
  EXPECT_THROW(streaming_interval_graph(config), std::invalid_argument);
}

TEST(GraphCsr, AdoptAndAssignRoundTrip) {
  // adopt_csr moves slabs in; assign_csr copies into reused storage.
  std::vector<EdgeIndex> offsets = {0, 2, 4, 6};
  std::vector<VertexId> adj = {1, 2, 0, 2, 0, 1};  // triangle
  Graph g;
  g.adopt_csr(3, std::move(offsets), std::move(adj));
  EXPECT_EQ(g.num_edges(), 3u);
  audit::audit_graph_csr(g);

  Graph other = path_graph(4);
  other.assign_csr(g.num_vertices(), g.offsets_span(),
                   {g.neighbors(0).data(), 6});
  EXPECT_TRUE(same_graph(g, other));
  audit::audit_graph_csr(other);
}

TEST(GraphCsr, AuditCatchesCorruptSlabs) {
  std::vector<EdgeIndex> offsets = {0, 1, 2};
  std::vector<VertexId> adj = {1, 0};
  Graph good;
  good.adopt_csr(2, std::move(offsets), std::move(adj));
  audit::audit_graph_csr(good);

  // Asymmetric adjacency: 0 -> 1 without the mirror slot.
  Graph bad;
  bad.adopt_csr(2, std::vector<EdgeIndex>{0, 1, 1}, std::vector<VertexId>{1});
  EXPECT_THROW(audit::audit_graph_csr(bad), audit::AuditFailure);

  // Unsorted row.
  Graph unsorted;
  unsorted.adopt_csr(3, std::vector<EdgeIndex>{0, 2, 3, 4},
                     std::vector<VertexId>{2, 1, 0, 0});
  EXPECT_THROW(audit::audit_graph_csr(unsorted), audit::AuditFailure);
}

TEST(GraphCsr, MemoryBytesTracksSlabFootprint) {
  Graph g = path_graph(1000);
  // 1001 offsets + 2 * 999 adjacency slots, modulo capacity slack.
  std::size_t floor_bytes = 1001 * sizeof(EdgeIndex) +
                            2u * 999u * sizeof(VertexId);
  EXPECT_GE(g.memory_bytes(), floor_bytes);
}

}  // namespace
}  // namespace chordal
