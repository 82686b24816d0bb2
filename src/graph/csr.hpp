// Streaming CSR assembly: edge-by-edge ingest straight into the Graph slab.
//
// GraphBuilder stages every edge as an (int, int) pair and finalizes with a
// sort - fine at test scales, but at n = 10^6..10^7 the pair list rivals
// the final adjacency slab in size. CsrAssembler is the bulk-ingest path:
// edges stream in once (counted into a degree table and buffered as flat
// endpoint words), finish() prefix-sums the degrees into the offset slab,
// scatters the buffered endpoints directly into the final adjacency slab,
// sorts and deduplicates each row in place, and bulk-moves both slabs into
// the Graph with adopt_csr. Peak staging is one flat endpoint buffer (2
// VertexId words per edge) on top of the final slab - no pair sort, no
// second copy, no vector<vector<int>> anywhere.
//
// Generators that can enumerate each row's neighbors in sorted order (the
// streaming interval and k-tree generators in graph/generators.hpp) skip
// even the endpoint buffer by filling offsets/adjacency themselves and
// calling Graph::adopt_csr directly.
//
// All counts narrow through graph/ids.hpp's checked helpers: a stream whose
// vertex count or adjacency volume exceeds the configured id width raises
// IdOverflowError instead of truncating.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace chordal {

class CsrAssembler {
 public:
  /// Throws IdOverflowError when n exceeds the VertexId range (or INT_MAX,
  /// the Graph API bound).
  explicit CsrAssembler(long long n);

  long long num_vertices() const { return n_; }
  /// Edges staged so far (before deduplication).
  std::size_t staged_edges() const { return endpoints_.size() / 2; }

  /// Stages one undirected edge. Rejects loops and out-of-range endpoints
  /// (std::invalid_argument / std::out_of_range, matching GraphBuilder);
  /// duplicates are allowed and removed by finish(). Throws IdOverflowError
  /// when the adjacency volume would exceed the EdgeIndex range.
  void add_edge(long long u, long long v);

  /// Assembles the staged edges into a Graph (rows sorted, deduplicated)
  /// and releases all staging storage. The assembler is empty afterwards
  /// and may be reused for another graph of the same n.
  Graph finish();

  /// Bytes currently resident in the staging buffers.
  std::size_t staged_bytes() const {
    return endpoints_.capacity() * sizeof(VertexId) +
           degree_.capacity() * sizeof(EdgeIndex);
  }

 private:
  long long n_ = 0;
  std::vector<EdgeIndex> degree_;     // per vertex; becomes the offset slab
  std::vector<VertexId> endpoints_;   // flat (u, v) words, one pair per edge
};

}  // namespace chordal
