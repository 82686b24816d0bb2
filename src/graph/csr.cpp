#include "graph/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace chordal {

CsrAssembler::CsrAssembler(long long n) : n_(n) {
  if (n < 0) throw std::invalid_argument("CsrAssembler: negative n");
  checked_vertex_id(n, "CsrAssembler vertex count");
  if (n > static_cast<long long>(std::numeric_limits<int>::max())) {
    throw IdOverflowError("CsrAssembler: vertex count " + std::to_string(n) +
                          " exceeds the Graph API bound INT_MAX");
  }
  degree_.assign(static_cast<std::size_t>(n), 0);
}

void CsrAssembler::add_edge(long long u, long long v) {
  if (u == v) throw std::invalid_argument("CsrAssembler: self-loop");
  if (u < 0 || v < 0 || u >= n_ || v >= n_) {
    throw std::out_of_range("CsrAssembler: vertex out of range");
  }
  // Each staged edge eventually occupies two adjacency slots; keep the
  // running total inside the EdgeIndex range so finish() cannot overflow.
  checked_edge_index(static_cast<long long>(endpoints_.size()) + 2,
                     "CsrAssembler adjacency volume");
  endpoints_.push_back(static_cast<VertexId>(u));
  endpoints_.push_back(static_cast<VertexId>(v));
  ++degree_[static_cast<std::size_t>(u)];
  ++degree_[static_cast<std::size_t>(v)];
}

Graph CsrAssembler::finish() {
  const auto n = static_cast<std::size_t>(n_);
  // Degrees -> offsets (exclusive prefix sum), then scatter both endpoint
  // directions straight into the final slab.
  std::vector<EdgeIndex> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree_[v];
  std::vector<VertexId> adj(static_cast<std::size_t>(offsets[n]));
  // degree_ doubles as the per-row write cursor (counts down to zero), so
  // the scatter needs no extra cursor allocation.
  std::vector<EdgeIndex>& cursor = degree_;
  for (std::size_t v = 0; v < n; ++v) cursor[v] = offsets[v];
  for (std::size_t i = 0; i < endpoints_.size(); i += 2) {
    const auto u = static_cast<std::size_t>(endpoints_[i]);
    const auto v = static_cast<std::size_t>(endpoints_[i + 1]);
    adj[static_cast<std::size_t>(cursor[u]++)] = endpoints_[i + 1];
    adj[static_cast<std::size_t>(cursor[v]++)] = endpoints_[i];
  }
  endpoints_.clear();
  endpoints_.shrink_to_fit();
  // Sort each row and drop duplicate slots in one forward compaction.
  std::size_t write = 0;
  EdgeIndex row_start = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const EdgeIndex row_end = offsets[v + 1];
    std::sort(adj.begin() + row_start, adj.begin() + row_end);
    EdgeIndex kept_start = static_cast<EdgeIndex>(write);
    for (EdgeIndex i = row_start; i < row_end; ++i) {
      if (static_cast<EdgeIndex>(write) == kept_start ||
          adj[write - 1] != adj[i]) {
        adj[write++] = adj[i];
      }
    }
    row_start = row_end;
    offsets[v + 1] = static_cast<EdgeIndex>(write);
  }
  adj.resize(write);
  Graph g;
  g.adopt_csr(static_cast<int>(n_), std::move(offsets), std::move(adj));
  degree_.assign(n, 0);
  return g;
}

}  // namespace chordal
