#include "cliqueforest/forest.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "graph/cliques.hpp"
#include "obs/trace.hpp"
#include "support/union_find.hpp"

namespace chordal {

namespace {

// Scratch union-find over ForestScratch arrays: reset is O(universe), find
// uses path halving, unite by rank. The chosen Kruskal edge set depends
// only on the edge processing order, never on the union-find internals, so
// this is interchangeable with support/union_find.
void uf_reset(ForestScratch& s, int n) {
  auto size = static_cast<std::size_t>(n);
  if (s.uf_parent.size() < size) {
    s.uf_parent.resize(size);
    s.uf_rank.resize(size);
  }
  for (int i = 0; i < n; ++i) {
    s.uf_parent[i] = i;
    s.uf_rank[i] = 0;
  }
}

int uf_find(ForestScratch& s, int x) {
  while (s.uf_parent[x] != x) {
    s.uf_parent[x] = s.uf_parent[s.uf_parent[x]];
    x = s.uf_parent[x];
  }
  return x;
}

bool uf_unite(ForestScratch& s, int a, int b) {
  a = uf_find(s, a);
  b = uf_find(s, b);
  if (a == b) return false;
  if (s.uf_rank[a] < s.uf_rank[b]) std::swap(a, b);
  s.uf_parent[b] = a;
  if (s.uf_rank[a] == s.uf_rank[b]) ++s.uf_rank[a];
  return true;
}

}  // namespace

std::vector<WcigEdge> max_weight_spanning_forest_oracle(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices) {
  auto edges = wcig_edges(cliques, num_graph_vertices);
  std::sort(edges.begin(), edges.end(),
            [&cliques](const WcigEdge& e, const WcigEdge& f) {
              return wcig_edge_less(f, e, cliques);  // decreasing order
            });
  UnionFind uf(static_cast<int>(cliques.size()));
  std::vector<WcigEdge> chosen;
  for (const auto& e : edges) {
    if (uf.unite(e.a, e.b)) chosen.push_back(e);
  }
  return chosen;
}

std::vector<WcigEdge> max_weight_spanning_forest_oracle(
    const CliqueFamily& cliques, int num_graph_vertices) {
  return max_weight_spanning_forest_oracle(cliques.to_nested(),
                                           num_graph_vertices);
}

void max_weight_spanning_forest(const CliqueFamily& cliques,
                                int num_graph_vertices,
                                ForestScratch& scratch,
                                std::vector<WcigEdge>& out) {
  out.clear();
  const int m = static_cast<int>(cliques.size());
  wcig_edges_counting(cliques, num_graph_vertices, scratch, scratch.edges);
  auto& edges = scratch.edges;
  if (edges.empty()) return;
  // The paper's tie-break compares the incident cliques' sorted ID words;
  // after ranking the words once, that is integer comparison on
  // (min rank, max rank). Canonical families are already strictly sorted,
  // making rank == index - and wcig_edges_counting emits edges ascending in
  // (a, b), so they are already in ascending tie-break order. Non-canonical
  // families get an explicit ranking plus a two-pass radix reorder.
  if (!cliques_lex_sorted(cliques)) {
    scratch.ranks = clique_lex_ranks(cliques);
    const auto& rank = scratch.ranks;
    const std::size_t ecount = edges.size();
    scratch.edges_tmp.resize(ecount);
    auto counting_pass = [&](const std::vector<WcigEdge>& in,
                             std::vector<WcigEdge>& sorted, bool high_key) {
      scratch.counts.assign(static_cast<std::size_t>(m) + 1, 0);
      auto key = [&](const WcigEdge& e) {
        return high_key ? std::max(rank[e.a], rank[e.b])
                        : std::min(rank[e.a], rank[e.b]);
      };
      for (const auto& e : in) ++scratch.counts[key(e) + 1];
      for (int c = 0; c < m; ++c) scratch.counts[c + 1] += scratch.counts[c];
      for (const auto& e : in) sorted[scratch.counts[key(e)]++] = e;
    };
    counting_pass(edges, scratch.edges_tmp, /*high_key=*/true);
    counting_pass(scratch.edges_tmp, edges, /*high_key=*/false);
  }
  // Weight-bucketed counting sort (weights are at most omega <= n). Kruskal
  // wants decreasing order - weight descending, then tie-break rank pair
  // descending - so buckets are laid out high weight first and filled by a
  // reverse sweep of the ascending-tie-break edge list.
  int max_weight = 0;
  for (const auto& e : edges) max_weight = std::max(max_weight, e.weight);
  scratch.counts.assign(static_cast<std::size_t>(max_weight) + 1, 0);
  for (const auto& e : edges) ++scratch.counts[e.weight];
  int offset = 0;
  for (int w = max_weight; w >= 1; --w) {
    int count = scratch.counts[w];
    scratch.counts[w] = offset;
    offset += count;
  }
  scratch.edges_tmp.resize(edges.size());
  for (std::size_t i = edges.size(); i-- > 0;) {
    scratch.edges_tmp[scratch.counts[edges[i].weight]++] = edges[i];
  }
  uf_reset(scratch, m);
  const std::size_t want = static_cast<std::size_t>(m) - 1;
  for (const auto& e : scratch.edges_tmp) {
    if (uf_unite(scratch, e.a, e.b)) {
      out.push_back(e);
      if (out.size() == want) break;
    }
  }
}

std::vector<WcigEdge> max_weight_spanning_forest(const CliqueFamily& cliques,
                                                 int num_graph_vertices) {
  ForestScratch scratch;
  std::vector<WcigEdge> out;
  max_weight_spanning_forest(cliques, num_graph_vertices, scratch, out);
  return out;
}

void family_forest_edges(const CliqueFamily& cliques,
                         std::span<const CliqueId> family,
                         ForestScratch& scratch,
                         std::vector<std::pair<int, int>>& out) {
  const int f = static_cast<int>(family.size());
  if (f < 2) return;
  // Pairwise intersection weights of the (complete) family graph, as pair
  // multiplicities over the members' vertices: walking each vertex's
  // occurrence chain costs one increment per shared (clique, clique, vertex)
  // triple - no sorted merges, no O(n) membership table.
  int bound = 0;
  for (CliqueId c : family) {
    bound = std::max(
        bound, static_cast<int>(cliques[static_cast<std::size_t>(c)].back()) +
                   1);
  }
  scratch.ensure_vertices(bound);
  const std::uint64_t epoch = ++scratch.epoch;
  scratch.occ.clear();
  scratch.weights.assign(static_cast<std::size_t>(f) * f, 0);
  int max_weight = 0;
  for (int i = 0; i < f; ++i) {
    for (int v : cliques[static_cast<std::size_t>(family[i])]) {
      int prev = scratch.vertex_stamp[v] == epoch ? scratch.vertex_head[v] : -1;
      for (int p = prev; p != -1; p = scratch.occ[p].second) {
        int w = ++scratch.weights[static_cast<std::size_t>(
                                      scratch.occ[p].first) * f + i];
        max_weight = std::max(max_weight, w);
      }
      scratch.vertex_stamp[v] = epoch;
      scratch.vertex_head[v] = static_cast<int>(scratch.occ.size());
      scratch.occ.emplace_back(i, prev);
    }
  }
  // Weight-bucketed counting sort. Family indices ascend with the words of
  // strictly sorted cliques, so the paper's decreasing tie-break order
  // within a weight is simply decreasing (i, j): enumerate pairs in that
  // order and the stable bucket fill preserves it.
  scratch.counts.assign(static_cast<std::size_t>(max_weight) + 1, 0);
  for (int i = f - 2; i >= 0; --i) {
    for (int j = f - 1; j > i; --j) {
      int w = scratch.weights[static_cast<std::size_t>(i) * f + j];
      if (w > 0) ++scratch.counts[w];
    }
  }
  int offset = 0;
  for (int w = max_weight; w >= 1; --w) {
    int count = scratch.counts[w];
    scratch.counts[w] = offset;
    offset += count;
  }
  const int total = offset;
  scratch.pair_a.resize(static_cast<std::size_t>(total));
  scratch.pair_b.resize(static_cast<std::size_t>(total));
  for (int i = f - 2; i >= 0; --i) {
    for (int j = f - 1; j > i; --j) {
      int w = scratch.weights[static_cast<std::size_t>(i) * f + j];
      if (w == 0) continue;
      int pos = scratch.counts[w]++;
      scratch.pair_a[pos] = i;
      scratch.pair_b[pos] = j;
    }
  }
  uf_reset(scratch, f);
  int chosen = 0;
  for (int pos = 0; pos < total && chosen < f - 1; ++pos) {
    if (uf_unite(scratch, scratch.pair_a[pos], scratch.pair_b[pos])) {
      out.emplace_back(static_cast<int>(family[scratch.pair_a[pos]]),
                       static_cast<int>(family[scratch.pair_b[pos]]));
      ++chosen;
    }
  }
}

CliqueForest CliqueForest::build(const Graph& g) {
  return from_family(maximal_cliques_chordal_family(g), g.num_vertices());
}

CliqueForest CliqueForest::from_family(CliqueFamily cliques,
                                       int num_graph_vertices) {
  CliqueForest forest;
  forest.num_graph_vertices_ = num_graph_vertices;
  forest.cliques_ = std::move(cliques);
  const std::size_t m = forest.cliques_.size();

  // phi as a CSR slab: count memberships, prefix-sum, fill ascending in
  // clique index so each vertex's row comes out sorted.
  auto& moff = forest.member_offsets_;
  moff.assign(static_cast<std::size_t>(num_graph_vertices) + 1, 0);
  for (CliqueWord word : forest.cliques_) {
    for (auto v : word) {
      if (v < 0 || v >= num_graph_vertices) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      ++moff[static_cast<std::size_t>(v) + 1];
    }
  }
  for (int v = 0; v < num_graph_vertices; ++v) moff[v + 1] += moff[v];
  forest.member_.resize(
      static_cast<std::size_t>(moff[num_graph_vertices]));
  {
    std::vector<EdgeIndex> cursor(moff.begin(), moff.end() - 1);
    for (std::size_t c = 0; c < m; ++c) {
      for (auto v : forest.cliques_[c]) {
        forest.member_[static_cast<std::size_t>(cursor[v]++)] =
            static_cast<CliqueId>(c);
      }
    }
  }

  // Forest adjacency as a CSR slab over the MWSF edges.
  std::int64_t chosen = 0;
  auto edges =
      max_weight_spanning_forest(forest.cliques_, num_graph_vertices);
  forest.adj_offsets_.assign(m + 1, 0);
  for (const auto& e : edges) {
    ++forest.adj_offsets_[static_cast<std::size_t>(e.a) + 1];
    ++forest.adj_offsets_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t c = 0; c < m; ++c) {
    forest.adj_offsets_[c + 1] += forest.adj_offsets_[c];
  }
  forest.adj_.resize(static_cast<std::size_t>(forest.adj_offsets_[m]));
  {
    std::vector<EdgeIndex> cursor(forest.adj_offsets_.begin(),
                                  forest.adj_offsets_.end() - 1);
    for (const auto& e : edges) {
      forest.adj_[static_cast<std::size_t>(cursor[e.a]++)] =
          static_cast<CliqueId>(e.b);
      forest.adj_[static_cast<std::size_t>(cursor[e.b]++)] =
          static_cast<CliqueId>(e.a);
      ++chosen;
    }
  }
  for (std::size_t c = 0; c < m; ++c) {
    std::sort(forest.adj_.begin() + forest.adj_offsets_[c],
              forest.adj_.begin() + forest.adj_offsets_[c + 1]);
  }
  // The whole-graph MWSF build (node -1 marks coordinator work on the
  // event timeline).
  obs::trace_emit(nullptr, obs::TraceEventKind::kForestBuild, -1, /*round=*/0,
                  static_cast<std::int64_t>(m), chosen);
  return forest;
}

std::vector<std::pair<int, int>> CliqueForest::forest_edges() const {
  std::vector<std::pair<int, int>> out;
  for (int c = 0; c < num_cliques(); ++c) {
    for (CliqueId d : forest_neighbors(c)) {
      if (c < d) out.emplace_back(c, static_cast<int>(d));
    }
  }
  return out;
}

void CliqueForest::verify(const Graph& g) const {
  // (1) Every vertex lies in at least one clique.
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (cliques_of(v).empty()) {
      throw std::logic_error("clique forest: vertex in no clique");
    }
  }
  // (2) Every edge is inside some clique.
  for (auto [u, v] : g.edges()) {
    bool covered = false;
    for (CliqueId c : cliques_of(u)) {
      const CliqueWord word = clique(static_cast<int>(c));
      covered = covered || std::binary_search(word.begin(), word.end(),
                                              static_cast<VertexId>(v));
    }
    if (!covered) throw std::logic_error("clique forest: edge uncovered");
  }
  // (3) Forest is acyclic: edges <= cliques - components.
  UnionFind uf(num_cliques());
  for (auto [a, b] : forest_edges()) {
    if (!uf.unite(a, b)) {
      throw std::logic_error("clique forest: cycle in forest");
    }
  }
  // (4) phi(v) induces a connected subgraph (the subtree T(v)). One pair of
  // epoch-stamped tables plus a flat queue is reused across all vertices,
  // so the sweep costs O(sum_v work inside T(v)) instead of one O(#cliques)
  // allocation and clear per graph vertex.
  std::vector<std::uint64_t> family_stamp(
      static_cast<std::size_t>(num_cliques()), 0);
  std::vector<std::uint64_t> seen_stamp(
      static_cast<std::size_t>(num_cliques()), 0);
  std::vector<int> queue;
  std::uint64_t epoch = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto family = cliques_of(v);
    ++epoch;
    for (CliqueId c : family) family_stamp[c] = epoch;
    queue.clear();
    queue.push_back(static_cast<int>(family.front()));
    seen_stamp[family.front()] = epoch;
    std::size_t reached = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (CliqueId d : forest_neighbors(queue[head])) {
        if (family_stamp[d] == epoch && seen_stamp[d] != epoch) {
          seen_stamp[d] = epoch;
          ++reached;
          queue.push_back(static_cast<int>(d));
        }
      }
    }
    if (reached != family.size()) {
      throw std::logic_error("clique forest: T(v) disconnected");
    }
  }
  // (5) Each pair of cliques joined by a forest edge intersects.
  for (auto [a, b] : forest_edges()) {
    const CliqueWord ca = clique(a);
    const CliqueWord cb = clique(b);
    bool intersects = false;
    for (std::size_t i = 0, j = 0; i < ca.size() && j < cb.size();) {
      if (ca[i] < cb[j]) {
        ++i;
      } else if (ca[i] > cb[j]) {
        ++j;
      } else {
        intersects = true;
        break;
      }
    }
    if (!intersects) {
      throw std::logic_error("clique forest: empty-intersection edge");
    }
  }
}

}  // namespace chordal
