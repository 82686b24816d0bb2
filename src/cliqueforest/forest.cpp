#include "cliqueforest/forest.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
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

// phi as a CSR slab: count memberships, prefix-sum, then fill ascending in
// clique index (advancing each row's start, shifted back afterwards) so
// each vertex's row comes out sorted. Validates every vertex id.
void build_phi(const CliqueFamily& cliques, int n, ForestScratch& s) {
  auto& off = s.phi_offsets;
  off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (CliqueWord word : cliques) {
    for (auto v : word) {
      if (v < 0 || v >= n) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      ++off[static_cast<std::size_t>(v) + 1];
    }
  }
  for (int v = 0; v < n; ++v) off[v + 1] += off[v];
  s.phi.resize(static_cast<std::size_t>(off[n]));
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (auto v : cliques[c]) {
      s.phi[static_cast<std::size_t>(off[v]++)] = static_cast<CliqueId>(c);
    }
  }
  for (int v = n; v > 0; --v) off[v] = off[v - 1];
  off[0] = 0;
}

// vertex_flags bits: reached by the clique search / in the marked word.
constexpr char kVisited = 1;
constexpr char kMarked = 2;

// Candidate W_G edges for one distinct separator S (safe filter): for a
// W_G edge {x, y} with rank x < y and S = C_x cut C_y, a clique z ranked
// above y containing S makes {x, y} the unique minimum of the triangle
// x-y-z under the paper's order, so it is not in the MWSF. Hence only
// {d, top(S)} can be a forest edge with separator S, over the holders d of
// S (the cliques containing it) and top(S) the highest-ranked holder. The
// holders all contain `pivot`, S's vertex of smallest |phi|.
void emit_candidates(const CliqueFamily& cliques, CliqueWord sep,
                     VertexId pivot, ForestScratch& s) {
  const auto& rank = s.ranks;
  auto toggle_mark = [&s](CliqueWord word) {
    for (auto v : word) s.vertex_flags[v] ^= kMarked;
  };
  auto count_marked = [&s](CliqueWord word) {
    int hits = 0;
    for (auto v : word) hits += (s.vertex_flags[v] & kMarked) != 0 ? 1 : 0;
    return hits;
  };
  toggle_mark(sep);
  s.holders.clear();
  int top = -1;
  for (EdgeIndex i = s.phi_offsets[pivot]; i < s.phi_offsets[pivot + 1];
       ++i) {
    const int d = static_cast<int>(s.phi[static_cast<std::size_t>(i)]);
    const CliqueWord word = cliques[static_cast<std::size_t>(d)];
    if (count_marked(word) != static_cast<int>(sep.size())) continue;
    s.holders.push_back(d);
    if (top == -1 || rank[d] > rank[top]) top = d;
  }
  toggle_mark(sep);
  const CliqueWord top_word = cliques[static_cast<std::size_t>(top)];
  toggle_mark(top_word);
  for (int d : s.holders) {
    if (d == top) continue;
    s.edges.push_back({std::min(d, top), std::max(d, top),
                       count_marked(cliques[static_cast<std::size_t>(d)])});
  }
  toggle_mark(top_word);
}

// Every forest edge's intersection is a minimal separator, so the
// candidates of all distinct minimal separators contain the forest. They
// come from a maximum-cardinality search over cliques (Tarjan &
// Yannakakis): repeatedly visit an unvisited clique sharing the most
// vertices with the visited ones, restarting at count 0 when a component
// ends. That is a running-intersection order (Blair & Peyton, Section 4),
// so the nonempty S_c = C_c cut visited are the separator multiset every
// clique tree shares. Lazy bucket stacks (stale entries skipped on pop)
// keep the search O(sum |C|). Equal separators have the same pivot, so
// each S_c is deduplicated against the distinct separators chained at
// its pivot before its candidates are emitted.
void collect_candidates(const CliqueFamily& cliques, int num_graph_vertices,
                        ForestScratch& s) {
  const int m = static_cast<int>(cliques.size());
  std::size_t width = 0;
  for (CliqueWord word : cliques) width = std::max(width, word.size());
  s.mcs_count.assign(static_cast<std::size_t>(m), 0);
  s.mcs_buckets.resize(std::max(s.mcs_buckets.size(), width + 1));
  for (auto& bucket : s.mcs_buckets) bucket.clear();
  for (int c = m - 1; c >= 0; --c) s.mcs_buckets[0].push_back(c);
  s.sep_head.assign(static_cast<std::size_t>(num_graph_vertices), -1);
  s.sep_next.clear();
  s.sep_offsets.assign(1, 0);
  s.sep_vertices.clear();
  auto phi_size = [&s](VertexId v) {
    return s.phi_offsets[v + 1] - s.phi_offsets[v];
  };
  auto separator = [&s](int id) {
    const auto begin = static_cast<std::size_t>(s.sep_offsets[id]);
    return CliqueWord(s.sep_vertices.data() + begin,
                      static_cast<std::size_t>(s.sep_offsets[id + 1]) - begin);
  };
  s.vertex_flags.assign(static_cast<std::size_t>(num_graph_vertices), 0);
  int top = 0;
  for (int step = 0; step < m; ++step) {
    int c = -1;
    while (c == -1) {
      auto& bucket = s.mcs_buckets[static_cast<std::size_t>(top)];
      if (bucket.empty()) {
        --top;
        continue;
      }
      const int d = bucket.back();
      bucket.pop_back();
      if (s.mcs_count[d] == top) c = d;  // else visited or moved up
    }
    s.mcs_count[c] = -1;
    const auto begin = static_cast<std::size_t>(s.sep_offsets.back());
    for (auto v : cliques[static_cast<std::size_t>(c)]) {
      if (s.vertex_flags[v] & kVisited) {
        s.sep_vertices.push_back(v);
        continue;
      }
      s.vertex_flags[v] = kVisited;
      for (EdgeIndex i = s.phi_offsets[v]; i < s.phi_offsets[v + 1]; ++i) {
        const int d = static_cast<int>(s.phi[static_cast<std::size_t>(i)]);
        if (s.mcs_count[d] < 0) continue;
        const int count = ++s.mcs_count[d];
        s.mcs_buckets[static_cast<std::size_t>(count)].push_back(d);
        top = std::max(top, count);
      }
    }
    if (s.sep_vertices.size() == begin) continue;  // component root
    const CliqueWord sep(s.sep_vertices.data() + begin,
                         s.sep_vertices.size() - begin);
    VertexId pivot = sep.front();
    for (auto u : sep) {
      if (phi_size(u) < phi_size(pivot)) pivot = u;
    }
    bool seen = false;
    for (int id = s.sep_head[pivot]; id != -1 && !seen; id = s.sep_next[id]) {
      seen = word_eq(sep, separator(id));
    }
    if (seen) {
      s.sep_vertices.resize(begin);
      continue;
    }
    s.sep_next.push_back(s.sep_head[pivot]);
    s.sep_head[pivot] = static_cast<int>(s.sep_next.size()) - 1;
    s.sep_offsets.push_back(static_cast<EdgeIndex>(s.sep_vertices.size()));
    emit_candidates(cliques, sep, pivot, s);
  }
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
  build_phi(cliques, num_graph_vertices, scratch);
  auto& edges = scratch.edges;
  edges.clear();
  if (m < 2) return;
  // The paper's tie-break compares the incident cliques' sorted ID words;
  // after ranking the words once, that is integer comparison on
  // (min rank, max rank). Canonical families are strictly sorted already,
  // making rank == index.
  if (cliques_lex_sorted(cliques)) {
    scratch.ranks.resize(static_cast<std::size_t>(m));
    std::iota(scratch.ranks.begin(), scratch.ranks.end(), 0);
  } else {
    scratch.ranks = clique_lex_ranks(cliques);
  }
  collect_candidates(cliques, num_graph_vertices, scratch);
  if (edges.empty()) return;
  // Two-pass radix order over ranks: ascending (min rank, max rank), the
  // ascending tie-break order.
  const auto& rank = scratch.ranks;
  scratch.edges_tmp.resize(edges.size());
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

  // The engine builds phi as a CSR slab on the way; the forest keeps it.
  // The rest of the scratch is freed before the adjacency is allocated, so
  // the adjacency can reuse that memory instead of landing above it.
  std::vector<WcigEdge> edges;
  {
    ForestScratch scratch;
    max_weight_spanning_forest(forest.cliques_, num_graph_vertices, scratch,
                               edges);
    forest.member_offsets_ = std::move(scratch.phi_offsets);
    forest.member_ = std::move(scratch.phi);
  }

  // Forest adjacency as a CSR slab over the MWSF edges.
  std::int64_t chosen = 0;
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
