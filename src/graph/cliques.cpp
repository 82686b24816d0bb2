#include "graph/cliques.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal {

CliqueFamily maximal_cliques_chordal_family(const Graph& g,
                                            const EliminationOrder& peo) {
  const int n = g.num_vertices();
  // later_count[v] = |N_later(v)|; follower[v] = later neighbor of v that is
  // closest to v in the order (the parent m(v) of the clique-tree
  // literature).
  std::vector<int> later_count(static_cast<std::size_t>(n), 0);
  std::vector<int> follower(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    for (int w : g.neighbors(v)) {
      if (peo.position[w] > peo.position[v]) {
        ++later_count[v];
        if (follower[v] == -1 ||
            peo.position[w] < peo.position[follower[v]]) {
          follower[v] = w;
        }
      }
    }
  }
  // C_v = {v} + N_later(v) fails to be maximal iff some u with follower
  // m(u) = v has |N_later(u)| = |N_later(v)| + 1 (then C_v is a subset of
  // C_u). Blair & Peyton, "An introduction to chordal graphs and clique
  // trees", Lemma 4.4.
  std::vector<int> reach(static_cast<std::size_t>(n), -1);
  for (int u = 0; u < n; ++u) {
    if (follower[u] != -1) {
      reach[follower[u]] = std::max(reach[follower[u]], later_count[u]);
    }
  }
  CliqueFamily stage;
  std::vector<VertexId> word;
  for (int v = 0; v < n; ++v) {
    if (reach[v] >= later_count[v] + 1) continue;  // dominated, not maximal
    word.clear();
    word.push_back(static_cast<VertexId>(v));
    for (VertexId w : g.neighbors(v)) {
      if (peo.position[w] > peo.position[v]) word.push_back(w);
    }
    std::sort(word.begin(), word.end());
    stage.push_word(word);
  }
  // Canonical order through an index argsort: the words of distinct
  // maximal cliques are distinct, so word_less is a strict total order.
  const std::size_t m = stage.size();
  std::vector<int> order(m);
  for (std::size_t c = 0; c < m; ++c) order[c] = static_cast<int>(c);
  std::sort(order.begin(), order.end(), [&stage](int a, int b) {
    return word_less(stage[static_cast<std::size_t>(a)],
                     stage[static_cast<std::size_t>(b)]);
  });
  CliqueFamily out;
  out.reserve(m, stage.total_vertices());
  for (int c : order) out.push_word(stage[static_cast<std::size_t>(c)]);
  return out;
}

CliqueFamily maximal_cliques_chordal_family(const Graph& g) {
  return maximal_cliques_chordal_family(g, peo_or_throw(g));
}

std::vector<std::vector<int>> maximal_cliques_chordal(
    const Graph& g, const EliminationOrder& peo) {
  return maximal_cliques_chordal_family(g, peo).to_nested();
}

std::vector<std::vector<int>> maximal_cliques_chordal(const Graph& g) {
  return maximal_cliques_chordal(g, peo_or_throw(g));
}

namespace {

void bron_kerbosch(const Graph& g, std::vector<int>& r, std::vector<int> p,
                   std::vector<int> x, std::vector<std::vector<int>>& out) {
  if (p.empty() && x.empty()) {
    std::vector<int> clique = r;
    std::sort(clique.begin(), clique.end());
    out.push_back(std::move(clique));
    return;
  }
  // Pivot: vertex of P union X with most neighbors in P.
  int pivot = -1, best = -1;
  for (const auto& side : {p, x}) {
    for (int u : side) {
      int cnt = 0;
      for (int w : p) cnt += g.has_edge(u, w) ? 1 : 0;
      if (cnt > best) {
        best = cnt;
        pivot = u;
      }
    }
  }
  std::vector<int> candidates;
  for (int v : p) {
    if (pivot == -1 || !g.has_edge(pivot, v)) candidates.push_back(v);
  }
  for (int v : candidates) {
    std::vector<int> p2, x2;
    for (int w : p) {
      if (g.has_edge(v, w)) p2.push_back(w);
    }
    for (int w : x) {
      if (g.has_edge(v, w)) x2.push_back(w);
    }
    r.push_back(v);
    bron_kerbosch(g, r, std::move(p2), std::move(x2), out);
    r.pop_back();
    p.erase(std::find(p.begin(), p.end(), v));
    x.push_back(v);
  }
}

}  // namespace

std::vector<std::vector<int>> maximal_cliques_bruteforce(const Graph& g) {
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) all[v] = v;
  std::vector<std::vector<int>> out;
  std::vector<int> r;
  bron_kerbosch(g, r, all, {}, out);
  std::sort(out.begin(), out.end());
  return out;
}

bool cliques_lex_sorted(const CliqueFamily& cliques) {
  for (std::size_t c = 1; c < cliques.size(); ++c) {
    if (!word_less(cliques[c - 1], cliques[c])) return false;
  }
  return true;
}

std::vector<int> clique_lex_ranks(const CliqueFamily& cliques) {
  const int m = static_cast<int>(cliques.size());
  std::vector<int> order(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(), [&cliques](int a, int b) {
    return word_less(cliques[static_cast<std::size_t>(a)],
                     cliques[static_cast<std::size_t>(b)]);
  });
  std::vector<int> ranks(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) ranks[order[r]] = r;
  return ranks;
}

int max_clique_size_chordal(const Graph& g) {
  std::size_t best = 0;
  for (CliqueWord c : maximal_cliques_chordal_family(g)) {
    best = std::max(best, c.size());
  }
  return static_cast<int>(best);
}

}  // namespace chordal
