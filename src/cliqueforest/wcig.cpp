#include "cliqueforest/wcig.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal {

std::vector<std::vector<int>> clique_membership(
    const std::vector<std::vector<int>>& cliques, int num_graph_vertices) {
  std::vector<std::vector<int>> member(
      static_cast<std::size_t>(num_graph_vertices));
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (int v : cliques[c]) {
      if (v < 0 || v >= num_graph_vertices) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      member[v].push_back(static_cast<int>(c));
    }
  }
  return member;
}

std::vector<WcigEdge> wcig_edges(const std::vector<std::vector<int>>& cliques,
                                 int num_graph_vertices) {
  auto member = clique_membership(cliques, num_graph_vertices);
  // Two cliques intersect iff some vertex lists both; collect pairs.
  std::vector<std::pair<int, int>> pairs;
  for (const auto& list : member) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        pairs.emplace_back(list[i], list[j]);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<WcigEdge> edges;
  edges.reserve(pairs.size());
  for (auto [a, b] : pairs) {
    const auto& ca = cliques[a];
    const auto& cb = cliques[b];
    int weight = 0;
    std::size_t i = 0, j = 0;
    while (i < ca.size() && j < cb.size()) {
      if (ca[i] < cb[j]) {
        ++i;
      } else if (ca[i] > cb[j]) {
        ++j;
      } else {
        ++weight;
        ++i;
        ++j;
      }
    }
    edges.push_back({a, b, weight});
  }
  return edges;
}

void wcig_edges_counting(const CliqueFamily& cliques, int num_graph_vertices,
                         ForestScratch& scratch, std::vector<WcigEdge>& out) {
  out.clear();
  const int m = static_cast<int>(cliques.size());
  if (m < 2) {
    // Still validate vertex ids, matching the reference path's contract.
    for (CliqueWord clique : cliques) {
      for (int v : clique) {
        if (v < 0 || v >= num_graph_vertices) {
          throw std::out_of_range("clique_membership: vertex out of range");
        }
      }
    }
    return;
  }
  scratch.ensure_vertices(num_graph_vertices);
  const std::uint64_t epoch = ++scratch.epoch;
  scratch.occ.clear();
  scratch.pair_a.clear();
  scratch.pair_b.clear();
  // Every vertex shared by cliques p < c contributes one (p, c) occurrence;
  // the multiplicity of a pair is exactly the intersection size. The
  // per-vertex occurrence chains replace the O(n) membership table.
  for (int c = 0; c < m; ++c) {
    for (int v : cliques[c]) {
      if (v < 0 || v >= num_graph_vertices) {
        throw std::out_of_range("clique_membership: vertex out of range");
      }
      int prev = scratch.vertex_stamp[v] == epoch ? scratch.vertex_head[v] : -1;
      for (int p = prev; p != -1; p = scratch.occ[p].second) {
        scratch.pair_a.push_back(scratch.occ[p].first);
        scratch.pair_b.push_back(c);
      }
      scratch.vertex_stamp[v] = epoch;
      scratch.vertex_head[v] = static_cast<int>(scratch.occ.size());
      scratch.occ.emplace_back(c, prev);
    }
  }
  const std::size_t pairs = scratch.pair_a.size();
  if (pairs == 0) return;
  // LSD radix over clique indices: stable counting sort by b, then by a,
  // leaves the pair list ascending in (a, b) with duplicates adjacent.
  scratch.tmp_a.resize(pairs);
  scratch.tmp_b.resize(pairs);
  auto counting_pass = [&](const std::vector<int>& key_in,
                           const std::vector<int>& other_in,
                           std::vector<int>& key_out,
                           std::vector<int>& other_out) {
    scratch.counts.assign(static_cast<std::size_t>(m) + 1, 0);
    for (std::size_t i = 0; i < pairs; ++i) ++scratch.counts[key_in[i] + 1];
    for (int c = 0; c < m; ++c) scratch.counts[c + 1] += scratch.counts[c];
    for (std::size_t i = 0; i < pairs; ++i) {
      int pos = scratch.counts[key_in[i]]++;
      key_out[pos] = key_in[i];
      other_out[pos] = other_in[i];
    }
  };
  counting_pass(scratch.pair_b, scratch.pair_a, scratch.tmp_b, scratch.tmp_a);
  counting_pass(scratch.tmp_a, scratch.tmp_b, scratch.pair_a, scratch.pair_b);
  // Run-length encode: the multiplicity of each distinct pair is its weight.
  for (std::size_t i = 0; i < pairs;) {
    std::size_t j = i + 1;
    while (j < pairs && scratch.pair_a[j] == scratch.pair_a[i] &&
           scratch.pair_b[j] == scratch.pair_b[i]) {
      ++j;
    }
    out.push_back({scratch.pair_a[i], scratch.pair_b[i],
                   static_cast<int>(j - i)});
    i = j;
  }
}

bool wcig_edge_less(const WcigEdge& e, const WcigEdge& f,
                    const std::vector<std::vector<int>>& cliques) {
  if (e.weight != f.weight) return e.weight < f.weight;
  const auto& ea = cliques[e.a];
  const auto& eb = cliques[e.b];
  const auto& fa = cliques[f.a];
  const auto& fb = cliques[f.b];
  const auto& el = std::min(ea, eb);  // lexicographic vector comparison
  const auto& eh = std::max(ea, eb);
  const auto& fl = std::min(fa, fb);
  const auto& fh = std::max(fa, fb);
  if (el != fl) return el < fl;
  return eh < fh;
}

}  // namespace chordal
