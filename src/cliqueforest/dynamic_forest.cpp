#include "cliqueforest/dynamic_forest.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <ranges>
#include <stdexcept>

#include "cliqueforest/forest.hpp"

namespace chordal {

namespace {

/// Two-pointer subset test on sorted words.
bool word_subset(std::span<const VertexId> small,
                 std::span<const VertexId> big) {
  std::size_t j = 0;
  for (VertexId v : small) {
    while (j < big.size() && big[j] < v) ++j;
    if (j == big.size() || big[j] != v) return false;
    ++j;
  }
  return true;
}

int word_intersection_size(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  std::size_t i = 0, j = 0;
  int out = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++out;
      ++i;
      ++j;
    }
  }
  return out;
}

void insert_sorted(std::vector<std::int32_t>& row, std::int32_t v) {
  row.insert(std::lower_bound(row.begin(), row.end(), v), v);
}

void erase_sorted(std::vector<std::int32_t>& row, std::int32_t v) {
  auto it = std::lower_bound(row.begin(), row.end(), v);
  assert(it != row.end() && *it == v);
  row.erase(it);
}

}  // namespace

void DynamicCliqueForest::init(const CliqueFamily& family,
                               std::span<const WcigEdge> forest,
                               int vertex_slots) {
  words_.clear();
  cl_alive_.clear();
  free_cliques_.clear();
  phi_.clear();
  forest_.clear();
  alive_cliques_ = 0;
  ensure_vertex_slots(vertex_slots);
  words_.reserve(family.size());
  for (std::size_t c = 0; c < family.size(); ++c) {
    CliqueWord w = family[c];
    new_clique(std::vector<VertexId>(w.begin(), w.end()));
    touched_.clear();  // adoption is no update: U stays word-sized
  }
  for (const WcigEdge& e : forest) add_forest_edge(e.a, e.b, e.weight);
  pending_ = {};
}

void DynamicCliqueForest::ensure_vertex_slots(int n) {
  if (static_cast<std::size_t>(n) > phi_.size()) {
    phi_.resize(static_cast<std::size_t>(n));
    relabel_.resize(phi_.size());
  }
}

int DynamicCliqueForest::max_clique_size() const {
  std::size_t best = 0;
  for (int c = 0; c < num_clique_slots(); ++c) {
    if (cl_alive_[static_cast<std::size_t>(c)]) {
      best = std::max(best, words_[static_cast<std::size_t>(c)].size());
    }
  }
  return static_cast<int>(best);
}

int DynamicCliqueForest::cliques_containing_edge(int u, int v,
                                                 std::int32_t out[2]) const {
  const auto& pu = phi_[static_cast<std::size_t>(u)];
  const auto& pv = phi_[static_cast<std::size_t>(v)];
  std::size_t i = 0, j = 0;
  int count = 0;
  while (i < pu.size() && j < pv.size()) {
    if (pu[i] < pv[j]) {
      ++i;
    } else if (pv[j] < pu[i]) {
      ++j;
    } else {
      if (count < 2) out[count] = pu[i];
      if (++count == 2) return count;
      ++i;
      ++j;
    }
  }
  return count;
}

int DynamicCliqueForest::new_clique(std::vector<VertexId> word) {
  assert(std::is_sorted(word.begin(), word.end()));
  int c;
  if (!free_cliques_.empty()) {
    c = free_cliques_.back();
    free_cliques_.pop_back();
  } else {
    c = num_clique_slots();
    words_.emplace_back();
    cl_alive_.push_back(0);
    forest_.emplace_back();
  }
  auto ci = static_cast<std::size_t>(c);
  words_[ci] = std::move(word);
  cl_alive_[ci] = 1;
  assert(forest_[ci].empty());
  for (VertexId v : words_[ci]) {
    insert_sorted(phi_[static_cast<std::size_t>(v)],
                  static_cast<std::int32_t>(c));
  }
  touched_.insert(touched_.end(), words_[ci].begin(), words_[ci].end());
  ++pending_.cliques_added;
  ++alive_cliques_;
  return c;
}

void DynamicCliqueForest::kill_clique(int c) {
  auto ci = static_cast<std::size_t>(c);
  assert(cl_alive_[ci]);
  touched_.insert(touched_.end(), words_[ci].begin(), words_[ci].end());
  ++pending_.cliques_removed;
  for (VertexId v : words_[ci]) {
    erase_sorted(phi_[static_cast<std::size_t>(v)],
                 static_cast<std::int32_t>(c));
  }
  for (const ForestNeighbor& nb : forest_[ci]) {
    auto& row = forest_[static_cast<std::size_t>(nb.clique)];
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (row[k].clique == c) {
        row[k] = row.back();
        row.pop_back();
        break;
      }
    }
  }
  forest_[ci].clear();
  words_[ci].clear();
  cl_alive_[ci] = 0;
  free_cliques_.push_back(static_cast<std::int32_t>(c));
  --alive_cliques_;
}

void DynamicCliqueForest::add_forest_edge(int a, int b, int weight) {
  forest_[static_cast<std::size_t>(a)].push_back(
      {static_cast<std::int32_t>(b), static_cast<std::int32_t>(weight)});
  forest_[static_cast<std::size_t>(b)].push_back(
      {static_cast<std::int32_t>(a), static_cast<std::int32_t>(weight)});
}

ForestRepairStats DynamicCliqueForest::repair() {
  ForestRepairStats stats = pending_;
  pending_ = {};
  // R: the alive cliques meeting U. Killed cliques already took their
  // forest edges with them; the edges inside R go now, the edges leaving R
  // stay (their separators avoid U).
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  if (rstamp_.size() < words_.size()) rstamp_.resize(words_.size(), 0);
  ++repoch_;
  region_.clear();
  for (VertexId u : touched_) {
    for (std::int32_t c : phi_[static_cast<std::size_t>(u)]) {
      auto ci = static_cast<std::size_t>(c);
      if (rstamp_[ci] == repoch_) continue;
      rstamp_[ci] = repoch_;
      region_.push_back(c);
    }
  }
  touched_.clear();
  for (std::int32_t c : region_) {
    auto& row = forest_[static_cast<std::size_t>(c)];
    std::erase_if(row, [this](const ForestNeighbor& nb) {
      return rstamp_[static_cast<std::size_t>(nb.clique)] == repoch_;
    });
  }
  if (region_.size() < 2) return stats;

  // MWSF of W[R] by a batch engine, over R in word order (rank == index).
  std::sort(region_.begin(), region_.end(), [this](int a, int b) {
    return word_less(word(a), word(b));
  });
  const int f = static_cast<int>(region_.size());
  region_family_.clear();
  if (f <= kDenseRegion) {
    for (std::int32_t c : region_) region_family_.push_word(word(c));
    region_ids_.resize(region_.size());
    std::iota(region_ids_.begin(), region_ids_.end(), CliqueId{0});
    dense_out_.clear();
    family_forest_edges(region_family_, region_ids_, engine_, dense_out_);
    stats.pool_edges += static_cast<int>(engine_.pair_a.size());
    for (auto [i, j] : dense_out_) {
      int a = region_[static_cast<std::size_t>(i)];
      int b = region_[static_cast<std::size_t>(j)];
      add_forest_edge(a, b, word_intersection_size(word(a), word(b)));
    }
    return stats;
  }
  // Hub region: the sparse engine's tables are O(#vertices), so relabel
  // R's vertices to 0..k-1 first. The relabel is monotone, hence keeps the
  // words sorted and their lexicographic order.
  region_vertices_.clear();
  for (std::int32_t c : region_) {
    region_vertices_.insert(region_vertices_.end(), word(c).begin(),
                            word(c).end());
  }
  std::sort(region_vertices_.begin(), region_vertices_.end());
  region_vertices_.erase(
      std::unique(region_vertices_.begin(), region_vertices_.end()),
      region_vertices_.end());
  for (std::size_t i = 0; i < region_vertices_.size(); ++i) {
    relabel_[static_cast<std::size_t>(region_vertices_[i])] =
        static_cast<VertexId>(i);
  }
  auto relabel = [this](VertexId v) {
    return relabel_[static_cast<std::size_t>(v)];
  };
  for (std::int32_t c : region_) {
    region_family_.push_word(word(c) | std::views::transform(relabel));
  }
  max_weight_spanning_forest(region_family_,
                             static_cast<int>(region_vertices_.size()),
                             engine_, sparse_out_);
  stats.pool_edges += static_cast<int>(engine_.edges.size());
  for (const WcigEdge& e : sparse_out_) {
    add_forest_edge(region_[static_cast<std::size_t>(e.a)],
                    region_[static_cast<std::size_t>(e.b)], e.weight);
  }
  return stats;
}

ForestRepairStats DynamicCliqueForest::apply_edge_insert(
    int u, int v, std::span<const int> common) {
  std::vector<VertexId> new_word;
  new_word.reserve(common.size() + 2);
  for (int x : common) new_word.push_back(static_cast<VertexId>(x));
  new_word.push_back(static_cast<VertexId>(u));
  new_word.push_back(static_cast<VertexId>(v));
  std::sort(new_word.begin(), new_word.end());
  // Dying cliques are contained in the new one and contain u or v (no old
  // clique holds both - uv was a non-edge).
  for (int endpoint : {u, v}) {
    const auto& ph = phi_[static_cast<std::size_t>(endpoint)];
    for (std::size_t i = 0; i < ph.size();) {
      int c = ph[i];
      if (word_subset(word(c), new_word)) {
        kill_clique(c);  // erases ph[i]; do not advance
      } else {
        ++i;
      }
    }
  }
  new_clique(std::move(new_word));
  return repair();
}

ForestRepairStats DynamicCliqueForest::apply_edge_delete(int u, int v) {
  std::int32_t holders[2];
  int count = cliques_containing_edge(u, v, holders);
  if (count != 1) {
    throw std::logic_error(
        "apply_edge_delete: edge not in exactly one maximal clique "
        "(uncertified update)");
  }
  int k = holders[0];
  std::vector<VertexId> kw(word(k).begin(), word(k).end());
  kill_clique(k);
  for (int drop : {v, u}) {  // candidates K - v (keeps u) and K - u (keeps v)
    std::vector<VertexId> cand;
    cand.reserve(kw.size() - 1);
    for (VertexId x : kw) {
      if (x != static_cast<VertexId>(drop)) cand.push_back(x);
    }
    assert(!cand.empty());
    bool contained = false;
    for (std::int32_t c : phi_[static_cast<std::size_t>(cand.front())]) {
      if (word_subset(cand, word(c))) {
        contained = true;
        break;
      }
    }
    if (!contained) new_clique(std::move(cand));
  }
  return repair();
}

ForestRepairStats DynamicCliqueForest::apply_vertex_insert(
    int z, std::span<const std::vector<int>> gx_cliques) {
  ensure_vertex_slots(z + 1);
  assert(phi_[static_cast<std::size_t>(z)].empty());
  if (gx_cliques.empty()) new_clique({static_cast<VertexId>(z)});
  for (const auto& m : gx_cliques) {
    // An old maximal clique dies iff it equals a maximal clique of G[X]
    // (it then gains z and stops being maximal on its own).
    assert(!m.empty());
    for (std::int32_t c : phi_[static_cast<std::size_t>(m.front())]) {
      if (word(c).size() == m.size() &&
          std::equal(m.begin(), m.end(), word(c).begin())) {
        kill_clique(c);
        break;
      }
    }
    std::vector<VertexId> nw;
    nw.reserve(m.size() + 1);
    for (int x : m) nw.push_back(static_cast<VertexId>(x));
    nw.push_back(static_cast<VertexId>(z));
    std::sort(nw.begin(), nw.end());
    new_clique(std::move(nw));
  }
  return repair();
}

ForestRepairStats DynamicCliqueForest::apply_vertex_delete(int z) {
  std::vector<std::int32_t> dying(phi_[static_cast<std::size_t>(z)].begin(),
                                  phi_[static_cast<std::size_t>(z)].end());
  std::vector<std::vector<VertexId>> cands;
  for (std::int32_t c : dying) {
    std::vector<VertexId> cand;
    cand.reserve(word(c).size() - 1);
    for (VertexId x : word(c)) {
      if (x != static_cast<VertexId>(z)) cand.push_back(x);
    }
    if (!cand.empty()) cands.push_back(std::move(cand));
    kill_clique(c);
  }
  // Larger candidates first: a candidate contained in a bigger sibling must
  // see that sibling already in phi when its containment test runs.
  std::sort(cands.begin(), cands.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (auto& cand : cands) {
    bool contained = false;
    for (std::int32_t c : phi_[static_cast<std::size_t>(cand.front())]) {
      if (word_subset(cand, word(c))) {
        contained = true;
        break;
      }
    }
    if (!contained) new_clique(std::move(cand));
  }
  return repair();
}

CliqueFamily DynamicCliqueForest::canonical_family() const {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(alive_cliques_));
  for (int c = 0; c < num_clique_slots(); ++c) {
    if (cl_alive_[static_cast<std::size_t>(c)]) order.push_back(c);
  }
  std::sort(order.begin(), order.end(),
            [this](int a, int b) { return word_less(word(a), word(b)); });
  CliqueFamily out;
  std::size_t total = 0;
  for (int c : order) total += word(c).size();
  out.reserve(order.size(), total);
  for (int c : order) out.push_word(word(c));
  return out;
}

std::vector<std::pair<std::vector<int>, std::vector<int>>>
DynamicCliqueForest::canonical_forest_edges() const {
  std::vector<std::pair<std::vector<int>, std::vector<int>>> out;
  for (int c = 0; c < num_clique_slots(); ++c) {
    if (!cl_alive_[static_cast<std::size_t>(c)]) continue;
    for (const ForestNeighbor& nb : forest_[static_cast<std::size_t>(c)]) {
      if (nb.clique <= c) continue;
      CliqueWord lo = word(c), hi = word(nb.clique);
      if (word_less(hi, lo)) std::swap(lo, hi);
      out.emplace_back(word_vec(lo), word_vec(hi));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DynamicCliqueForest::memory_bytes() const {
  std::size_t bytes =
      cl_alive_.capacity() + free_cliques_.capacity() * sizeof(std::int32_t) +
      words_.capacity() * sizeof(std::vector<VertexId>) +
      phi_.capacity() * sizeof(std::vector<std::int32_t>) +
      forest_.capacity() * sizeof(std::vector<ForestNeighbor>);
  for (const auto& w : words_) bytes += w.capacity() * sizeof(VertexId);
  for (const auto& p : phi_) bytes += p.capacity() * sizeof(std::int32_t);
  for (const auto& f : forest_) bytes += f.capacity() * sizeof(ForestNeighbor);
  return bytes;
}

}  // namespace chordal
