#include "core/dynamic.hpp"

#include <algorithm>
#include <string>

#include "cliqueforest/forest.hpp"
#include "graph/cliques.hpp"
#include "graph/peo.hpp"

namespace chordal {

DynamicChordal::DynamicChordal(const Graph& g) : graph_(g) {
  EliminationOrder peo = peo_or_throw(g);  // rejects non-chordal input
  CliqueFamily family = maximal_cliques_chordal_family(g, peo);
  std::vector<WcigEdge> forest_edges =
      max_weight_spanning_forest(family, g.num_vertices());
  forest_.init(family, forest_edges, g.num_vertices());
  labels_.reset(graph_);
}

std::vector<int> DynamicChordal::sorted_common_neighbors(int u, int v) const {
  std::vector<int> out;
  auto nu = graph_.neighbors(u);
  auto nv = graph_.neighbors(v);
  std::size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nv[j] < nu[i]) {
      ++j;
    } else {
      out.push_back(static_cast<int>(nu[i]));
      ++i;
      ++j;
    }
  }
  return out;
}

bool DynamicChordal::edge_insert_fastpath(int u, int v,
                                          std::span<const int> common) {
  // Stamp S = N(u) cut N(v) on the vertex scratch.
  scratch_.ensure(graph_.num_slots());
  ++scratch_.epoch;
  for (int x : common) scratch_.blocked[static_cast<std::size_t>(x)] = scratch_.epoch;

  auto slots = static_cast<std::size_t>(forest_.num_clique_slots());
  if (fstamp_.size() < slots) {
    fstamp_.resize(slots, 0);
    ftarget_.resize(slots, 0);
    fparent_.resize(slots, -1);
  }
  ++fepoch_;
  for (std::int32_t c : forest_.cliques_of(v)) {
    ftarget_[static_cast<std::size_t>(c)] = fepoch_;
  }
  fqueue_.clear();
  for (std::int32_t c : forest_.cliques_of(u)) {
    fstamp_[static_cast<std::size_t>(c)] = fepoch_;
    fparent_[static_cast<std::size_t>(c)] = -1;
    fqueue_.push_back(c);
  }
  // Multi-source BFS from T(u) until the first T(v) clique: the connecting
  // tree path between the two subtrees.
  int hit = -1;
  for (std::size_t head = 0; head < fqueue_.size() && hit < 0; ++head) {
    std::int32_t x = fqueue_[head];
    ++stats_.path_steps;
    for (const auto& nb : forest_.forest_neighbors(x)) {
      auto ni = static_cast<std::size_t>(nb.clique);
      if (fstamp_[ni] == fepoch_) continue;
      fstamp_[ni] = fepoch_;
      fparent_[ni] = x;
      if (ftarget_[ni] == fepoch_) {
        hit = nb.clique;
        break;
      }
      fqueue_.push_back(nb.clique);
    }
  }
  if (hit < 0) return true;  // different trees: S trivially separates
  // Valid iff some path edge's bag intersection is contained in S: that
  // intersection is a u-v separator (clique-tree edge property), and a
  // superset of a separator separates.
  for (int p = hit; fparent_[static_cast<std::size_t>(p)] != -1;
       p = fparent_[static_cast<std::size_t>(p)]) {
    int q = fparent_[static_cast<std::size_t>(p)];
    CliqueWord a = forest_.word(p), b = forest_.word(q);
    bool inside = true;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        if (scratch_.blocked[static_cast<std::size_t>(a[i])] !=
            scratch_.epoch) {
          inside = false;
          break;
        }
        ++i;
        ++j;
      }
    }
    if (inside) return true;
  }
  return false;
}

void DynamicChordal::absorb(const ForestRepairStats& fs,
                            const LabelRepairStats& ls) {
  stats_.cliques_removed += fs.cliques_removed;
  stats_.cliques_added += fs.cliques_added;
  stats_.pool_edges += fs.pool_edges;
  stats_.labels_processed += ls.processed;
  stats_.color_changes += ls.color_changes;
  stats_.mis_flips += ls.mis_flips;
}

void DynamicChordal::insert_edge(int u, int v) {
  if (!graph_.alive(u) || !graph_.alive(v)) {
    throw std::invalid_argument("insert_edge: endpoint not alive");
  }
  if (u == v) {
    throw std::invalid_argument("insert_edge: self-loop at " +
                                std::to_string(u));
  }
  if (graph_.has_edge(u, v)) {
    throw std::invalid_argument("insert_edge: edge already present");
  }
  std::vector<int> common = sorted_common_neighbors(u, v);
  if (edge_insert_fastpath(u, v, common)) {
    ++stats_.fastpath_accepts;
  } else {
    ++stats_.oracle_calls;
    std::vector<int> cycle = certify_edge_insert(graph_, u, v, scratch_);
    if (!cycle.empty()) {
      ++stats_.rejected;
      throw ChordalityViolation(
          "insert_edge(" + std::to_string(u) + ", " + std::to_string(v) +
              "): common neighborhood does not separate the endpoints; a "
              "chordless cycle of length " +
              std::to_string(cycle.size()) + " would appear",
          std::move(cycle));
    }
  }
  graph_.add_edge(u, v);
  ForestRepairStats fs = forest_.apply_edge_insert(u, v, common);
  int seeds[2] = {u, v};
  LabelRepairStats ls = labels_.repair(graph_, seeds);
  ++stats_.edge_inserts;
  absorb(fs, ls);
}

void DynamicChordal::delete_edge(int u, int v) {
  if (!graph_.has_edge(u, v)) {
    throw std::invalid_argument("delete_edge: edge (" + std::to_string(u) +
                                ", " + std::to_string(v) + ") not present");
  }
  std::int32_t holders[2];
  int count = forest_.cliques_containing_edge(u, v, holders);
  if (count != 1) {
    ++stats_.oracle_calls;
    std::vector<int> cycle = certify_edge_delete(graph_, u, v);
    ++stats_.rejected;
    throw ChordalityViolation(
        "delete_edge(" + std::to_string(u) + ", " + std::to_string(v) +
            "): edge lies in " + std::to_string(count) +
            " maximal cliques; removing it leaves a chordless 4-cycle",
        std::move(cycle));
  }
  graph_.remove_edge(u, v);
  ForestRepairStats fs = forest_.apply_edge_delete(u, v);
  int seeds[2] = {u, v};
  LabelRepairStats ls = labels_.repair(graph_, seeds);
  ++stats_.edge_deletes;
  absorb(fs, ls);
}

int DynamicChordal::insert_vertex(std::span<const int> neighbors) {
  std::vector<int> x(neighbors.begin(), neighbors.end());
  std::sort(x.begin(), x.end());
  if (std::adjacent_find(x.begin(), x.end()) != x.end()) {
    throw std::invalid_argument("insert_vertex: duplicate neighbor");
  }
  for (int w : x) {
    if (!graph_.alive(w)) {
      throw std::invalid_argument("insert_vertex: neighbor " +
                                  std::to_string(w) + " is not alive");
    }
  }
  bool x_is_clique = true;
  for (std::size_t i = 0; i < x.size() && x_is_clique; ++i) {
    for (std::size_t j = i + 1; j < x.size(); ++j) {
      if (!graph_.has_edge(x[i], x[j])) {
        x_is_clique = false;
        break;
      }
    }
  }
  std::vector<std::vector<int>> gx;
  if (x_is_clique) {
    if (!x.empty()) gx.push_back(x);
  } else {
    ++stats_.oracle_calls;
    std::vector<int> cycle = certify_vertex_insert(graph_, x, scratch_);
    if (!cycle.empty()) {
      ++stats_.rejected;
      throw ChordalityViolation(
          "insert_vertex: neighborhood attaches to a component through a "
          "non-clique; a chordless cycle of length " +
              std::to_string(cycle.size()) + " would appear",
          std::move(cycle));
    }
    // Maximal cliques of G[X] via a local induced build (|X| is small by
    // the locality contract; G[X] is chordal as an induced subgraph).
    GraphBuilder builder(static_cast<int>(x.size()));
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t j = i + 1; j < x.size(); ++j) {
        if (graph_.has_edge(x[i], x[j])) {
          builder.add_edge(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
    gx = maximal_cliques_chordal(builder.build());
    for (auto& word : gx) {
      for (int& local : word) local = x[static_cast<std::size_t>(local)];
    }
  }
  int z = graph_.add_vertex(x);
  forest_.ensure_vertex_slots(graph_.num_slots());
  ForestRepairStats fs = forest_.apply_vertex_insert(z, gx);
  seed_buf_.assign(x.begin(), x.end());
  seed_buf_.push_back(z);
  LabelRepairStats ls = labels_.repair(graph_, seed_buf_);
  ++stats_.vertex_inserts;
  absorb(fs, ls);
  return z;
}

void DynamicChordal::delete_vertex(int v) {
  if (!graph_.alive(v)) {
    throw std::invalid_argument("delete_vertex: vertex " + std::to_string(v) +
                                " is not alive");
  }
  auto nbrs = graph_.neighbors(v);
  seed_buf_.assign(nbrs.begin(), nbrs.end());
  seed_buf_.push_back(v);
  graph_.remove_vertex(v);
  ForestRepairStats fs = forest_.apply_vertex_delete(v);
  LabelRepairStats ls = labels_.repair(graph_, seed_buf_);
  ++stats_.vertex_deletes;
  absorb(fs, ls);
}

DynamicChordal::Signature DynamicChordal::signature() const {
  Signature sig;
  for (int v = 0; v < graph_.num_slots(); ++v) {
    if (!graph_.alive(v)) continue;
    sig.colors.emplace_back(v, labels_.color(v));
    if (labels_.in_mis(v)) sig.mis.push_back(v);
  }
  sig.family = forest_.canonical_family().to_nested();
  sig.forest = forest_.canonical_forest_edges();
  return sig;
}

DynamicChordal::Signature DynamicChordal::recompute_signature(
    const DynamicGraph& g) {
  Signature sig;
  std::vector<int> alive = g.alive_vertices();
  Graph full = g.materialize();
  std::vector<int> original_of;
  Graph sub = full.induced_subgraph(alive, &original_of);
  EliminationOrder peo = peo_or_throw(sub);
  CliqueFamily family = maximal_cliques_chordal_family(sub, peo);
  std::vector<WcigEdge> forest_edges =
      max_weight_spanning_forest(family, sub.num_vertices());

  // Canonical labels in compact id order == slot order (the alive list is
  // ascending, so the relabeling is monotone and mex/MIS rules commute).
  int n = sub.num_vertices();
  std::vector<int> color(static_cast<std::size_t>(n), -1);
  std::vector<char> mis(static_cast<std::size_t>(n), 0);
  std::vector<char> seen;
  for (int v = 0; v < n; ++v) {
    auto nbrs = sub.neighbors(v);
    int deg = sub.degree(v);
    seen.assign(static_cast<std::size_t>(deg) + 1, 0);
    bool m = true;
    for (VertexId uv : nbrs) {
      int u = static_cast<int>(uv);
      if (u >= v) break;
      if (color[static_cast<std::size_t>(u)] <= deg) {
        seen[static_cast<std::size_t>(color[static_cast<std::size_t>(u)])] = 1;
      }
      if (mis[static_cast<std::size_t>(u)]) m = false;
    }
    int c = 0;
    while (c <= deg && seen[static_cast<std::size_t>(c)]) ++c;
    color[static_cast<std::size_t>(v)] = c;
    mis[static_cast<std::size_t>(v)] = m ? 1 : 0;
    sig.colors.emplace_back(original_of[static_cast<std::size_t>(v)], c);
    if (m) sig.mis.push_back(original_of[static_cast<std::size_t>(v)]);
  }

  // Words map monotonically back to slot ids, so sortedness and the
  // family's lexicographic order survive the relabeling.
  sig.family.reserve(family.size());
  for (CliqueWord w : family) {
    std::vector<int> word;
    word.reserve(w.size());
    for (VertexId lv : w) {
      word.push_back(original_of[static_cast<std::size_t>(lv)]);
    }
    sig.family.push_back(std::move(word));
  }
  for (const WcigEdge& e : forest_edges) {
    const auto& lo = sig.family[static_cast<std::size_t>(e.a)];
    const auto& hi = sig.family[static_cast<std::size_t>(e.b)];
    if (hi < lo) {
      sig.forest.emplace_back(hi, lo);
    } else {
      sig.forest.emplace_back(lo, hi);
    }
  }
  std::sort(sig.forest.begin(), sig.forest.end());
  return sig;
}

}  // namespace chordal
