// Mutable slot-based companion to the CSR Graph, plus the local chordality
// certificates that gate every mutation of the dynamic layer.
//
// The CSR slabs of graph/graph.hpp are deliberately immutable: inserting one
// edge in place would memmove O(m) adjacency slots. The dynamic layer
// therefore keeps the *current* graph in per-slot sorted neighbor vectors
// with an aliveness mask and a free list (deleted vertex slots are reused
// lowest-first by later insertions), and materializes a CSR snapshot only
// when a batch consumer (e.g. a parity audit) asks for one. Slot ids are
// stable across a vertex's lifetime, so downstream per-vertex state
// (colors, clique membership) never needs relabeling.
//
// Chordality certificates. Each mutation of a chordal graph G admits a
// *local* exactness test (no global recognition pass):
//
//   * insert edge uv (uv not in E):  G+uv is chordal  iff  S = N(u) cut N(v)
//     separates u from v in G. If some u-v path survives in G - S, the
//     shortest such path P is induced (a chord would shortcut it) and has
//     length >= 3 (a length-2 path's midpoint would be in S), so P + uv is a
//     chordless cycle of G+uv - the returned witness.
//   * delete edge uv:  G-uv is chordal  iff  S = N(u) cut N(v) is a clique
//     (equivalently uv lies in exactly one maximal clique). Nonadjacent
//     a, b in S yield the chordless 4-cycle u,a,v,b in G-uv.
//   * insert vertex z with neighborhood X:  G+z is chordal  iff  for every
//     connected component D of G-X, the attachment N(D) cut X is a clique.
//     Nonadjacent a, b attached to the same component D yield a witness: a
//     shortest a-b path routed through D is induced, and closing it through
//     z (adjacent to exactly X) gives a chordless cycle of G+z. The witness
//     uses kNewVertex as a placeholder for z, which has no id yet.
//   * delete vertex: always chordal (the class is hereditary).
//
// The functions below are the BFS oracles for these tests: exact, simple,
// and O(affected component) - they are the reference the fast forest-based
// certificates in core/dynamic.cpp fall back to (and are differentially
// tested against by the audit matrix).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace chordal {

/// A mutation was rejected because it would break chordality. Carries the
/// witness: a chordless cycle (length >= 4) of the graph-after-update, as a
/// vertex sequence in cycle order. For vertex insertion the new vertex has
/// no id yet and appears as ChordalityViolation::kNewVertex.
class ChordalityViolation : public std::invalid_argument {
 public:
  static constexpr int kNewVertex = -1;

  ChordalityViolation(const std::string& what, std::vector<int> cycle)
      : std::invalid_argument(what), cycle_(std::move(cycle)) {}

  const std::vector<int>& witness_cycle() const { return cycle_; }

 private:
  std::vector<int> cycle_;
};

/// Reusable epoch-stamped scratch for the certificate BFS passes; one per
/// owner, never shared between concurrent calls. Grows lazily, clears
/// nothing.
struct DynamicScratch {
  void ensure(int n) {
    auto size = static_cast<std::size_t>(n);
    if (visit.size() < size) {
      visit.resize(size, 0);
      blocked.resize(size, 0);
      parent.resize(size, -1);
    }
  }

  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> visit;    // BFS visited stamp
  std::vector<std::uint64_t> blocked;  // separator / X membership stamp
  std::vector<int> parent;             // BFS tree for witness extraction
  std::vector<int> queue;
  std::vector<int> touched;  // small id-set staging (attachments etc.)
};

/// Mutable simple graph over stable vertex slots. Slots are 0..num_slots()-1;
/// dead slots keep their id (and reject adjacency queries' membership — they
/// simply have empty neighbor lists) until a later insert_vertex revives the
/// lowest free one. Mutators enforce simple-graph shape (no loops, no
/// duplicate edges, endpoints alive) with std::invalid_argument; chordality
/// is the caller's contract (see DynamicChordal), not this class's.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Adopts a static graph: every CSR vertex becomes an alive slot.
  explicit DynamicGraph(const Graph& g);

  int num_slots() const { return static_cast<int>(adj_.size()); }
  int num_alive() const { return alive_count_; }
  std::size_t num_edges() const { return edge_count_; }

  bool alive(int v) const {
    return v >= 0 && v < num_slots() && alive_[static_cast<std::size_t>(v)];
  }
  int degree(int v) const {
    return static_cast<int>(adj_[static_cast<std::size_t>(v)].size());
  }
  /// Sorted alive neighbors of an alive slot.
  std::span<const VertexId> neighbors(int v) const {
    return adj_[static_cast<std::size_t>(v)];
  }
  /// O(log deg) membership; false unless both endpoints are alive.
  bool has_edge(int u, int v) const;

  void add_edge(int u, int v);
  void remove_edge(int u, int v);
  /// Revives the lowest dead slot (or appends a new one) with the given
  /// alive, duplicate-free neighbor set; returns the slot id.
  int add_vertex(std::span<const int> neighbors);
  /// Kills the slot and every incident edge; the id goes on the free list.
  void remove_vertex(int v);

  /// Ascending list of alive slot ids.
  std::vector<int> alive_vertices() const;

  /// CSR snapshot over all slots; dead slots are isolated rows, so slot ids
  /// and CSR ids coincide (what the audits want).
  Graph materialize() const;

  std::size_t memory_bytes() const;

 private:
  void require_alive(int v, const char* what) const;

  std::vector<std::vector<VertexId>> adj_;  // sorted alive neighbors per slot
  std::vector<char> alive_;
  std::vector<int> free_slots_;  // min-heap (std::greater) of dead slot ids
  int alive_count_ = 0;
  std::size_t edge_count_ = 0;
};

/// Certificate oracles. Each returns an empty vector when the mutation keeps
/// the graph chordal, else the witness chordless cycle described above.
/// Preconditions (enforced by the mutators' argument checks, asserted here):
/// endpoints alive; for insert, uv not an edge and u != v; for delete, uv an
/// edge; for vertex insert, `neighbors` alive, sorted, duplicate-free.
std::vector<int> certify_edge_insert(const DynamicGraph& g, int u, int v,
                                     DynamicScratch& scratch);
std::vector<int> certify_edge_delete(const DynamicGraph& g, int u, int v);
std::vector<int> certify_vertex_insert(const DynamicGraph& g,
                                       std::span<const int> neighbors,
                                       DynamicScratch& scratch);

}  // namespace chordal
