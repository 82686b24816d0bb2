// Allocation-lean ball collection and local-view reconstruction.
//
// The per-node work of every driver in this repo starts with "collect the
// distance-d ball of v" - in the naive form that costs O(n) per call just
// to reset visited marks and relabel tables, which dwarfs the actual
// ball-sized work on large sparse instances and makes node loops
// cache-hostile. A BallWorkspace owns epoch-stamped tables (visited marks,
// ball-local ids) sized once to the host graph plus reusable CSR assembly
// buffers, so a ball collection touches only ball-sized state: zero O(n)
// clears, zero allocations once the buffers are warm.
//
// The workspace overloads compute bit-identical results to the allocating
// forms in local/ball.cpp and cliqueforest/local_view.cpp (asserted by
// tests/workspace_test.cpp). One workspace per worker thread makes the
// per-node loops embarrassingly parallel. Worker threads see no registry
// (obs::current() is thread-local), so only coordinator-side calls record
// telemetry; event tracing goes through the per-worker `trace` ring.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "cliqueforest/wcig.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"
#include "obs/trace.hpp"

namespace chordal::local {

/// Reusable scratch for collect_ball / compute_local_view. One workspace
/// per worker thread; a workspace must not be shared between concurrent
/// calls. All stamped tables grow on first use and are never cleared.
class BallWorkspace {
 public:
  /// Grows the stamped tables to the graph's vertex count (no-op once
  /// sized); called by every workspace function.
  void ensure(const Graph& g);

  /// Distance from the observer of the last compute_local_view call on this
  /// workspace to global vertex v, or -1 if v fell outside that ball. The
  /// collected ball is radius-limited and restricted to the active set, so
  /// for ball members this equals the restricted BFS distance. Invalidated
  /// by the next workspace call.
  int last_ball_dist(int v) const {
    return visit_stamp[v] == epoch ? ball.dist[local_id[v]] : -1;
  }

  /// Event-trace staging ring for parallel workers: when a driver runs
  /// under an obs::Tracer it wires this to Tracer::worker(w) for the
  /// region, and library sites (per-family forest builds) emit through
  /// obs::trace_emit(trace, ...). Null when tracing is off or the driver is
  /// not trace-aware; the driver merges the worker rings in worker order
  /// after the join (see obs/trace.hpp).
  obs::TraceBuf* trace = nullptr;

  // Internal state (used by the workspace.cpp implementations). CSR
  // assembly buffers use the compact id types so assign_csr is a straight
  // slab copy with no widening pass.
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> visit_stamp;  // per vertex, ball epoch
  std::vector<int> local_id;               // ball-local index, if stamped
  std::vector<EdgeIndex> offsets;          // CSR assembly, ball-sized
  std::vector<VertexId> adj;               // CSR assembly, ball-sized
  std::vector<std::pair<int, int>> phi_pairs;  // (vertex, clique index)
  std::vector<CliqueId> family;                // phi(u) clique indices
  ForestScratch forest;  // per-family MWSF engine scratch (Lemma 2)
  Ball ball;             // reused by local view
};

/// Workspace form of collect_ball: identical Ball (vertices, graph, dist),
/// identical ledger charge and telemetry, but `out`'s storage is reused and
/// no O(n) state is touched.
void collect_ball(const Graph& g, int center, int radius,
                  const std::vector<char>* active, RoundLedger* ledger,
                  BallWorkspace& ws, Ball& out,
                  const BandwidthConfig& bw = {});

/// Workspace form of chordal::compute_local_view: identical LocalView, but
/// reuses `ws` and `out` storage and skips the per-trusted-vertex O(n)
/// membership tables of the allocating path (the family cliques of a vertex
/// pairwise intersect, so their spanning forest needs no global index).
void compute_local_view(const Graph& g, int observer, int radius,
                        const std::vector<char>* active, BallWorkspace& ws,
                        LocalView& out);

}  // namespace chordal::local
