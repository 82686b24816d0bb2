// Ball collection and local-view reconstruction, allocation-lean.
//
// The per-node work of every driver in this repo starts with "collect the
// distance-d ball of v" - in the naive form that costs O(n) per call just
// to reset visited marks and relabel tables, which dwarfs the actual
// ball-sized work on large sparse instances and makes node loops
// cache-hostile. A BallWorkspace owns the epoch-stamped BFS scratch and a
// ball-local id table, both sized once to the host graph, plus reusable
// CSR assembly and clique staging buffers, so a ball collection touches
// only ball-sized state: zero O(n) clears, zero allocations once the
// buffers are warm.
//
// These are the only ball collector and the only local-view builder; the
// allocating references they are tested against live in
// tests/local_view_oracle.hpp. One workspace per worker thread makes the
// per-node loops embarrassingly parallel. Worker threads see no registry
// (obs::current() is thread-local), so only coordinator-side calls record
// telemetry; event tracing goes through the per-worker `trace` ring.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cliqueforest/local_view.hpp"
#include "cliqueforest/wcig.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "local/ball.hpp"
#include "local/bandwidth.hpp"
#include "obs/trace.hpp"

namespace chordal::local {

/// Reusable scratch for collect_ball / compute_local_view. One workspace
/// per worker thread; a workspace must not be shared between concurrent
/// calls. All stamped tables grow on first use and are never cleared.
class BallWorkspace {
 public:
  /// Distance from the center of the last collect_ball or
  /// compute_local_view call on this workspace to global vertex v, or -1
  /// if v fell outside that ball. The collected ball is radius-limited and
  /// restricted to the active set, so for ball members this equals the
  /// restricted BFS distance. Invalidated by the next workspace call.
  int last_ball_dist(int v) const { return bfs.visited(v) ? bfs.dist[v] : -1; }

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
  BfsScratch bfs;                          // the ball's BFS, stamped
  std::vector<int> local_id;               // ball-local index, if visited
  std::vector<EdgeIndex> offsets;          // CSR assembly, ball-sized
  std::vector<VertexId> adj;               // CSR assembly, ball-sized
  CliqueFamily trusted_words;              // trusted cliques, global ids
  std::vector<VertexId> word;              // one clique being globalized
  std::vector<int> word_order;             // argsort of trusted_words
  std::vector<std::pair<int, int>> phi_pairs;  // (vertex, clique index)
  std::vector<CliqueId> family;                // phi(u) clique indices
  ForestScratch forest;  // per-family MWSF engine scratch (Lemma 2)
  Ball ball;             // reused by local view
};

/// Collects center's distance-`radius` ball in the subgraph induced by
/// {u : active == nullptr || (*active)[u]} into `out`, reusing its storage.
/// Charges the collection to the enclosing obs::Span: `radius` rounds
/// under LOCAL (flooding d hops costs d rounds), max(radius,
/// ceil(volume / (deg * B))) under CONGEST (see local/bandwidth.hpp
/// ball_collection_rounds). `bw` only affects that charge, never the
/// collected ball.
void collect_ball(const Graph& g, int center, int radius,
                  const std::vector<char>* active, BallWorkspace& ws,
                  Ball& out, const BandwidthConfig& bw = {});

/// Computes the local view (Lemma 2) of `observer` from its
/// distance-`radius` ball in the subgraph induced by
/// {u : active == nullptr || (*active)[u]}, into `out`. The observer must
/// be active. Requires radius >= 1. The family cliques of a vertex
/// pairwise intersect, so their spanning forest needs no global index.
void compute_local_view(const Graph& g, int observer, int radius,
                        const std::vector<char>* active, BallWorkspace& ws,
                        LocalView& out);

}  // namespace chordal::local
