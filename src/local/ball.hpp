// Round accounting and distance-d ball collection.
//
// In the LOCAL model an r-round algorithm is exactly one whose output at a
// node is a function of the node's distance-r ball; the headline algorithms
// of the paper are phrased as ball collections ("collect Gamma^{10k}(v)").
// The RoundLedger keeps one clock per node so the asynchronous phase
// structure of Algorithm 2 (nodes leave pruning at different times) is
// reproduced faithfully; the reported round complexity of a run is the
// maximum clock, matching the analysis in Lemma 12.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::local {

class RoundLedger {
 public:
  explicit RoundLedger(int num_nodes)
      : clock_(static_cast<std::size_t>(num_nodes), 0) {}

  /// Node spends `rounds` additional communication rounds.
  void charge(int node, std::int64_t rounds) { clock_[node] += rounds; }

  void charge_all(std::int64_t rounds) {
    for (auto& c : clock_) c += rounds;
  }

  /// Node waits (idles) until time t: clock = max(clock, t).
  void wait_until(int node, std::int64_t t) {
    clock_[node] = std::max(clock_[node], t);
  }

  /// Synchronizes a group of nodes to their common maximum (e.g. all nodes
  /// of one layer leaving the pruning phase together).
  void synchronize(std::span<const int> nodes);

  std::int64_t clock(int node) const { return clock_[node]; }

  /// The run's round complexity: the last node to finish.
  std::int64_t max_clock() const;

 private:
  std::vector<std::int64_t> clock_;
};

/// A node's collected distance-`radius` ball in the subgraph induced by
/// {u : active == nullptr || (*active)[u]}.
struct Ball {
  std::vector<VertexId> vertices;  // BFS order; vertices[0] == center
  Graph graph;   // induced subgraph, indices into `vertices`
  std::vector<int> dist;  // distance from center, per local index
};

/// Collects the ball and charges the collection rounds to `center` on the
/// ledger (if provided): `radius` under LOCAL (flooding d hops costs d
/// rounds), max(radius, ceil(volume / (deg * B))) under CONGEST (see
/// local/bandwidth.hpp ball_collection_rounds). `bw` only affects that
/// charge, never the collected ball.
Ball collect_ball(const Graph& g, int center, int radius,
                  const std::vector<char>* active = nullptr,
                  RoundLedger* ledger = nullptr,
                  const BandwidthConfig& bw = {});

}  // namespace chordal::local
