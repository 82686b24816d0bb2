// Network-backed radius-r ball collection by edge flooding.
//
// Every node starts knowing its incident edges; each round it broadcasts
// the edges it learned in the previous round, and after r rounds knows the
// full edge set of its radius-r ball (the same knowledge collect_ball
// materializes directly from adjacency). Unlike collect_ball - which only
// *models* the message cost - this driver moves every word through a real
// local::Network, so it is the measured workload for the CONGEST round
// blow-up (bench_congest, E18) and the executable cross-check that the
// modeled word charges equal what the Network actually transmits. The
// caller names the model: flood_balls has no implicit default.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"
#include "local/network.hpp"

namespace chordal::local {

struct FloodBallsResult {
  /// Per node: the sorted encoded edge set (u * n + v, u < v) of its
  /// radius-r ball. Bit-identical across models - fragmentation changes
  /// rounds, never knowledge.
  std::vector<std::vector<std::int64_t>> known;
  /// Network rounds the flood consumed (r under LOCAL; >= r under CONGEST).
  std::int64_t rounds = 0;
  /// The Network's exact accounting for the run.
  NetworkStats stats;
  /// Words the documented bandwidth model charges for the same flood: two
  /// words per newly-learned edge, per neighbor it is re-broadcast to. The
  /// driver computes this independently of the Network; callers (tests, the
  /// audit matrix, bench_congest) assert it equals
  /// stats.total_payload_words.
  std::int64_t modeled_words = 0;
};

/// Floods edge knowledge for `radius` rounds over a Network running under
/// `bw`. Deterministic: nodes broadcast in ascending id order and payloads
/// list edges in sorted encoded order.
FloodBallsResult flood_balls(const Graph& g, int radius,
                             const BandwidthConfig& bw);

}  // namespace chordal::local
