// Bandwidth model: the single source of truth for the LOCAL/CONGEST switch,
// the CONGEST per-edge per-round capacity B = O(log n) words, and the
// modeled per-word message charges the drivers account against their round
// clocks and telemetry ledgers.
//
// Before this header existed the modeled constants were hand-duplicated
// between mvc_distributed.cpp (pruning heartbeats, interval-model shipping,
// correction windows) and mis_chordal.cpp (ball heartbeats, component
// broadcasts) and had started to drift. Every driver and the Network
// fragmenter now pull the same formulas from here, so the documented model
// (EXPERIMENTS.md "Bandwidth accounting") and the executable one cannot
// diverge again.
//
// Model selection is per run: every driver, Network and flood takes a
// BandwidthConfig from its caller (MvcOptions::net, MisOptions::net, the
// Network constructor, the trailing `bw` parameters), and a default-
// constructed config is LOCAL. Runs under different models can therefore
// share one process, side by side or concurrently.
#pragma once

#include <cstdint>

namespace chordal::local {

/// LOCAL: unbounded messages, one hop per round (the paper's model).
/// CONGEST: every edge carries at most B words per round; larger payloads
/// are fragmented across consecutive rounds by the Network and by the
/// drivers' modeled transfers.
enum class NetworkModel { kLocal, kCongest };

struct BandwidthConfig {
  NetworkModel model = NetworkModel::kLocal;
  /// CONGEST per-edge per-round capacity in words. 0 = auto, meaning the
  /// canonical B = O(log n): resolve_capacity_words() turns it into
  /// max(1, ceil(log2 n)) for an n-node network. Ignored under LOCAL.
  std::int64_t capacity_words = 0;
};

/// CONGEST with capacity `capacity_words` (0 = auto, B = ceil(log2 n)).
inline BandwidthConfig congest(std::int64_t capacity_words = 0) {
  return {NetworkModel::kCongest, capacity_words};
}

/// Concrete per-edge per-round capacity for an n-node network: the config's
/// fixed capacity if positive, else max(1, ceil(log2 n)).
std::int64_t resolve_capacity_words(const BandwidthConfig& bw, int num_nodes);

/// Rounds needed to push `words` across one edge of capacity `capacity`:
/// ceil(words / capacity), minimum 1 (even an empty message occupies one
/// fragment round on its edge).
std::int64_t fragment_rounds(std::int64_t words, std::int64_t capacity);

/// Extra rounds a driver's clock pays to ship a `words`-sized logical
/// message under `bw`: 0 under LOCAL (messages are unbounded, the transfer
/// piggybacks on the existing one-round exchange), and ceil(words / B)
/// under CONGEST. This is the always-on counterpart of the
/// telemetry word charges below - results must not depend on whether a
/// Registry is installed.
std::int64_t transfer_rounds(std::int64_t words, const BandwidthConfig& bw,
                             int num_nodes);

// ---------------------------------------------------------------------------
// Modeled message sizes (words, i.e. 64-bit payload entries). These mirror
// the documented bandwidth model in EXPERIMENTS.md and are charged to the
// *.node_congestion_words ledgers identically under LOCAL and CONGEST - the
// model changes how many rounds the words take, never how many words move.

/// Pruning phase heartbeat for vertex v per window round: deg(v) neighbors
/// x O(k log n) words, modeled as 10*k words per edge, scaled by the layer
/// (deeper layers re-broadcast their whole history prefix).
inline std::int64_t pruning_heartbeat_words(std::int64_t degree,
                                            std::int64_t k,
                                            std::int64_t layer) {
  return degree * 10 * k * layer;
}

/// Ball-collection heartbeat for MIS vertex v: deg(v) edges each carrying
/// one word per round of the 4d+6-round gather.
inline std::int64_t ball_heartbeat_words(std::int64_t degree,
                                         std::int64_t ball_rounds) {
  return degree * ball_rounds;
}

/// Shipping a layer's interval representation: two words (endpoint pair)
/// per vertex of the model, paid once per owned vertex.
inline std::int64_t interval_model_words(std::int64_t model_vertices) {
  return 2 * model_vertices;
}

/// Correction broadcast for a free vertex: three words (vertex, old color,
/// new color) per member of its correction window.
inline std::int64_t correction_window_words(std::int64_t window_vertices) {
  return 3 * window_vertices;
}

/// MIS component broadcast: two words (vertex, in/out bit + tiebreak) per
/// member of the connected component being solved.
inline std::int64_t component_broadcast_words(std::int64_t component_vertices) {
  return 2 * component_vertices;
}

/// Reporting a set of edges (flooded ball collection): two words (endpoint
/// pair) per edge.
inline std::int64_t edge_report_words(std::int64_t edges) {
  return 2 * edges;
}

/// Rounds to collect the radius-r ball around a center of degree `degree`
/// whose ball volume is `volume_words` (vertices + 2*edges, the serialized
/// adjacency size). LOCAL: r rounds, one hop each. CONGEST: the center's
/// `degree` incident edges each carry B words per round, so draining the
/// volume takes at least ceil(volume / (degree * B)) rounds and never fewer
/// than the r hops of distance. Pure in (radius, volume, degree, bw, n), so
/// the allocating and workspace ball collections charge identically.
std::int64_t ball_collection_rounds(std::int64_t radius,
                                    std::int64_t volume_words,
                                    std::int64_t degree,
                                    const BandwidthConfig& bw, int num_nodes);

}  // namespace chordal::local
