// Round-based message-passing engine for the LOCAL and CONGEST models.
//
// The LOCAL model: per round, every node may send an unbounded message to
// each neighbor, receive its neighbors' messages, and compute arbitrarily.
// Algorithms drive the engine in a strict pattern - a compute pass over all
// nodes issuing send() calls, then deliver() to advance the round - so
// information demonstrably travels one hop per round.
//
// The CONGEST model (NetworkModel::kCongest, see local/bandwidth.hpp):
// every edge carries at most B = O(log n) words per round. deliver() then
// runs one *fragment round* per iteration - each directed edge transmits up
// to B words, round-robining its residual capacity across the logical
// messages queued on it so a hot receiver drains deterministically - and
// keeps advancing the round counter until every queued message has fully
// crossed its edge. A message reaches its recipient's inbox only once its
// last chunk arrives (one-hop semantics per fragment round), and the inbox
// exposes completed messages in the original send order, so algorithms
// behave bit-identically to LOCAL while rounds() and the per-round
// telemetry pay the real fragmentation cost. Fragment chunks are traced as
// kNetFragment events whose lineage id chains back to the originating
// kNetSend. The model is fixed per Network by its constructor's
// BandwidthConfig; a default-constructed Network runs under LOCAL.
//
// The engine doubles as the telemetry layer's ground truth for bandwidth:
// it keeps exact per-run NetworkStats (message counts, payload words, and
// per-node congestion maxima), charges each round's traffic to the
// innermost live obs::Span, and publishes per-node congestion histograms to
// the installed obs::Registry when the run ends. All registry traffic is
// guarded by the null-registry fast path; the always-on NetworkStats
// counters are a handful of integer adds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/bandwidth.hpp"

namespace chordal::local {

/// Unbounded message payload (LOCAL allows arbitrary sizes).
using Payload = std::vector<std::int64_t>;

/// Read-only view of a message payload, backed by a reference-counted slab.
/// send() gives each message a private slab; broadcast() materializes the
/// payload once and shares the slab across all d copies, so a degree-d
/// broadcast costs O(|payload| + d) simulator work and memory instead of
/// O(d * |payload|). This is purely a simulator optimization: NetworkStats
/// still charges every delivered copy in full, because the LOCAL model sends
/// d real messages over d real edges.
class PayloadRef {
 public:
  PayloadRef() = default;
  explicit PayloadRef(Payload data)
      : slab_(std::make_shared<const Payload>(std::move(data))) {}

  std::size_t size() const { return slab_ == nullptr ? 0 : slab_->size(); }
  bool empty() const { return size() == 0; }
  /// Guarded access: a default-constructed ref has no slab, and indexing it
  /// used to dereference null. The guard folds the null and range checks
  /// into one comparison (size() is 0 without a slab), keeping the hot path
  /// at a single predictable branch.
  std::int64_t operator[](std::size_t i) const {
    if (i >= size()) {
      throw std::out_of_range("PayloadRef: index past payload end");
    }
    return (*slab_)[i];
  }
  /// begin()/end() form a valid (empty) range even without a slab: both
  /// return the same null pointer, so range-for over a default-constructed
  /// ref iterates zero times instead of invoking UB.
  const std::int64_t* begin() const {
    return slab_ == nullptr ? nullptr : slab_->data();
  }
  const std::int64_t* end() const {
    return slab_ == nullptr ? nullptr : slab_->data() + slab_->size();
  }
  /// Identity of the backing slab; two refs with the same non-null slab()
  /// share storage. Exposed so tests can assert broadcast deduplication.
  const Payload* slab() const { return slab_.get(); }

 private:
  std::shared_ptr<const Payload> slab_;
};

struct Message {
  int from = -1;
  PayloadRef data;
  /// Causal lineage: per-network id stamped at send()/broadcast() (each
  /// broadcast copy gets its own). When an obs::Tracer is installed, the
  /// kNetSend and kNetDeliver events of this message carry the same id, so
  /// a delivered payload links back to its originating send and round; 0
  /// when the message predates the id counter (never, in practice).
  std::int64_t id = 0;
};

/// Exact traffic accounting for one Network run. "Words" are payload
/// entries (std::int64_t each); congestion is measured at the receiver,
/// per round.
struct NetworkStats {
  std::int64_t total_messages = 0;
  std::int64_t total_payload_words = 0;
  /// Largest single *logical* message. Stamped at send() time, so under
  /// CONGEST it reports the pre-fragmentation payload size - the E-series
  /// telemetry keeps its meaning across models. The wire-level maximum
  /// (largest chunk) is max_wire_words.
  std::int64_t max_message_words = 0;
  /// Wire-level accounting. Under LOCAL every message is its own single
  /// chunk, so total_fragments == total_messages and max_wire_words ==
  /// max_message_words; under CONGEST these count the actual B-bounded
  /// chunks deliver() pushed across edges.
  std::int64_t total_fragments = 0;
  std::int64_t max_wire_words = 0;
  std::int64_t max_inbox_messages = 0;  // worst node-round, message count
  std::int64_t max_inbox_words = 0;     // worst node-round, payload volume
  /// Per-node worst round (the congestion hot-spot profile). Under CONGEST
  /// a node-round counts the messages *completed* and the wire words
  /// received in that fragment round.
  std::vector<std::int64_t> node_max_inbox_messages;
  std::vector<std::int64_t> node_max_inbox_words;
};

class Network {
 public:
  /// Runs under `bw` (default LOCAL) for its whole lifetime.
  explicit Network(const Graph& g, BandwidthConfig bw = {});
  ~Network();

  const Graph& graph() const { return *graph_; }
  int num_nodes() const { return graph_->num_vertices(); }

  NetworkModel model() const { return bw_.model; }
  /// Resolved per-edge per-round capacity B in words; 0 under LOCAL
  /// (unbounded).
  std::int64_t capacity_words() const { return capacity_; }

  /// Queues a message for delivery at the end of the current round. `to`
  /// must be a neighbor of `from` (enforced - this is the LOCAL model's
  /// communication constraint).
  void send(int from, int to, Payload data);

  /// Queues the same payload to every neighbor of `from`.
  void broadcast(int from, const Payload& data);

  /// Messages delivered to `node` in the previous round.
  const std::vector<Message>& inbox(int node) const { return inboxes_[node]; }

  /// Ends the communication phase: delivers all queued messages and advances
  /// the round counter. Under LOCAL this is exactly one round. Under CONGEST
  /// it simulates as many fragment rounds as draining every queued message
  /// at B words per edge per round requires (at least one), and only then
  /// exposes the completed messages - in send order, so algorithm behavior
  /// is bit-identical to LOCAL while the round counter pays the real cost.
  void deliver();

  int rounds() const { return rounds_; }

  const NetworkStats& stats() const { return stats_; }

  /// Pushes this run's totals and per-node congestion histograms
  /// ("net.node_max_inbox_messages" / "net.node_max_inbox_words") to the
  /// current obs::Registry. Called automatically on destruction; no-op when
  /// telemetry is off or no round ever ran.
  void publish_metrics() const;

 private:
  void deliver_local();
  void deliver_congest();

  const Graph* graph_;
  BandwidthConfig bw_;
  std::int64_t capacity_ = 0;  // resolved B under CONGEST, 0 under LOCAL
  std::vector<std::vector<Message>> inboxes_;
  std::vector<std::vector<std::pair<int, Message>>> pending_;  // per recipient batches
  // Recipients with queued traffic this round, deduplicated at send time.
  // deliver() walks only this list (plus last round's non-empty inboxes),
  // so a quiet round costs O(active senders) instead of O(n).
  std::vector<int> dirty_;
  std::vector<int> live_inboxes_;  // recipients whose inbox is non-empty
  int rounds_ = 0;
  // Lineage-id fallback when no tracer is installed; with one, ids come
  // from Tracer::next_message_id() so they are unique across Networks.
  std::int64_t next_msg_id_ = 0;
  std::int64_t next_message_id();
  NetworkStats stats_;
  mutable bool published_ = false;
};

}  // namespace chordal::local
