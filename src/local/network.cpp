#include "local/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::local {

Network::Network(const Graph& g, BandwidthConfig bw)
    : graph_(&g),
      bw_(bw),
      inboxes_(static_cast<std::size_t>(g.num_vertices())),
      pending_(static_cast<std::size_t>(g.num_vertices())) {
  if (bw_.model == NetworkModel::kCongest) {
    capacity_ = resolve_capacity_words(bw_, g.num_vertices());
  }
  stats_.node_max_inbox_messages.assign(
      static_cast<std::size_t>(g.num_vertices()), 0);
  stats_.node_max_inbox_words.assign(
      static_cast<std::size_t>(g.num_vertices()), 0);
}

Network::~Network() { publish_metrics(); }

void Network::send(int from, int to, Payload data) {
  if (!graph_->has_edge(from, to)) {
    throw std::invalid_argument("Network::send: recipient is not a neighbor");
  }
  auto words = static_cast<std::int64_t>(data.size());
  ++stats_.total_messages;
  stats_.total_payload_words += words;
  stats_.max_message_words = std::max(stats_.max_message_words, words);
  if (pending_[to].empty()) dirty_.push_back(to);
  std::int64_t id = next_message_id();
  obs::trace_emit(nullptr, obs::TraceEventKind::kNetSend, from, rounds_, to,
                  words, id);
  pending_[to].push_back({from, Message{from, PayloadRef(std::move(data)),
                                        id}});
}

void Network::broadcast(int from, const Payload& data) {
  // One shared slab for all copies: stats below still account d full
  // messages, but the simulator stores the payload words once. Each copy is
  // a distinct LOCAL-model message, so each gets its own lineage id.
  PayloadRef shared{Payload(data)};
  auto words = static_cast<std::int64_t>(data.size());
  for (int to : graph_->neighbors(from)) {
    ++stats_.total_messages;
    stats_.total_payload_words += words;
    stats_.max_message_words = std::max(stats_.max_message_words, words);
    if (pending_[to].empty()) dirty_.push_back(to);
    std::int64_t id = next_message_id();
    obs::trace_emit(nullptr, obs::TraceEventKind::kNetSend, from, rounds_, to,
                    words, id);
    pending_[to].push_back({from, Message{from, shared, id}});
  }
}

std::int64_t Network::next_message_id() {
  // Lineage ids must be unique across every Network a trace covers (a run
  // may simulate several algorithms, each on its own Network), so a live
  // tracer hands them out; without one the per-network counter suffices.
  if (!support::in_parallel_region()) {
    if (obs::Tracer* t = obs::tracer()) return t->next_message_id();
  }
  return ++next_msg_id_;
}

void Network::deliver() {
  if (bw_.model == NetworkModel::kCongest) {
    deliver_congest();
  } else {
    deliver_local();
  }
}

void Network::deliver_local() {
  // Nodes with neither queued traffic nor a stale inbox contribute zero to
  // every sum and never raise a maximum, so touching only the dirty list
  // leaves NetworkStats bit-identical to the full O(n) sweep.
  for (int v : live_inboxes_) inboxes_[v].clear();
  live_inboxes_.clear();
  std::sort(dirty_.begin(), dirty_.end());
  std::int64_t round_messages = 0;
  std::int64_t round_words = 0;
  obs::Tracer* tr =
      support::in_parallel_region() ? nullptr : obs::tracer();
  for (int v : dirty_) {
    std::int64_t inbox_words = 0;
    for (auto& [from, msg] : pending_[v]) {
      auto words = static_cast<std::int64_t>(msg.data.size());
      inbox_words += words;
      // LOCAL wires every message whole: one chunk per message.
      ++stats_.total_fragments;
      stats_.max_wire_words = std::max(stats_.max_wire_words, words);
      if (tr != nullptr) {
        tr->emit(obs::TraceEventKind::kNetDeliver, v, rounds_, from, words,
                 msg.id);
      }
      inboxes_[v].push_back(std::move(msg));
    }
    auto inbox_messages = static_cast<std::int64_t>(inboxes_[v].size());
    round_messages += inbox_messages;
    round_words += inbox_words;
    auto& node_msgs = stats_.node_max_inbox_messages[v];
    auto& node_words = stats_.node_max_inbox_words[v];
    node_msgs = std::max(node_msgs, inbox_messages);
    node_words = std::max(node_words, inbox_words);
    stats_.max_inbox_messages =
        std::max(stats_.max_inbox_messages, inbox_messages);
    stats_.max_inbox_words = std::max(stats_.max_inbox_words, inbox_words);
    pending_[v].clear();
  }
  if (tr != nullptr) {
    tr->emit(obs::TraceEventKind::kNetRound, -1, rounds_, round_messages,
             round_words);
  }
  live_inboxes_ = std::move(dirty_);
  dirty_.clear();
  ++rounds_;
  if (obs::Registry* reg = obs::current()) {
    reg->histogram("net.round_messages")
        .add(static_cast<double>(round_messages));
    reg->histogram("net.round_payload_words")
        .add(static_cast<double>(round_words));
    obs::Span::charge_rounds(1);
    obs::Span::charge_messages(round_messages, round_words);
  }
}

void Network::deliver_congest() {
  // CONGEST fragment engine. Every directed edge moves at most capacity_
  // words per fragment round; the loop below advances one fragment round
  // per iteration until every queued logical message has fully crossed its
  // edge. Accounting invariants (these keep audit_network_conservation and
  // the trace cross-checks true across models):
  //   - the per-round message histogram counts logical messages *completed*
  //     that round, so its sum still equals net.messages;
  //   - the per-round word histogram counts wire words transmitted that
  //     round, so its sum still equals net.payload_words;
  //   - exactly one kNetRound event and one rounds_ increment per fragment
  //     round, and one kNetDeliver per logical message (on its completion
  //     round, lineage intact); chunks get their own kNetFragment events.
  for (int v : live_inboxes_) inboxes_[v].clear();
  live_inboxes_.clear();
  std::sort(dirty_.begin(), dirty_.end());
  obs::Tracer* tr =
      support::in_parallel_region() ? nullptr : obs::tracer();
  obs::Registry* reg = obs::current();

  // In-flight state per queued message, indexed like pending_[v].
  struct Flight {
    std::int64_t remaining = 0;  // words not yet on the wire
    std::int64_t chunk = 0;      // words granted in the current round
    bool sent_empty = false;     // an empty payload's zero-word frame moved
    bool done = false;
  };
  // One FIFO per directed edge (sender -> this receiver), senders ascending,
  // send order within a sender.
  struct EdgeQueue {
    int from = -1;
    std::vector<std::size_t> idx;  // indices into the receiver's flights
    std::size_t rr = 0;            // rotating round-robin start offset
    std::size_t open = 0;          // unfinished messages on this edge
  };

  const std::size_t num_dirty = dirty_.size();
  std::vector<std::vector<Flight>> flights(num_dirty);
  std::vector<std::vector<EdgeQueue>> queues(num_dirty);
  std::vector<std::size_t> order;
  std::size_t open_messages = 0;
  for (std::size_t r = 0; r < num_dirty; ++r) {
    const auto& batch = pending_[dirty_[r]];
    flights[r].resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      flights[r][i].remaining =
          static_cast<std::int64_t>(batch[i].second.data.size());
    }
    open_messages += batch.size();
    order.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return batch[a].first < batch[b].first;
                     });
    for (std::size_t i : order) {
      if (queues[r].empty() || queues[r].back().from != batch[i].first) {
        queues[r].push_back(EdgeQueue{batch[i].first, {}, 0, 0});
      }
      queues[r].back().idx.push_back(i);
    }
    for (auto& q : queues[r]) q.open = q.idx.size();
  }

  // do-while: a deliver() with nothing pending still costs one (quiet)
  // round, exactly like the LOCAL path.
  do {
    std::int64_t round_messages = 0;
    std::int64_t round_words = 0;
    for (std::size_t r = 0; r < num_dirty; ++r) {
      int v = dirty_[r];
      const auto& batch = pending_[v];
      std::int64_t node_words = 0;
      std::int64_t node_completed = 0;
      for (auto& q : queues[r]) {
        if (q.open == 0) continue;
        // Empty payloads fit in any frame: their zero-word chunk crosses in
        // the first round the edge serves them.
        for (std::size_t i : q.idx) {
          Flight& f = flights[r][i];
          if (!f.done && f.remaining == 0) f.sent_empty = true;
        }
        // Round-robin the edge's residual capacity one word at a time over
        // its unfinished messages, starting at a cursor that rotates each
        // round - a hot edge drains fairly and deterministically.
        const std::size_t width = q.idx.size();
        std::int64_t residual = capacity_;
        std::size_t at = q.rr % width;
        std::size_t stalled = 0;
        while (residual > 0 && stalled < width) {
          Flight& f = flights[r][q.idx[at]];
          if (!f.done && f.remaining > 0) {
            --f.remaining;
            ++f.chunk;
            --residual;
            stalled = 0;
          } else {
            ++stalled;
          }
          at = (at + 1) % width;
        }
        q.rr = (q.rr + 1) % width;
        // Chunk bookkeeping and completions, in send order within the edge.
        for (std::size_t i : q.idx) {
          Flight& f = flights[r][i];
          if (f.done) continue;
          const bool moved = f.chunk > 0 || f.sent_empty;
          if (moved) {
            ++stats_.total_fragments;
            stats_.max_wire_words = std::max(stats_.max_wire_words, f.chunk);
            node_words += f.chunk;
            if (tr != nullptr) {
              tr->emit(obs::TraceEventKind::kNetFragment, v, rounds_,
                       batch[i].first, f.chunk, batch[i].second.id);
            }
            if (f.remaining == 0) {
              f.done = true;
              --q.open;
              --open_messages;
              ++node_completed;
              if (tr != nullptr) {
                tr->emit(obs::TraceEventKind::kNetDeliver, v, rounds_,
                         batch[i].first,
                         static_cast<std::int64_t>(batch[i].second.data.size()),
                         batch[i].second.id);
              }
            }
          }
          f.chunk = 0;
        }
      }
      round_messages += node_completed;
      round_words += node_words;
      auto& node_msgs = stats_.node_max_inbox_messages[v];
      auto& node_word_max = stats_.node_max_inbox_words[v];
      node_msgs = std::max(node_msgs, node_completed);
      node_word_max = std::max(node_word_max, node_words);
      stats_.max_inbox_messages =
          std::max(stats_.max_inbox_messages, node_completed);
      stats_.max_inbox_words = std::max(stats_.max_inbox_words, node_words);
    }
    if (tr != nullptr) {
      tr->emit(obs::TraceEventKind::kNetRound, -1, rounds_, round_messages,
               round_words);
    }
    ++rounds_;
    if (reg != nullptr) {
      reg->histogram("net.round_messages")
          .add(static_cast<double>(round_messages));
      reg->histogram("net.round_payload_words")
          .add(static_cast<double>(round_words));
      obs::Span::charge_rounds(1);
      obs::Span::charge_messages(round_messages, round_words);
    }
  } while (open_messages > 0);

  // Everything has drained; expose completed messages in send order so
  // algorithms iterate inboxes exactly as under LOCAL.
  for (int v : dirty_) {
    for (auto& [from, msg] : pending_[v]) {
      inboxes_[v].push_back(std::move(msg));
    }
    pending_[v].clear();
  }
  live_inboxes_ = std::move(dirty_);
  dirty_.clear();
}

void Network::publish_metrics() const {
  obs::Registry* reg = obs::current();
  if (reg == nullptr || published_) return;
  // Publish whenever the run left any trace. Gating on rounds_ alone
  // silently dropped nonzero totals when traffic was sent but deliver()
  // was never called — exactly the runs whose ledgers need inspecting.
  if (rounds_ == 0 && stats_.total_messages == 0) return;
  published_ = true;
  reg->counter("net.messages").add(stats_.total_messages);
  reg->counter("net.payload_words").add(stats_.total_payload_words);
  reg->counter("net.rounds").add(rounds_);
  auto& msgs = reg->histogram("net.node_max_inbox_messages");
  auto& words = reg->histogram("net.node_max_inbox_words");
  for (int v = 0; v < num_nodes(); ++v) {
    msgs.add(static_cast<double>(stats_.node_max_inbox_messages[v]));
    words.add(static_cast<double>(stats_.node_max_inbox_words[v]));
  }
}

}  // namespace chordal::local
