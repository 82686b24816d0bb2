// Round-level causal event tracing for the LOCAL simulator.
//
// The Registry (obs/metrics.hpp) aggregates: it can say *how many* ball
// collections or peel commits a run had, but not which round, which node,
// or which message caused a given decision. The Tracer records the
// individual events: a flat stream of fixed-size TraceEvent records - peel
// decisions, per-node pruning decisions, color commits, per-family forest
// builds, network sends and delivers - each stamped with a logical tick
// (total order), the acting node, the round/iteration it belongs to, and an
// optional causal lineage id that links a delivered message back to the
// exact send() that produced it.
//
// Zero-cost disabled path: sites go through obs::tracer(), a thread-local
// pointer that is null unless a ScopedTracer is installed (the
// null-registry pattern of obs::current()). Every hook is one pointer load
// and a branch when tracing is off.
//
// Determinism: the merged stream is bit-identical at any CHORDAL_THREADS
// value (timestamps aside). Main-thread sites append directly to the
// tracer's ring. Sites inside a support::parallel_for body append to the
// per-worker TraceBuf ring the driver wired for the region (all of a
// worker's events - driver decisions and library forest events alike
// - share that one buffer, so their interleaving is the worker's own
// program order); Tracer::merge_workers() then drains the buffers in worker
// order, which under the static index partition equals global index order.
// An instrumented library site that runs inside a parallel region *without*
// a wired buffer records nothing - mirroring how obs::Span suppresses
// itself in parallel regions - so the stream never depends on which thread
// happened to carry the tracer. Ticks are assigned at append (main thread)
// or at merge (worker events); wall_ns is captured at emit time and is the
// only nondeterministic field.
//
// Buffers are bounded single-writer rings: storage grows geometrically to
// the configured capacity, then wraps, dropping the *oldest* events and
// counting the drops (reported by both exporters). Cross-thread
// determinism holds as long as nothing was dropped - per-worker drop
// points depend on the partition - so size generously or treat a nonzero
// drop count as "timeline truncated".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace chordal::obs {

/// Event vocabulary. Stable names (for exporters) live in
/// trace_event_name/trace_event_category.
enum class TraceEventKind : std::int16_t {
  kPhaseBegin = 0,   // arg0 = interned phase-name id
  kPhaseEnd,         // arg0 = interned phase-name id
  kNetSend,          // node = sender, arg0 = recipient, arg1 = payload words,
                     // lineage = message id, round = network round
  kNetDeliver,       // node = recipient, arg0 = sender, arg1 = payload words,
                     // lineage = message id of the originating send
  kNetRound,         // node = -1, arg0 = delivered messages, arg1 = words
  kPeelDecision,     // node = first clique of the taken path, arg0 = path
                     // length (cliques), arg1 = owned vertices
  kPeelCommit,       // node = peeled vertex, round = peel iteration
  kLocalDecision,    // node = deciding vertex, arg0 = 1 if it removes itself
  kAuditDecision,    // node = audited vertex, arg0 = local, arg1 = global
  kColorCommit,      // node = vertex, arg0 = color, round = layer
  kRecolor,          // node = vertex, arg0 = new color, round = layer
  kMisPick,          // node = chosen vertex, round = layer
  kForestBuild,      // node = observer (-1 for the global forest),
                     // arg0 = cliques considered, arg1 = edges chosen
  kNetFragment,      // CONGEST wire chunk: node = recipient, arg0 = sender,
                     // arg1 = chunk words (0 for an empty-payload frame),
                     // lineage = message id of the originating send, round =
                     // the fragment round the chunk crossed its edge
};

const char* trace_event_name(TraceEventKind kind);
const char* trace_event_category(TraceEventKind kind);

/// One fixed-size trace record. `tick` is the logical position in the
/// merged deterministic order (1-based, strictly increasing); `wall_ns` is
/// steady-clock nanoseconds at emit time and is the only field that varies
/// between runs or thread counts.
struct TraceEvent {
  std::int64_t tick = 0;
  std::int64_t wall_ns = 0;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::int64_t lineage = 0;  // 0 = no causal link
  std::int32_t node = -1;    // -1 = coordinator/global
  std::int32_t round = 0;
  TraceEventKind kind = TraceEventKind::kPhaseBegin;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Single-writer bounded event ring. The tracer owns one as the merged
/// stream (writer: the installing thread) and one per parallel worker as a
/// staging buffer (writer: that worker). Storage grows geometrically until
/// `capacity` slots, then wraps over the oldest events.
class TraceBuf {
 public:
  explicit TraceBuf(std::size_t capacity = 1u << 18) : capacity_(capacity) {}

  void emit(TraceEventKind kind, std::int32_t node, std::int32_t round,
            std::int64_t arg0 = 0, std::int64_t arg1 = 0,
            std::int64_t lineage = 0);

  std::size_t size() const { return events_.size(); }
  std::int64_t dropped() const { return dropped_; }
  void clear();

  /// Events in insertion order (oldest first); resolves the ring wrap.
  void drain_to(std::vector<TraceEvent>& out) const;

 private:
  friend class Tracer;

  /// Stores `e` (growing to capacity, then wrapping over the oldest slot)
  /// and returns the stored record for post-hoc stamping.
  TraceEvent& push(const TraceEvent& e);

  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once wrapped
  std::int64_t dropped_ = 0;
};

/// Owner of the merged deterministic event stream plus per-worker staging
/// rings. Install with ScopedTracer; reach from instrumentation sites via
/// obs::tracer().
class Tracer {
 public:
  /// `capacity` bounds the merged stream; each worker staging ring gets
  /// `worker_capacity` (a staging ring only ever holds one parallel
  /// region's events for one worker, so it can be smaller).
  explicit Tracer(std::size_t capacity = 1u << 20,
                  std::size_t worker_capacity = 1u << 18);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends to the merged stream, assigning the next tick. Main-thread
  /// sites only (single-writer); library code should go through
  /// obs::trace_emit, which drops the event instead when called inside a
  /// parallel region without a wired worker buffer.
  void emit(TraceEventKind kind, std::int32_t node, std::int32_t round,
            std::int64_t arg0 = 0, std::int64_t arg1 = 0,
            std::int64_t lineage = 0);

  /// The staging ring for one parallel worker. Drivers pass &worker(w) into
  /// region bodies (and wire it to BallWorkspace::trace for library sites).
  /// Growing the ring table is NOT thread-safe: call ensure_workers()
  /// before the parallel region so in-region worker(w) calls only read.
  TraceBuf& worker(std::size_t w);

  /// Pre-creates the staging rings for workers [0, count). Drivers call
  /// this (typically with support::num_threads()) before any parallel
  /// region whose body calls worker(w).
  void ensure_workers(std::size_t count) {
    if (count > 0) worker(count - 1);
  }

  /// Drains every worker staging ring into the merged stream, in worker
  /// order, assigning ticks. Call after each parallel_for join (never
  /// inside a region). Worker drop counts accumulate into the tracer-wide
  /// drop counter.
  void merge_workers();

  /// Interns a phase name for kPhaseBegin/kPhaseEnd arg0.
  std::int64_t intern(std::string_view name);
  const std::vector<std::string>& interned_names() const { return names_; }

  const std::vector<TraceEvent>& events() const { return ring_.events_; }
  /// Merged events in tick order (resolves the ring wrap; copies).
  std::vector<TraceEvent> ordered_events() const;
  std::int64_t dropped() const;
  std::int64_t next_message_id() { return ++message_ids_; }

  /// Exporters. Chrome trace_event JSON loads in Perfetto or
  /// chrome://tracing: instants on one track per node (tid = node + 2,
  /// tid 1 = the coordinator track for node == -1), phase begin/end as
  /// duration events on tid 0, ts in microseconds relative to the first
  /// event. JSONL is one event object per line after a header line, for
  /// scripting.
  std::string to_chrome_json() const;
  std::string to_jsonl() const;

 private:
  TraceBuf ring_;
  std::vector<std::unique_ptr<TraceBuf>> workers_;
  std::size_t worker_capacity_;
  std::int64_t tick_ = 0;
  std::int64_t merged_dropped_ = 0;
  std::int64_t message_ids_ = 0;
  std::vector<std::string> names_;
  std::vector<TraceEvent> merge_scratch_;
};

/// The installed tracer, or nullptr when tracing is off (the fast path).
/// Thread-local like obs::current(): pool workers always see nullptr.
Tracer* tracer();

/// RAII installer mirroring ScopedRegistry; scopes may nest.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& t);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

/// Library-site hook: records into `worker_buf` when one is wired (inside a
/// parallel region), else into the installed tracer - but never the tracer
/// from inside a parallel region, where the calling thread doubles as
/// worker 0 and direct appends would interleave differently at different
/// thread counts. One pointer check when tracing is off.
void trace_emit(TraceBuf* worker_buf, TraceEventKind kind, std::int32_t node,
                std::int32_t round, std::int64_t arg0 = 0,
                std::int64_t arg1 = 0, std::int64_t lineage = 0);

/// Read-side helpers over a merged stream, used by tests and tools.
class TraceQuery {
 public:
  explicit TraceQuery(std::vector<TraceEvent> events)
      : events_(std::move(events)) {}

  const std::vector<TraceEvent>& events() const { return events_; }

  /// All events acted by `node`, in tick order.
  std::vector<TraceEvent> events_for_node(std::int32_t node) const;

  /// All events stamped with `round`, in tick order.
  std::vector<TraceEvent> round_slice(std::int32_t round) const;

  /// All events carrying lineage id `id` (the send and every deliver of
  /// that message), in tick order.
  std::vector<TraceEvent> lineage_chain(std::int64_t id) const;

  /// True when every kNetDeliver resolves to exactly one kNetSend with the
  /// same lineage id at a strictly smaller tick.
  bool lineage_intact() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace chordal::obs
