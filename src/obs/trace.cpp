#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "obs/json.hpp"
#include "support/parallel.hpp"

namespace chordal::obs {

namespace {

thread_local Tracer* g_tracer = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KindInfo {
  const char* name;
  const char* category;
};

KindInfo kind_info(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPhaseBegin:
      return {"phase.begin", "phase"};
    case TraceEventKind::kPhaseEnd:
      return {"phase.end", "phase"};
    case TraceEventKind::kNetSend:
      return {"net.send", "net"};
    case TraceEventKind::kNetDeliver:
      return {"net.deliver", "net"};
    case TraceEventKind::kNetRound:
      return {"net.round", "net"};
    case TraceEventKind::kPeelDecision:
      return {"peel.decision", "peel"};
    case TraceEventKind::kPeelCommit:
      return {"peel.commit", "peel"};
    case TraceEventKind::kLocalDecision:
      return {"local.decision", "peel"};
    case TraceEventKind::kAuditDecision:
      return {"audit.decision", "audit"};
    case TraceEventKind::kColorCommit:
      return {"color.commit", "color"};
    case TraceEventKind::kRecolor:
      return {"color.recolor", "color"};
    case TraceEventKind::kMisPick:
      return {"mis.pick", "mis"};
    case TraceEventKind::kForestBuild:
      return {"forest.build", "forest"};
    case TraceEventKind::kNetFragment:
      return {"net.fragment", "net"};
  }
  return {"unknown", "unknown"};
}

}  // namespace

const char* trace_event_name(TraceEventKind kind) {
  return kind_info(kind).name;
}

const char* trace_event_category(TraceEventKind kind) {
  return kind_info(kind).category;
}

TraceEvent& TraceBuf::push(const TraceEvent& e) {
  if (events_.size() < capacity_) {
    events_.push_back(e);
    return events_.back();
  }
  // Full: wrap over the oldest slot.
  TraceEvent& slot = events_[head_];
  slot = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  return slot;
}

void TraceBuf::emit(TraceEventKind kind, std::int32_t node, std::int32_t round,
                    std::int64_t arg0, std::int64_t arg1,
                    std::int64_t lineage) {
  TraceEvent e;
  e.wall_ns = now_ns();
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.lineage = lineage;
  e.node = node;
  e.round = round;
  e.kind = kind;
  push(e);
}

void TraceBuf::clear() {
  events_.clear();
  head_ = 0;
  // dropped_ survives clear() on purpose: it counts lifetime losses.
}

void TraceBuf::drain_to(std::vector<TraceEvent>& out) const {
  for (std::size_t i = head_; i < events_.size(); ++i) out.push_back(events_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(events_[i]);
}

Tracer::Tracer(std::size_t capacity, std::size_t worker_capacity)
    : ring_(capacity), worker_capacity_(worker_capacity) {
  int workers = support::num_threads();
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back(new TraceBuf(worker_capacity_));
  }
}

void Tracer::emit(TraceEventKind kind, std::int32_t node, std::int32_t round,
                  std::int64_t arg0, std::int64_t arg1, std::int64_t lineage) {
  TraceEvent e;
  e.wall_ns = now_ns();
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.lineage = lineage;
  e.node = node;
  e.round = round;
  e.kind = kind;
  std::int64_t before = ring_.dropped_;
  ring_.push(e).tick = ++tick_;
  merged_dropped_ += ring_.dropped_ - before;
}

TraceBuf& Tracer::worker(std::size_t w) {
  while (workers_.size() <= w) {
    workers_.emplace_back(new TraceBuf(worker_capacity_));
  }
  return *workers_[w];
}

void Tracer::merge_workers() {
  for (auto& buf : workers_) {
    if (buf->events_.empty()) continue;
    merge_scratch_.clear();
    buf->drain_to(merge_scratch_);
    for (const TraceEvent& e : merge_scratch_) {
      std::int64_t before = ring_.dropped_;
      ring_.push(e).tick = ++tick_;  // keeps the worker's wall stamp
      merged_dropped_ += ring_.dropped_ - before;
    }
    merged_dropped_ += buf->dropped_;
    buf->clear();
    buf->dropped_ = 0;
  }
}

std::int64_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::int64_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::int64_t>(names_.size() - 1);
}

std::vector<TraceEvent> Tracer::ordered_events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.events_.size());
  ring_.drain_to(out);
  return out;
}

std::int64_t Tracer::dropped() const { return merged_dropped_; }

Tracer* tracer() { return g_tracer; }

ScopedTracer::ScopedTracer(Tracer& t) : previous_(g_tracer) { g_tracer = &t; }

ScopedTracer::~ScopedTracer() { g_tracer = previous_; }

void trace_emit(TraceBuf* worker_buf, TraceEventKind kind, std::int32_t node,
                std::int32_t round, std::int64_t arg0, std::int64_t arg1,
                std::int64_t lineage) {
  if (worker_buf != nullptr) {
    worker_buf->emit(kind, node, round, arg0, arg1, lineage);
    return;
  }
  // Inside a parallel region the calling thread doubles as worker 0 and
  // still sees the thread-local tracer; appending directly would order its
  // events differently from workers that staged theirs. Without a wired
  // buffer, record nothing (cf. the Span suppression in obs/span.cpp).
  if (support::in_parallel_region()) return;
  if (Tracer* t = g_tracer) {
    t->emit(kind, node, round, arg0, arg1, lineage);
  }
}

namespace {

/// Chrome trace_event tid layout: 0 = the phase track, 1 = coordinator
/// events (node == -1), node v >= 0 lands on tid v + 2.
std::int64_t chrome_tid(const TraceEvent& e) {
  if (e.kind == TraceEventKind::kPhaseBegin ||
      e.kind == TraceEventKind::kPhaseEnd) {
    return 0;
  }
  return e.node < 0 ? 1 : static_cast<std::int64_t>(e.node) + 2;
}

void write_event_args(JsonWriter& w, const TraceEvent& e,
                      const std::vector<std::string>& names) {
  w.key("tick").value(e.tick);
  w.key("round").value(static_cast<std::int64_t>(e.round));
  w.key("arg0").value(e.arg0);
  w.key("arg1").value(e.arg1);
  if (e.lineage != 0) w.key("lineage").value(e.lineage);
  if ((e.kind == TraceEventKind::kPhaseBegin ||
       e.kind == TraceEventKind::kPhaseEnd) &&
      e.arg0 >= 0 && e.arg0 < static_cast<std::int64_t>(names.size())) {
    w.key("phase").value(names[static_cast<std::size_t>(e.arg0)]);
  }
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::vector<TraceEvent> ordered = ordered_events();
  std::int64_t t0 = ordered.empty() ? 0 : ordered.front().wall_ns;
  for (const TraceEvent& e : ordered) t0 = std::min(t0, e.wall_ns);

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Thread-name metadata for every track, in first-appearance order.
  std::unordered_map<std::int64_t, bool> named;
  auto name_track = [&](std::int64_t tid, const std::string& name) {
    if (named.count(tid)) return;
    named[tid] = true;
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("thread_name");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(tid);
    w.key("args");
    w.begin_object();
    w.key("name").value(name);
    w.end_object();
    w.end_object();
  };
  for (const TraceEvent& e : ordered) {
    std::int64_t tid = chrome_tid(e);
    if (tid == 0) {
      name_track(tid, "phases");
    } else if (tid == 1) {
      name_track(tid, "coordinator");
    } else {
      name_track(tid, "node " + std::to_string(e.node));
    }
    w.begin_object();
    KindInfo info = kind_info(e.kind);
    bool phase = e.kind == TraceEventKind::kPhaseBegin ||
                 e.kind == TraceEventKind::kPhaseEnd;
    if (phase && e.arg0 >= 0 &&
        e.arg0 < static_cast<std::int64_t>(names_.size())) {
      w.key("name").value(names_[static_cast<std::size_t>(e.arg0)]);
    } else {
      w.key("name").value(info.name);
    }
    w.key("cat").value(info.category);
    if (e.kind == TraceEventKind::kPhaseBegin) {
      w.key("ph").value("B");
    } else if (e.kind == TraceEventKind::kPhaseEnd) {
      w.key("ph").value("E");
    } else {
      w.key("ph").value("i");
      w.key("s").value("t");
    }
    // Microseconds relative to the first event; 3 decimals keeps ns info.
    double ts = static_cast<double>(e.wall_ns - t0) / 1000.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ts);
    w.key("ts").value(std::strtod(buf, nullptr));
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(chrome_tid(e));
    w.key("args");
    w.begin_object();
    write_event_args(w, e, names_);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("schema").value(std::int64_t{1});
  w.key("events").value(static_cast<std::int64_t>(ordered.size()));
  w.key("dropped_events").value(dropped());
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Tracer::to_jsonl() const {
  std::vector<TraceEvent> ordered = ordered_events();
  std::string out;
  {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value(std::int64_t{1});
    w.key("events").value(static_cast<std::int64_t>(ordered.size()));
    w.key("dropped_events").value(dropped());
    w.end_object();
    out += w.str();
    out += '\n';
  }
  for (const TraceEvent& e : ordered) {
    JsonWriter w;
    w.begin_object();
    w.key("tick").value(e.tick);
    w.key("wall_ns").value(e.wall_ns);
    w.key("kind").value(kind_info(e.kind).name);
    w.key("node").value(static_cast<std::int64_t>(e.node));
    w.key("round").value(static_cast<std::int64_t>(e.round));
    w.key("arg0").value(e.arg0);
    w.key("arg1").value(e.arg1);
    w.key("lineage").value(e.lineage);
    if ((e.kind == TraceEventKind::kPhaseBegin ||
         e.kind == TraceEventKind::kPhaseEnd) &&
        e.arg0 >= 0 && e.arg0 < static_cast<std::int64_t>(names_.size())) {
      w.key("phase").value(names_[static_cast<std::size_t>(e.arg0)]);
    }
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::events_for_node(std::int32_t node) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.node == node) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::round_slice(std::int32_t round) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.round == round) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::lineage_chain(std::int64_t id) const {
  std::vector<TraceEvent> out;
  if (id == 0) return out;
  for (const TraceEvent& e : events_) {
    if (e.lineage == id) out.push_back(e);
  }
  return out;
}

bool TraceQuery::lineage_intact() const {
  std::unordered_map<std::int64_t, std::int64_t> send_tick;
  std::unordered_map<std::int64_t, int> send_count;
  for (const TraceEvent& e : events_) {
    if (e.kind == TraceEventKind::kNetSend && e.lineage != 0) {
      send_tick[e.lineage] = e.tick;
      ++send_count[e.lineage];
    }
  }
  for (const TraceEvent& e : events_) {
    if (e.kind != TraceEventKind::kNetDeliver) continue;
    auto it = send_tick.find(e.lineage);
    if (it == send_tick.end()) return false;     // deliver without a send
    if (send_count[e.lineage] != 1) return false;  // ambiguous origin
    if (it->second >= e.tick) return false;      // send not strictly earlier
  }
  return true;
}

}  // namespace chordal::obs
