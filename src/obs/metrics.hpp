// Telemetry core: named counters / gauges / histograms and a tree of
// phase-scoped trace spans, owned by a Registry.
//
// The LOCAL model's currency is rounds, messages, and payload words; the
// registry makes those first-class so every bench can decompose a measured
// round total against the paper's per-lemma round budgets (see the Span
// type in obs/span.hpp for the phase tree itself).
//
// Collection is opt-in and zero-cost when off: instrumentation sites go
// through the process-wide current() pointer, which is null unless a sink
// (ScopedRegistry) is installed. Every hot-path hook therefore reduces to
// one pointer load and a branch when telemetry is disabled.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "support/stats.hpp"

namespace chordal::obs {

/// Monotonically increasing integer metric (e.g. "net.messages").
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-write-wins numeric metric (e.g. a workload parameter).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric reporting count/min/max/mean/p50/p95 (e.g. per-node
/// max-congestion across a run). Backed by support/stats Samples.
class Histogram {
 public:
  void add(double v) { samples_.add(v); }
  std::size_t count() const { return samples_.count(); }
  double sum() const { return samples_.sum(); }
  double min() const { return samples_.min(); }
  double max() const { return samples_.max(); }
  double mean() const { return samples_.mean(); }
  double p50() const { return samples_.p50(); }
  double p95() const { return samples_.p95(); }
  double percentile(double q) const { return samples_.percentile(q); }

 private:
  Samples samples_;
};

/// One node of the phase trace: a named phase with the LOCAL-model costs it
/// consumed plus free-form numeric annotations ("layers", "k", ...).
struct SpanNode {
  std::string name;
  double wall_ms = 0.0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t payload_words = 0;
  std::vector<std::pair<std::string, double>> notes;
  std::vector<std::unique_ptr<SpanNode>> children;

  void note(std::string_view key, double value);
};

class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Named metric accessors; created on first use, stable references.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Lookup without creation (nullptr when absent); for tests/inspection.
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Full metric maps, for auditors and exporters that need to enumerate
  /// every published name (e.g. the conservation checks in src/audit).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Span-stack plumbing used by obs::Span; spans nest strictly.
  SpanNode* open_span(std::string name);
  void close_span(SpanNode* node);
  SpanNode* active_span();
  const SpanNode& span_root() const { return root_; }

  /// Serializes {counters, gauges, histograms, spans} as one JSON object.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  SpanNode root_;
  std::vector<SpanNode*> stack_;  // stack_[0] == &root_
};

/// The installed sink, or nullptr when telemetry is off (the fast path).
/// Thread-local: a ScopedRegistry installs the sink only on its own thread,
/// so pool workers of support::parallel_for always see nullptr and
/// instrumentation sites stay race-free (and no-ops) there. Parallel
/// drivers that want worker telemetry tally per worker and record the
/// totals after the join.
Registry* current();

/// RAII installer; restores the previous sink on destruction, so scopes may
/// nest (e.g. a test registry inside a bench registry).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

}  // namespace chordal::obs
