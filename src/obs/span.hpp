// Phase-scoped RAII trace spans.
//
// A Span marks one named phase of an algorithm run ("pruning Gamma^{10k}
// (Alg 3)", "peel layer 4", "CV color reduction", ...). Spans nest: opening
// a Span while another is live attaches it as a child, so a run decomposes
// into the exact phase tree of the paper's round-budget arithmetic. Each
// span records wall time automatically and accumulates the LOCAL-model
// costs (rounds, messages, payload words) charged to it, either explicitly
// by the algorithm or implicitly by instrumented substrates (the Network
// engine charges each deliver() to the innermost live span).
//
// When no Registry is installed (obs::current() == nullptr) construction
// and every method are no-ops - a pointer check - so instrumented code pays
// nothing in normal library use. Construction is also a no-op inside a
// support::parallel_for body (at any thread count): per-worker spans would
// otherwise be recorded only by the thread carrying the registry, making
// the trace tree depend on CHORDAL_THREADS. The charge_* statics remain
// live everywhere; parallel engines tally worker charges per worker and
// charge the totals after the join, which is thread-count-invariant.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace chordal::obs {

class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Whether this span is actually recording (a registry was installed).
  bool live() const { return node_ != nullptr; }

  void add_rounds(std::int64_t rounds);
  void add_messages(std::int64_t count, std::int64_t payload_words);
  /// Overwrites the span's round total (for algorithms that compute the
  /// phase cost as a closed form rather than accumulating it).
  void set_rounds(std::int64_t rounds);
  void note(std::string_view key, double value);

  /// Charge the innermost live span, wherever it is (used by substrates
  /// that do not know which phase invoked them). No-op without a sink.
  static void charge_rounds(std::int64_t rounds);
  static void charge_messages(std::int64_t count, std::int64_t payload_words);
  static void annotate(std::string_view key, double value);

 private:
  Registry* registry_ = nullptr;
  SpanNode* node_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::int64_t phase_id_ = -1;  // interned name in the installed Tracer
  bool traced_ = false;
};

}  // namespace chordal::obs
