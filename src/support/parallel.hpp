// Deterministic node-parallel execution for the LOCAL simulator.
//
// Nodes of a LOCAL round act independently, so the simulator's dominant
// loops ("for every active node: collect the ball and decide") are
// embarrassingly parallel. parallel_for runs such a loop on a small
// persistent thread pool using *static index-range partitioning*: worker w
// of W always receives the contiguous range [w*n/W, (w+1)*n/W), so the
// work-to-range mapping is a pure function of (n, W). Drivers that keep
// per-worker accumulators (obs deltas, counters) and merge them in worker
// order therefore observe results in global index order, making outputs and
// telemetry bit-identical at any thread count - including 1, where the body
// runs inline on the calling thread.
//
// The worker count defaults to the CHORDAL_THREADS environment variable,
// falling back to the hardware concurrency; set_num_threads() overrides it
// at runtime (tests sweep 1/2/8). parallel_for calls must not nest: a body
// that calls parallel_for again runs that inner loop inline. Concurrent
// callers serialize: parallel_for from two threads at once is safe, and
// the second call waits for the pool until the first one finishes.
#pragma once

#include <cstddef>
#include <functional>

namespace chordal::support {

/// The configured worker count (>= 1). First use reads CHORDAL_THREADS,
/// then the hardware concurrency.
int num_threads();

/// Overrides the worker count for subsequent parallel_for calls; `count`
/// <= 0 resets to the environment/hardware default.
void set_num_threads(int count);

/// True while the calling thread is executing a parallel_for body - on pool
/// workers, on the calling thread acting as worker 0, and on the inline
/// single-worker path alike, so the answer is independent of the configured
/// thread count. Code whose side effects must be bit-identical at every
/// thread count (e.g. obs::Span trees) keys off this to behave the same
/// whether a body runs inline or on a pool thread.
bool in_parallel_region();

/// body(begin, end, worker): one contiguous index range per worker, with
/// worker ids 0..num_threads()-1 (worker 0 runs on the calling thread).
/// Blocks until every range finished. The first exception (by worker index)
/// is rethrown. Ranges may be empty when n < num_threads().
using RangeBody =
    std::function<void(std::size_t begin, std::size_t end, std::size_t worker)>;
void parallel_for_ranges(std::size_t n, const RangeBody& body);

/// Per-index convenience wrapper; body(index, worker).
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for_ranges(
      n, [&body](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t i = begin; i < end; ++i) body(i, worker);
      });
}

}  // namespace chordal::support
