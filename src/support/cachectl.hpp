// Process-wide switch for the simulator-speed cross-iteration caches
// (local::BallCache and cliqueforest::PathMetricCache).
//
// The caches are simulator-speed optimizations that are proven (and
// fuzz-tested) to keep outputs, round ledgers, and telemetry bit-identical
// to the plain recompute paths, so they default to ON. The switch exists
// for the parity harnesses themselves: `CHORDAL_BALL_CACHE=0` (or
// set_cache_enabled(0)) forces every driver through the uncached recompute
// path, which is what the check.sh cache-parity smoke step compares
// against.
#pragma once

namespace chordal::support {

/// True when the cross-iteration caches should be used. Reads the
/// CHORDAL_BALL_CACHE environment variable once ("0" disables, anything
/// else - including unset - enables), unless overridden.
bool cache_enabled();

/// Runtime override: 1 forces caches on, 0 forces them off, any negative
/// value restores the environment default. Mirrors set_num_threads; callers
/// (tests, benches) toggle it between runs, never mid-driver.
void set_cache_enabled(int enabled);

}  // namespace chordal::support
