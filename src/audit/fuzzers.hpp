// Structured, seeded input fuzzers for the adversarial-hardening harness.
//
// Each family produces inputs the rest of the library historically trusted
// but was never tested against: degenerate graphs (n = 0/1, isolated
// vertices), disconnected unions of heterogeneous chordal components,
// adversarial tie storms (many clique-intersection weights equal, so every
// spanning-forest tie-break fires), near-chordal graphs with one long
// induced cycle (drivers must reject them cleanly, not crash), and
// corrupted read_graph byte streams. All families are pure functions of a
// 64-bit seed, so every corpus entry replays exactly from its printed
// (family, seed) pair.
//
// Motivated by Hebert-Johnson et al. (arXiv:2308.09703): random chordal
// inputs are a principled workload, not an afterthought - the graph
// families here layer mutation structure on the existing generators rather
// than inventing a parallel generator stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace chordal::audit {

// ---------------------------------------------------------------------------
// Graph-shaped fuzz cases
// ---------------------------------------------------------------------------

/// One graph workload plus the provenance needed to replay it.
struct GraphCase {
  std::string family;  // "degenerate", "chordal_mix", "union", ...
  std::string name;    // unique corpus label, embeds the seed
  std::uint64_t seed = 0;
  Graph graph;
  /// Whether the drivers must accept the input (true) or reject it with a
  /// typed exception (false: the graph is intentionally non-chordal).
  bool chordal = true;
};

/// Fixed catalogue of degenerate shapes: empty graph, single vertex,
/// isolated vertices, single edge, tiny cliques/stars/paths. `which` in
/// [0, num_degenerate_graphs()).
Graph degenerate_graph(int which);
int num_degenerate_graphs();

/// Random draw from the existing chordal generator families (incremental
/// chordal, prescribed clique trees of every shape, k-trees, interval-like
/// chains) with randomized parameters - the "plain" corpus backbone.
Graph random_chordal_mix(std::uint64_t seed);

/// Disconnected union: 2-5 heterogeneous chordal components plus a sprinkle
/// of isolated vertices, exercising every per-component code path.
Graph disconnected_union(std::uint64_t seed);

/// Adversarial tie storm: a generalized windmill (many equal-size cliques
/// sharing one common core), a k-tree with k up to 8, or a band graph, so
/// whole weight classes of W_G tie and the deterministic (weight, word,
/// word) order does all the work.
Graph tie_storm(std::uint64_t seed);

/// Near-chordal adversary: a random chordal graph plus one long induced
/// (chordless) cycle, optionally bridged to the chordal part by a single
/// edge (which creates no chord). Drivers must throw, never crash or hang.
Graph near_chordal(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Dynamic update schedules
// ---------------------------------------------------------------------------

/// One seeded update schedule for the dynamic layer: a small chordal base
/// plus a step budget. The ops themselves are drawn inside
/// run_update_schedule_audit from the schedule's seed (they depend on the
/// evolving graph state, so they cannot be materialized up front), making
/// the whole schedule a pure function of (base, seed, steps) - replayable
/// across every execution config.
struct ScheduleCase {
  std::string name;
  std::uint64_t seed = 0;
  Graph base;
  int steps = 0;
};

/// Deterministic batch of update-schedule cases over small mixed chordal
/// bases (incremental chordal, clique trees, k-trees, interval chains, the
/// degenerate catalogue's empty/tiny shapes, and hub bases - windmills with
/// 50-120 blades and k-trees with k up to 8 - whose repairs take the sparse
/// forest engine).
std::vector<ScheduleCase> build_update_schedules(std::uint64_t seed,
                                                 int count);

// ---------------------------------------------------------------------------
// Corrupted byte streams for read_graph
// ---------------------------------------------------------------------------

enum class StreamExpect {
  kMustParse,   // well-formed: must parse and canonically round-trip
  kMustReject,  // malformed: must throw a typed std::exception
  kNoCrash,     // ambiguous mutation: either outcome, but never a crash
};

struct StreamCase {
  std::string family;  // mutation kind, e.g. "negative_m", "truncated"
  std::string name;
  std::uint64_t seed = 0;
  std::string text;
  StreamExpect expect = StreamExpect::kNoCrash;
};

/// One corrupted (or pristine) serialized-graph byte stream. Mutations
/// include: negative/overflowing n, negative or absurd m, out-of-range and
/// negative endpoints, self-loops, duplicated edge lines (legal:
/// deduplicated), truncation at a random byte, token garbage, and header
/// swaps.
StreamCase corrupt_stream(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Pinned-seed corpus
// ---------------------------------------------------------------------------

struct Corpus {
  std::vector<GraphCase> graphs;
  std::vector<StreamCase> streams;
  std::vector<ScheduleCase> schedules;
};

struct CorpusConfig {
  std::uint64_t seed = 0xC0FFEE;
  /// Seeded cases per random graph family (the degenerate catalogue is
  /// always fully included on top).
  int per_graph_family = 25;
  int num_streams = 400;
  int num_schedules = 500;
};

/// Deterministic corpus: every case's name embeds its family and seed for
/// single-case replay. Size >= 4 * per_graph_family + catalogue +
/// num_streams.
Corpus build_corpus(const CorpusConfig& config);

}  // namespace chordal::audit
