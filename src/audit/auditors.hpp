// Invariant auditors: one executable checker per paper claim, callable from
// tests, the fuzz runner, and ad-hoc driver harnesses.
//
// Style follows Polishchuk & Suomela (arXiv:0810.2175): every claim the
// system relies on is restated as a concrete predicate over a concrete run,
// and violations throw AuditFailure with the claim and the witness spelled
// out. The auditors are deliberately independent re-derivations - they use
// the exact centralized baselines as ground truth rather than trusting any
// driver-side bookkeeping.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "core/dynamic.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace chordal::audit {

/// Thrown by every auditor on an invariant violation. The message names the
/// claim and the offending witness (vertex, edge, counter, ...).
class AuditFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// ---------------------------------------------------------------------------
// Per-claim auditors
// ---------------------------------------------------------------------------

/// Theorem 3 / Lemma 9-10: the MVC result is a proper coloring of g using
/// at most omega + omega/k + 1 colors, its self-reported counters are
/// consistent, and omega matches the exact chromatic number (chordal: chi
/// == omega).
void audit_coloring(const Graph& g, const core::MvcResult& r);

/// Theorem 7/8: the MIS result is an independent set with
/// (1 + eps) * |I| >= alpha(G), sorted and duplicate-free.
void audit_mis(const Graph& g, const core::MisResult& r, double eps);

/// True iff `set` is independent and no vertex outside it can be added.
bool is_maximal_independent_set(const Graph& g, std::span<const int> set);

/// Memory-substrate contract: the Graph's CSR slabs are well-formed -
/// offsets span [0, 2m] monotonically with offsets[n] == adj size, every
/// neighbor row is strictly ascending (sorted, duplicate-free), loop-free,
/// in-range, and symmetric (each (u, v) slot has its (v, u) mirror), and
/// the reported edge count equals half the adjacency volume.
void audit_graph_csr(const Graph& g);

/// Theorem 2: the clique forest is a valid clique tree of g - the
/// tree-decomposition axioms (via CliqueForest::verify), every stored bag
/// is a maximal clique of g, membership lists match bag contents, and the
/// forest has exactly (#cliques - #components of the clique intersection
/// graph) edges, i.e. it spans every component.
void audit_clique_forest(const Graph& g, const CliqueForest& forest);

/// Theorem 2 uniqueness, differentially: the counting-sort engine and the
/// reference sorted-merge Kruskal select the identical spanning forest.
void audit_forest_engine_parity(const CliqueFamily& cliques,
                                int num_graph_vertices);

/// Lemma 2 per-family selection, differentially: for every vertex v with
/// |phi(v)| >= 2, family_forest_edges over phi(v) picks exactly the edges
/// (in the same order) that the reference Kruskal picks on a deep copy of
/// the family cliques, mapped back through the family indices.
void audit_family_forest_parity(const CliqueForest& forest);

/// Ledger/telemetry conservation over a finished run's registry: the
/// published totals must equal the sum of their per-round charges -
/// counter net.messages == sum(net.round_messages samples), counter
/// net.payload_words == sum(net.round_payload_words samples), and counter
/// net.rounds == the number of recorded round samples. Catches both lost
/// deliveries and double-published totals.
void audit_network_conservation(const obs::Registry& reg);

/// Drivers must reject non-chordal input with std::invalid_argument (from
/// peo_or_throw), never crash, hang, or return garbage.
void audit_rejects_non_chordal(const Graph& g);

// ---------------------------------------------------------------------------
// Differential driver harness
// ---------------------------------------------------------------------------

struct DriverAuditConfig {
  int threads = 1;
  /// Run under the CONGEST bandwidth model (B-word per-edge per-round
  /// capacity, fragmented Network deliveries, transfer rounds on the driver
  /// clocks). Algorithm outputs must stay bit-identical to LOCAL; only
  /// round counts and round-resolution telemetry may grow.
  bool congest = false;
  /// CONGEST capacity in words; 0 = auto (B = ceil(log2 n)).
  std::int64_t congest_b = 0;
  double eps_color = 0.5;
  double eps_mis = 0.25;
  /// Run the per-node-local-views pruning mode and assert it matches the
  /// global mode (Lemma 12). One local view per node per iteration - only
  /// enabled for small inputs by the callers.
  bool check_per_node_pruning = false;
  std::uint64_t dplus1_seed = 0x5eed;

  std::string label() const;
};

/// Everything a config's run produced that must be identical across
/// thread counts - the cross-config differential signature.
struct DriverAuditResult {
  std::vector<int> colors;
  int num_colors = 0;
  std::vector<int> mis;
  std::int64_t mvc_rounds = 0;
  std::int64_t mis_rounds = 0;
  int num_layers = 0;
  /// Registry signature: counters/gauges/histograms (engine.* effectiveness
  /// metrics excluded) plus the span tree without wall times.
  std::string telemetry;
};

bool operator==(const DriverAuditResult& a, const DriverAuditResult& b);

/// Runs every driver (MVC both modes when requested, MIS, Delta+1 over the
/// Network engine, clique forest + whole-graph and per-family engine
/// parity, exact baselines) on g under the given execution config with all
/// per-claim auditors enabled, and returns the differential signature.
/// Thread count and network model settings are restored on exit.
DriverAuditResult run_driver_audit(const Graph& g,
                                   const DriverAuditConfig& config);

/// The full execution matrix of one graph: threads {1, 8} under LOCAL,
/// each audited, with both signatures asserted identical - then the same
/// two cells under CONGEST (auto B), with the two congest signatures
/// asserted identical to each other and their algorithm outputs (colors,
/// MIS, layers) asserted bit-identical to the LOCAL baseline while their
/// round counts may only grow. Returns the number of configurations run
/// (4).
int run_driver_audit_matrix(const Graph& g, double eps_color, double eps_mis,
                            bool check_per_node_pruning);

// ---------------------------------------------------------------------------
// Dynamic update-schedule harness
// ---------------------------------------------------------------------------

/// Incremental-vs-recompute parity for the dynamic layer: the repaired
/// signature (colors, MIS, clique family, forest edges, all in slot ids)
/// must be bit-identical to a full recomputation on the alive-induced
/// graph. Throws AuditFailure naming the diverging component.
void audit_dynamic_parity(const DynamicChordal& dc);

struct UpdateScheduleStats {
  int steps = 0;     // update attempts drawn
  int applied = 0;   // mutations that went through
  int rejected = 0;  // certified violations (witness cycle validated)
  int skipped = 0;   // rolls with no applicable move (empty graph etc.)
};

/// Replays one seeded update schedule on `base` under the given execution
/// config: random edge/vertex inserts and deletes (the certifier decides
/// validity; every rejection's witness is checked to be a genuine chordless
/// cycle of the would-be graph) plus injected guaranteed-violating updates
/// that MUST be rejected. audit_dynamic_parity runs after every step. The
/// final signature lands in *final_sig.
UpdateScheduleStats run_update_schedule_audit(
    const Graph& base, std::uint64_t seed, int steps,
    const DriverAuditConfig& config, DynamicChordal::Signature* final_sig);

/// The schedule under the full execution matrix (threads {1, 8}),
/// asserting every config lands on the identical final signature. Returns
/// the number of configurations run (2).
int run_update_schedule_matrix(const Graph& base, std::uint64_t seed,
                               int steps);

}  // namespace chordal::audit
