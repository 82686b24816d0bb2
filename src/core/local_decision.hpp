// Distributed-fidelity audit for the pruning phase (Lemma 12).
//
// Algorithm 3 has each node decide "do I join layer i?" from nothing but
// its distance-10k ball. This module re-derives that decision for sampled
// nodes using only their local views (Section 3) and compares it with the
// global peeling - the executable form of Lemma 12's claim that the
// distributed algorithm computes exactly the centralized partition.
//
// The node-side rule mirrors the argument in the paper: walk the visible
// clique chain around T(v) while the view is provably complete there
// (every vertex of a chain clique within distance radius-2 sees all its
// forest neighbors); stop at a branch vertex (real, since visible degrees
// never overestimate), a trusted leaf, or the ball horizon. A visible leaf
// makes the maximal binary path pendant (remove); a horizon implies the
// visible chain already spans diameter >= 3k (remove); two branch ends
// resolve the internal-path threshold exactly.
#pragma once

#include "core/peeling.hpp"
#include "graph/graph.hpp"

namespace chordal::core {

struct LocalDecisionAudit {
  long long decisions_checked = 0;
  long long mismatches = 0;
  long long horizon_hits = 0;  // decisions that used the >= 3k horizon rule
};

/// Re-derives the layer decision of every `stride`-th vertex at every peel
/// iteration from its distance-(10k) ball and counts disagreements with the
/// global result (expected: zero). Coloring-mode peelings only.
LocalDecisionAudit audit_local_pruning(const Graph& g,
                                       const PeelingResult& peeling, int k,
                                       int stride = 1);

/// The MIS-mode analog (Section 7.3): early iterations threshold internal
/// paths by diameter >= 2d+3, the final iteration by independence >= d;
/// the ball radius is 4d+10. Audits against an independent-set-mode
/// peeling (vertices with layer 0 were never peeled and stay active
/// throughout).
LocalDecisionAudit audit_local_pruning_mis(const Graph& g,
                                           const PeelingResult& peeling,
                                           int d, int stride = 1);

/// Runs the whole pruning phase with EVERY layer decision made by the
/// owning node from its own ball (Algorithm 3 verbatim, simulated node by
/// node). Slow - one local-view computation per active vertex per
/// iteration - but byte-identical to peel() by Lemma 12; the MVC engine
/// exposes it as an execution mode and tests assert the equality. Throws
/// std::logic_error if the node decisions ever disagree with a coherent
/// path structure.
PeelingResult peel_with_local_decisions(const Graph& g,
                                        const CliqueForest& forest, int k);

}  // namespace chordal::core
