// Causal event tracing (obs/trace.hpp): the trace of a run is part of its
// deterministic output. Scrubbing wall_ns (the only wall-clock field),
// the merged event stream of a driver run must be bit-identical across
// thread counts {1, 2, 8}.
// Message lineage must be causal: every net.deliver resolves through its
// lineage id to exactly one earlier net.send.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;

Graph trace_workload() {
  RandomChordalConfig config;
  config.n = 220;
  config.max_clique = 5;
  config.chain_bias = 0.85;
  config.seed = 19;
  return random_chordal(config);
}

/// Restores every toggle this test flips, whatever the exit path.
class ToggleRestorer {
 public:
  ~ToggleRestorer() { support::set_num_threads(0); }
};

/// One full driver run (per-node MVC + MIS) under a fresh tracer; returns
/// the merged event stream with wall_ns zeroed (the only field allowed to
/// vary between otherwise identical runs).
std::vector<TraceEvent> traced_run(const Graph& g, int threads) {
  support::set_num_threads(threads);
  obs::Tracer tracer;
  {
    obs::ScopedTracer scope(tracer);
    core::MvcOptions mvc;
    mvc.pruning = core::PruningMode::kPerNodeLocalViews;
    core::mvc_chordal(g, mvc);
    core::mis_chordal(g);
  }
  std::vector<TraceEvent> events = tracer.ordered_events();
  EXPECT_EQ(tracer.dropped(), 0);
  for (TraceEvent& e : events) e.wall_ns = 0;
  return events;
}

TEST(TraceDeterminism, IdenticalAcrossThreads) {
  ToggleRestorer restore;
  Graph g = trace_workload();
  const int kThreads[] = {1, 2, 8};
  std::vector<TraceEvent> baseline;
  for (int threads : kThreads) {
    std::vector<TraceEvent> events = traced_run(g, threads);
    ASSERT_FALSE(events.empty());
    if (threads == kThreads[0]) {
      baseline = events;
    } else {
      // The headline guarantee: scrubbed streams are bit-identical at any
      // thread count, library events included.
      EXPECT_EQ(baseline, events) << "threads=" << threads;
    }
  }
}

TEST(TraceDeterminism, DriverEventFamiliesPresent) {
  ToggleRestorer restore;
  Graph g = trace_workload();
  std::vector<TraceEvent> events = traced_run(g, 2);
  auto count = [&](TraceEventKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.kind == kind; });
  };
  EXPECT_GT(count(TraceEventKind::kPhaseBegin), 0);
  EXPECT_EQ(count(TraceEventKind::kPhaseBegin),
            count(TraceEventKind::kPhaseEnd));
  EXPECT_GT(count(TraceEventKind::kLocalDecision), 0);
  EXPECT_GT(count(TraceEventKind::kPeelCommit), 0);
  EXPECT_GT(count(TraceEventKind::kColorCommit), 0);
  EXPECT_GT(count(TraceEventKind::kMisPick), 0);
  EXPECT_GT(count(TraceEventKind::kForestBuild), 0);

  // Every vertex's color is committed exactly once.
  EXPECT_EQ(count(TraceEventKind::kColorCommit), g.num_vertices());
}

TEST(TraceQuery, NodeAndRoundSlices) {
  ToggleRestorer restore;
  Graph g = trace_workload();
  obs::TraceQuery q(traced_run(g, 2));

  // Find a peeled vertex and check the node slice is exactly its events.
  const TraceEvent* commit = nullptr;
  for (const TraceEvent& e : q.events()) {
    if (e.kind == TraceEventKind::kPeelCommit) {
      commit = &e;
      break;
    }
  }
  ASSERT_NE(commit, nullptr);
  std::vector<TraceEvent> for_node = q.events_for_node(commit->node);
  ASSERT_FALSE(for_node.empty());
  for (const TraceEvent& e : for_node) EXPECT_EQ(e.node, commit->node);
  EXPECT_TRUE(std::is_sorted(
      for_node.begin(), for_node.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.tick < b.tick; }));

  std::vector<TraceEvent> layer1 = q.round_slice(1);
  ASSERT_FALSE(layer1.empty());
  for (const TraceEvent& e : layer1) EXPECT_EQ(e.round, 1);
}

TEST(TraceLineage, EveryDeliverResolvesToOnePriorSend) {
  ToggleRestorer restore;
  support::set_num_threads(2);
  Graph g = trace_workload();
  obs::Tracer tracer;
  {
    obs::ScopedTracer scope(tracer);
    baselines::dplus1_coloring(g, /*seed=*/7);
  }
  obs::TraceQuery q(tracer.ordered_events());
  EXPECT_TRUE(q.lineage_intact());

  std::int64_t sends = 0, delivers = 0;
  const TraceEvent* delivered = nullptr;
  for (const TraceEvent& e : q.events()) {
    if (e.kind == TraceEventKind::kNetSend) ++sends;
    if (e.kind == TraceEventKind::kNetDeliver) {
      ++delivers;
      delivered = &e;
    }
  }
  ASSERT_GT(sends, 0);
  ASSERT_GT(delivers, 0);

  // A delivered message's chain is exactly {send, deliver}, in tick order,
  // agreeing on sender, recipient, and payload size.
  std::vector<TraceEvent> chain = q.lineage_chain(delivered->lineage);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].kind, TraceEventKind::kNetSend);
  EXPECT_EQ(chain[1].kind, TraceEventKind::kNetDeliver);
  EXPECT_LT(chain[0].tick, chain[1].tick);
  EXPECT_EQ(chain[0].node, chain[1].arg0);   // sender
  EXPECT_EQ(chain[0].arg0, chain[1].node);   // recipient
  EXPECT_EQ(chain[0].arg1, chain[1].arg1);   // payload words
}

TEST(TraceBuf, BoundedRingWrapsOverOldest) {
  obs::TraceBuf buf(4);
  for (int i = 0; i < 7; ++i) {
    buf.emit(TraceEventKind::kPeelCommit, i, 1);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 3);
  std::vector<TraceEvent> out;
  buf.drain_to(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].node, 3 + i);  // oldest first
}

TEST(TraceDisabled, NoTracerMeansNoEvents) {
  ASSERT_EQ(obs::tracer(), nullptr);
  // Emitting through the helper with no tracer installed is a no-op, not
  // a crash — the zero-cost disabled path of every instrumented site.
  obs::trace_emit(nullptr, TraceEventKind::kPeelCommit, 1, 1);
  Graph g = trace_workload();
  core::mvc_chordal(g);
  ASSERT_EQ(obs::tracer(), nullptr);
}

}  // namespace
}  // namespace chordal
