// Differential fuzz/audit loop plus regression tests for every bug the
// harness flushed out. The heavyweight >= 500-case corpus gate lives in
// tools/fuzz_runner (scripts/fuzz.sh); this test keeps a representative
// slice in the ordinary ctest run: the full degenerate catalogue and a few
// seeds per adversarial family, each pushed through the complete execution
// matrix (threads {1,8} x model {LOCAL,CONGEST}) with every per-claim
// auditor enabled.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "audit/auditors.hpp"
#include "audit/fuzzers.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/graph.hpp"
#include "graph/graphio.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/parallel.hpp"

namespace chordal {
namespace {

// ---------------------------------------------------------------------------
// Differential matrix loop over the structured corpus
// ---------------------------------------------------------------------------

TEST(AuditFuzz, DegenerateCatalogueSurvivesFullMatrix) {
  for (int which = 0; which < audit::num_degenerate_graphs(); ++which) {
    Graph g = audit::degenerate_graph(which);
    SCOPED_TRACE("degenerate#" + std::to_string(which) + " " + g.summary());
    int configs = audit::run_driver_audit_matrix(
        g, /*eps_color=*/0.5, /*eps_mis=*/0.25, /*check_per_node_pruning=*/true);
    EXPECT_EQ(configs, 4);
  }
}

TEST(AuditFuzz, SeededFamiliesSurviveFullMatrix) {
  struct Family {
    const char* name;
    Graph (*make)(std::uint64_t);
  };
  const Family kFamilies[] = {
      {"chordal_mix", audit::random_chordal_mix},
      {"union", audit::disconnected_union},
      {"tie_storm", audit::tie_storm},
  };
  for (const Family& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Graph g = family.make(seed);
      SCOPED_TRACE(std::string(family.name) + "#" + std::to_string(seed) +
                   " " + g.summary());
      int configs = audit::run_driver_audit_matrix(
          g, /*eps_color=*/0.5, /*eps_mis=*/0.25,
          /*check_per_node_pruning=*/g.num_vertices() <= 48);
      EXPECT_EQ(configs, 4);
    }
  }
}

TEST(AuditFuzz, NearChordalAdversariesAreRejectedTyped) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = audit::near_chordal(seed);
    SCOPED_TRACE("near_chordal#" + std::to_string(seed) + " " + g.summary());
    EXPECT_NO_THROW(audit::audit_rejects_non_chordal(g));
  }
}

TEST(AuditFuzz, CorruptedStreamsParseOrRejectAndRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    audit::StreamCase sc = audit::corrupt_stream(seed);
    SCOPED_TRACE(sc.name);
    Graph parsed;
    bool parsed_ok = false;
    try {
      parsed = graph_from_string(sc.text);
      parsed_ok = true;
    } catch (const std::exception&) {
      parsed_ok = false;  // typed rejection: acceptable unless kMustParse
    }
    switch (sc.expect) {
      case audit::StreamExpect::kMustParse:
        EXPECT_TRUE(parsed_ok) << "well-formed stream rejected";
        break;
      case audit::StreamExpect::kMustReject:
        EXPECT_FALSE(parsed_ok) << "malformed stream accepted";
        break;
      case audit::StreamExpect::kNoCrash:
        break;  // reaching this line is the assertion
    }
    if (parsed_ok) {
      Graph reparsed = graph_from_string(graph_to_string(parsed));
      EXPECT_EQ(parsed.num_vertices(), reparsed.num_vertices());
      EXPECT_EQ(parsed.edges(), reparsed.edges());
    }
  }
}

TEST(AuditFuzz, CorpusIsDeterministicInItsSeed) {
  audit::CorpusConfig config;
  config.per_graph_family = 2;
  config.num_streams = 10;
  config.num_schedules = 6;
  audit::Corpus a = audit::build_corpus(config);
  audit::Corpus b = audit::build_corpus(config);
  ASSERT_EQ(a.graphs.size(), b.graphs.size());
  ASSERT_EQ(a.streams.size(), b.streams.size());
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (std::size_t i = 0; i < a.graphs.size(); ++i) {
    EXPECT_EQ(a.graphs[i].name, b.graphs[i].name);
    EXPECT_EQ(a.graphs[i].graph.edges(), b.graphs[i].graph.edges());
  }
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].name, b.streams[i].name);
    EXPECT_EQ(a.streams[i].text, b.streams[i].text);
  }
  for (std::size_t i = 0; i < a.schedules.size(); ++i) {
    EXPECT_EQ(a.schedules[i].name, b.schedules[i].name);
    EXPECT_EQ(a.schedules[i].steps, b.schedules[i].steps);
    EXPECT_EQ(a.schedules[i].base.edges(), b.schedules[i].base.edges());
  }
}

TEST(AuditFuzz, UpdateSchedulesSurviveFullMatrix) {
  auto schedules = audit::build_update_schedules(0xFEED, 10);
  ASSERT_EQ(schedules.size(), 10u);
  for (const audit::ScheduleCase& sc : schedules) {
    SCOPED_TRACE(sc.name + " " + sc.base.summary());
    EXPECT_EQ(audit::run_update_schedule_matrix(sc.base, sc.seed, sc.steps),
              2);
  }
}

TEST(AuditFuzz, UpdateScheduleExercisesRejections) {
  // Over a batch of schedules the harness must see all three outcome
  // classes - applied mutations, certified rejections, and the injected
  // violations folded into `rejected` - or the fuzzer is toothless.
  audit::UpdateScheduleStats totals;
  audit::DriverAuditConfig config;
  for (const audit::ScheduleCase& sc :
       audit::build_update_schedules(0xD1CE, 12)) {
    audit::UpdateScheduleStats s = audit::run_update_schedule_audit(
        sc.base, sc.seed, sc.steps, config, nullptr);
    totals.steps += s.steps;
    totals.applied += s.applied;
    totals.rejected += s.rejected;
    totals.skipped += s.skipped;
  }
  EXPECT_GT(totals.applied, 0);
  EXPECT_GT(totals.rejected, 0);
  EXPECT_EQ(totals.steps, totals.applied + totals.rejected + totals.skipped);
}

// ---------------------------------------------------------------------------
// The auditors must actually detect violations (meta-tests)
// ---------------------------------------------------------------------------

TEST(Auditors, CatchImproperColoring) {
  Graph g = audit::random_chordal_mix(11);
  ASSERT_FALSE(g.edges().empty());
  core::MvcResult r = core::mvc_chordal(g);
  ASSERT_NO_THROW(audit::audit_coloring(g, r));
  // Corrupt one endpoint of one edge to its neighbor's color.
  auto [u, v] = g.edges().front();
  r.colors[static_cast<std::size_t>(u)] = r.colors[static_cast<std::size_t>(v)];
  EXPECT_THROW(audit::audit_coloring(g, r), audit::AuditFailure);
}

TEST(Auditors, CatchDependentOrUndersizedMis) {
  Graph g = audit::random_chordal_mix(11);
  ASSERT_FALSE(g.edges().empty());
  core::MisResult r = core::mis_chordal(g);
  ASSERT_NO_THROW(audit::audit_mis(g, r, 0.25));
  core::MisResult corrupted = r;
  auto [u, v] = g.edges().front();
  corrupted.chosen = {std::min(u, v), std::max(u, v)};  // adjacent pair
  EXPECT_THROW(audit::audit_mis(g, corrupted, 0.25), audit::AuditFailure);
  core::MisResult empty = r;
  empty.chosen.clear();  // far below (1+eps)-optimal on any non-empty graph
  EXPECT_THROW(audit::audit_mis(g, empty, 0.25), audit::AuditFailure);
}

TEST(Auditors, CatchBrokenConservation) {
  obs::Registry reg;
  reg.counter("net.rounds").add(2);
  reg.counter("net.messages").add(7);
  reg.counter("net.payload_words").add(9);
  reg.histogram("net.round_messages").add(3);
  reg.histogram("net.round_messages").add(4);
  reg.histogram("net.round_payload_words").add(5);
  reg.histogram("net.round_payload_words").add(4);
  ASSERT_NO_THROW(audit::audit_network_conservation(reg));
  reg.counter("net.messages").add(1);  // lost delivery / double publish
  EXPECT_THROW(audit::audit_network_conservation(reg),
               audit::AuditFailure);
}

TEST(Auditors, MaximalIndependentSetPredicate) {
  Graph g = audit::degenerate_graph(0);  // empty graph: empty set is maximal
  EXPECT_TRUE(audit::is_maximal_independent_set(g, {}));
  Graph path = graph_from_string("3 2\n0 1\n1 2\n");
  std::vector<int> maximal = {0, 2};
  std::vector<int> not_maximal = {1};
  std::vector<int> dependent = {0, 1};
  EXPECT_TRUE(audit::is_maximal_independent_set(path, maximal));
  EXPECT_TRUE(audit::is_maximal_independent_set(path, not_maximal));
  EXPECT_FALSE(audit::is_maximal_independent_set(path, {}));
  EXPECT_FALSE(audit::is_maximal_independent_set(path, dependent));
}

// ---------------------------------------------------------------------------
// Regressions for fuzz-found bugs (each failed before its fix)
// ---------------------------------------------------------------------------

// Fuzz-found (degenerate#0): mvc_chordal returned k = 0 on the empty graph,
// violating the documented "k = ceil(2/eps), floored at 2" contract; the
// scale parameters are pure functions of eps, not of the graph.
TEST(AuditRegression, EmptyGraphDriversHonorScaleParameterContracts) {
  Graph empty;
  core::MvcResult mvc = core::mvc_chordal(empty);
  EXPECT_EQ(mvc.k, 4);  // default eps = 0.5 -> ceil(2/0.5) = 4
  core::MvcOptions tight;
  tight.eps = 0.1;
  EXPECT_EQ(core::mvc_chordal(empty, tight).k, 20);
  core::MvcOptions loose;
  loose.eps = 4.0;
  EXPECT_EQ(core::mvc_chordal(empty, loose).k, 2);  // the floor

  core::MisResult mis = core::mis_chordal(empty);
  core::MisResult mis_k1 = core::mis_chordal(audit::degenerate_graph(1));
  EXPECT_GT(mis.d, 0);
  EXPECT_GT(mis.iterations, 0);
  // Same options, graph-independent parameters: must match a non-empty run.
  EXPECT_EQ(mis.d, mis_k1.d);
  EXPECT_EQ(mis.iterations, mis_k1.iterations);
}

// Fuzz-found (tie_storm#7120702119832725337): spans opened inside
// parallel_for bodies (the ruling-set / Cole-Vishkin solves of a layer) were
// recorded only by the thread carrying the installed registry, so the span
// tree depended on CHORDAL_THREADS. Span construction is now suppressed
// inside parallel regions at every thread count.
TEST(AuditRegression, SpanTreeIsThreadCountInvariant) {
  Graph g = audit::tie_storm(7120702119832725337ULL);
  audit::DriverAuditConfig one;
  one.threads = 1;
  audit::DriverAuditConfig eight = one;
  eight.threads = 8;
  audit::DriverAuditResult r1 = audit::run_driver_audit(g, one);
  audit::DriverAuditResult r8 = audit::run_driver_audit(g, eight);
  EXPECT_EQ(r1.colors, r8.colors);
  EXPECT_EQ(r1.mis, r8.mis);
  EXPECT_EQ(r1.telemetry, r8.telemetry);
}

TEST(AuditRegression, SpansInsideParallelRegionsAreSuppressed) {
  for (int threads : {1, 8}) {
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      support::set_num_threads(threads);
      obs::Span outer("outer");
      support::parallel_for(4, [](std::size_t, std::size_t) {
        obs::Span inner("inner");  // must not be recorded on any worker
        inner.add_rounds(1);
      });
    }
    support::set_num_threads(0);
    const obs::SpanNode& root = reg.span_root();
    ASSERT_EQ(root.children.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(root.children[0]->name, "outer");
    EXPECT_TRUE(root.children[0]->children.empty()) << "threads=" << threads;
  }
}

TEST(AuditRegression, InParallelRegionFlagCoversInlinePath) {
  EXPECT_FALSE(support::in_parallel_region());
  support::set_num_threads(1);  // force the inline single-worker path
  bool seen = false;
  support::parallel_for(1, [&seen](std::size_t, std::size_t) {
    seen = support::in_parallel_region();
  });
  support::set_num_threads(0);
  EXPECT_TRUE(seen);
  EXPECT_FALSE(support::in_parallel_region());
}

}  // namespace
}  // namespace chordal
