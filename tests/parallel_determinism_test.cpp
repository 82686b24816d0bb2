// Thread-count invariance of the parallel drivers: outputs, round ledgers,
// and every telemetry counter must be bit-identical across CHORDAL_THREADS
// = 1, 2, 8. The static index partition of support::parallel_for plus
// worker-order merging is what makes this hold; these tests are the
// tripwire for any driver that starts recording telemetry inside a
// parallel body or merging in a thread-dependent order.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cliqueforest/forest.hpp"
#include "core/local_decision.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

const int kThreadCounts[] = {1, 2, 8};

/// Registry JSON with wall-clock timings removed: everything else (counter
/// values, histogram stats, span rounds/messages/notes, tree shape) must be
/// byte-identical across thread counts.
std::string scrub_wall(std::string json) {
  std::string out;
  std::size_t i = 0;
  const std::string key = "\"wall_ms\":";
  while (i < json.size()) {
    if (json.compare(i, key.size(), key) == 0) {
      i += key.size();
      while (i < json.size() && json[i] != ',' && json[i] != '}') ++i;
      if (i < json.size() && json[i] == ',') ++i;
      continue;
    }
    out.push_back(json[i]);
    ++i;
  }
  return out;
}

Graph determinism_workload() {
  RandomChordalConfig config;
  config.n = 600;
  config.max_clique = 5;
  config.chain_bias = 0.85;
  config.seed = 11;
  return random_chordal(config);
}

class ThreadRestorer {
 public:
  ~ThreadRestorer() { support::set_num_threads(0); }
};

TEST(ParallelDeterminism, MvcIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  Graph g = determinism_workload();
  std::vector<core::MvcResult> results;
  std::vector<std::string> telemetry;
  for (int threads : kThreadCounts) {
    support::set_num_threads(threads);
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      results.push_back(core::mvc_chordal(g));
    }
    telemetry.push_back(scrub_wall(reg.to_json()));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].colors, results[i].colors);
    EXPECT_EQ(results[0].num_colors, results[i].num_colors);
    EXPECT_EQ(results[0].rounds, results[i].rounds);
    EXPECT_EQ(results[0].pruning_rounds, results[i].pruning_rounds);
    EXPECT_EQ(results[0].coloring_rounds, results[i].coloring_rounds);
    EXPECT_EQ(results[0].correction_rounds, results[i].correction_rounds);
    EXPECT_EQ(results[0].palette_violations, results[i].palette_violations);
    EXPECT_EQ(results[0].recolored_vertices, results[i].recolored_vertices);
    EXPECT_EQ(telemetry[0], telemetry[i])
        << "telemetry diverged at " << kThreadCounts[i] << " threads";
  }
  EXPECT_TRUE(testing::is_proper_coloring(g, results[0].colors));
}

TEST(ParallelDeterminism, MisIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  Graph g = determinism_workload();
  std::vector<core::MisResult> results;
  std::vector<std::string> telemetry;
  for (int threads : kThreadCounts) {
    support::set_num_threads(threads);
    obs::Registry reg;
    {
      obs::ScopedRegistry scope(reg);
      results.push_back(core::mis_chordal(g));
    }
    telemetry.push_back(scrub_wall(reg.to_json()));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].chosen, results[i].chosen);
    EXPECT_EQ(results[0].rounds, results[i].rounds);
    EXPECT_EQ(results[0].absorbing_components, results[i].absorbing_components);
    EXPECT_EQ(results[0].approx_components, results[i].approx_components);
    EXPECT_EQ(telemetry[0], telemetry[i])
        << "telemetry diverged at " << kThreadCounts[i] << " threads";
  }
  EXPECT_TRUE(testing::is_independent_set(g, results[0].chosen));
}

TEST(ParallelDeterminism, PerNodePruningLedgerIdentical) {
  // PruningMode::kPerNodeLocalViews drives one BallWorkspace per worker;
  // the reported round totals come from the driver's per-node round clocks
  // and must not depend on the thread count.
  ThreadRestorer restore;
  RandomChordalConfig config;
  config.n = 160;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 5;
  Graph g = random_chordal(config);
  core::MvcOptions options;
  options.pruning = core::PruningMode::kPerNodeLocalViews;
  std::vector<core::MvcResult> results;
  for (int threads : kThreadCounts) {
    support::set_num_threads(threads);
    results.push_back(core::mvc_chordal(g, options));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].colors, results[i].colors);
    EXPECT_EQ(results[0].rounds, results[i].rounds);
    EXPECT_EQ(results[0].pruning_rounds, results[i].pruning_rounds);
    EXPECT_EQ(results[0].num_layers, results[i].num_layers);
  }
}

TEST(ParallelDeterminism, LocalDecisionAuditsIdentical) {
  ThreadRestorer restore;
  RandomChordalConfig config;
  config.n = 200;
  config.max_clique = 4;
  config.chain_bias = 0.9;
  config.seed = 13;
  Graph g = random_chordal(config);
  CliqueForest forest = CliqueForest::build(g);
  const int k = 4;
  core::PeelConfig peel_config;
  peel_config.mode = core::PeelMode::kColoring;
  peel_config.k = k;
  core::PeelingResult peeling = core::peel(g, forest, peel_config);
  std::vector<core::LocalDecisionAudit> audits;
  for (int threads : kThreadCounts) {
    support::set_num_threads(threads);
    audits.push_back(core::audit_local_pruning(g, peeling, k, 2));
  }
  for (std::size_t i = 1; i < audits.size(); ++i) {
    EXPECT_EQ(audits[0].decisions_checked, audits[i].decisions_checked);
    EXPECT_EQ(audits[0].mismatches, audits[i].mismatches);
    EXPECT_EQ(audits[0].horizon_hits, audits[i].horizon_hits);
  }
  EXPECT_EQ(audits[0].mismatches, 0);
}

TEST(ParallelDeterminism, PeelLayersIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  Graph g = determinism_workload();
  CliqueForest forest = CliqueForest::build(g);
  core::PeelConfig config;
  config.mode = core::PeelMode::kColoring;
  config.k = 4;
  std::vector<core::PeelingResult> peels;
  for (int threads : kThreadCounts) {
    support::set_num_threads(threads);
    peels.push_back(core::peel(g, forest, config));
  }
  for (std::size_t i = 1; i < peels.size(); ++i) {
    EXPECT_EQ(peels[0].layer_of, peels[i].layer_of);
    EXPECT_EQ(peels[0].num_layers, peels[i].num_layers);
    EXPECT_EQ(peels[0].high_degree_counts, peels[i].high_degree_counts);
  }
}

// The pool is process-wide, so two threads may call parallel_for at once.
// Each call must still hit every one of its own indices exactly once:
// concurrent callers serialize on the pool rather than overwriting each
// other's published job.
TEST(ParallelDeterminism, ConcurrentCallersEachHitEveryIndexOnce) {
  ThreadRestorer restore;
  support::set_num_threads(4);
  constexpr std::size_t kIndices = 4096;
  constexpr int kCalls = 2000;
  auto caller = [](int& bad_calls) {
    std::vector<std::atomic<int>> hits(kIndices);
    for (int call = 0; call < kCalls; ++call) {
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      support::parallel_for(kIndices, [&hits](std::size_t i, std::size_t) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (const auto& h : hits) {
        if (h.load(std::memory_order_relaxed) != 1) {
          ++bad_calls;
          break;
        }
      }
    }
  };
  int bad_a = 0, bad_b = 0;
  std::thread a(caller, std::ref(bad_a));
  std::thread b(caller, std::ref(bad_b));
  a.join();
  b.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

}  // namespace
}  // namespace chordal
