// Experiment E10 - substrate micro-benchmarks (google-benchmark): the
// building blocks every algorithm leans on. Wall-clock results document
// that the simulation substrate scales near-linearly.
#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/baselines.hpp"
#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/cliques.hpp"
#include "graph/generators.hpp"
#include "graph/peo.hpp"
#include "local/workspace.hpp"
#include "support/parallel.hpp"

namespace {

using namespace chordal;

GeneratedChordal workload(int bags) {
  CliqueTreeConfig config;
  config.num_bags = bags;
  config.shape = TreeShape::kRandom;
  config.seed = 12345;
  return random_chordal_from_clique_tree(config);
}

void BM_LexBfsPeo(benchmark::State& state) {
  auto gen = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(peo_or_throw(gen.graph));
  }
  state.SetComplexityN(gen.graph.num_vertices());
}
BENCHMARK(BM_LexBfsPeo)->Range(256, 16384)->Complexity();

void BM_MaximalCliques(benchmark::State& state) {
  auto gen = workload(static_cast<int>(state.range(0)));
  auto peo = peo_or_throw(gen.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(maximal_cliques_chordal(gen.graph, peo));
  }
  state.SetComplexityN(gen.graph.num_vertices());
}
BENCHMARK(BM_MaximalCliques)->Range(256, 16384)->Complexity();

void BM_CliqueForestBuild(benchmark::State& state) {
  auto gen = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CliqueForest::build(gen.graph));
  }
  state.SetComplexityN(gen.graph.num_vertices());
}
BENCHMARK(BM_CliqueForestBuild)->Range(256, 16384)->Complexity();

void BM_CliqueForestBuildReference(benchmark::State& state) {
  // The reference oracle on the same clique family: sorted-merge
  // intersection weights, comparator-based edge sort. The gap to
  // BM_CliqueForestBuild is the counting-sort engine's construction win.
  auto gen = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_spanning_forest_oracle(
        maximal_cliques_chordal_family(gen.graph),
        gen.graph.num_vertices()));
  }
  state.SetComplexityN(gen.graph.num_vertices());
}
BENCHMARK(BM_CliqueForestBuildReference)->Range(256, 16384)->Complexity();

void BM_FamilyMwsf(benchmark::State& state) {
  // The engine's hottest call shape: one Lemma 2 family forest per trusted
  // vertex, through a warm ForestScratch - no allocations, no O(n) state.
  auto gen = workload(2048);
  CliqueForest forest = CliqueForest::build(gen.graph);
  ForestScratch scratch;
  std::vector<std::pair<int, int>> edges;
  int v = 0;
  for (auto _ : state) {
    edges.clear();
    family_forest_edges(forest.cliques(), forest.cliques_of(v), scratch,
                        edges);
    benchmark::DoNotOptimize(edges.data());
    v = (v + 37) % gen.graph.num_vertices();
  }
}
BENCHMARK(BM_FamilyMwsf);

void BM_FamilyMwsfReference(benchmark::State& state) {
  // What compute_local_view used to do per trusted vertex: deep-copy the
  // family cliques, then run the allocating reference Kruskal whose
  // membership table is sized to the whole graph. The ratio to
  // BM_FamilyMwsf is the per-call improvement of the engine.
  auto gen = workload(2048);
  CliqueForest forest = CliqueForest::build(gen.graph);
  int v = 0;
  for (auto _ : state) {
    const auto& family = forest.cliques_of(v);
    std::vector<std::vector<int>> family_cliques;
    family_cliques.reserve(family.size());
    for (int c : family) family_cliques.push_back(word_vec(forest.clique(c)));
    benchmark::DoNotOptimize(max_weight_spanning_forest_oracle(
        family_cliques, gen.graph.num_vertices()));
    v = (v + 37) % gen.graph.num_vertices();
  }
}
BENCHMARK(BM_FamilyMwsfReference);

void BM_BallCollectionWorkspace(benchmark::State& state) {
  // Ball collection through one warm workspace: zero O(n) clears and zero
  // steady-state allocations.
  auto gen = workload(2048);
  local::BallWorkspace ws;
  local::Ball ball;
  int v = 0;
  for (auto _ : state) {
    local::collect_ball(gen.graph, v, static_cast<int>(state.range(0)),
                        nullptr, ws, ball);
    benchmark::DoNotOptimize(ball.vertices.data());
    v = (v + 37) % gen.graph.num_vertices();
  }
}
BENCHMARK(BM_BallCollectionWorkspace)->DenseRange(2, 14, 4);

void BM_LocalViewWorkspace(benchmark::State& state) {
  auto gen = workload(1024);
  local::BallWorkspace ws;
  LocalView view;
  int v = 0;
  for (auto _ : state) {
    local::compute_local_view(gen.graph, v, 6, nullptr, ws, view);
    benchmark::DoNotOptimize(view.cliques.vertices().data());
    v = (v + 41) % gen.graph.num_vertices();
  }
}
BENCHMARK(BM_LocalViewWorkspace);

void BM_MvcEndToEnd(benchmark::State& state) {
  auto gen = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mvc_chordal(gen.graph, {.eps = 0.5}));
  }
  state.SetComplexityN(gen.graph.num_vertices());
}
BENCHMARK(BM_MvcEndToEnd)->Range(256, 8192)->Complexity();

void BM_MvcEndToEndThreads(benchmark::State& state) {
  // Thread sweep of the parallel engine (arg = worker count). Output is
  // bit-identical at every point of the sweep; only wall clock may move.
  auto gen = workload(8192);
  support::set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mvc_chordal(gen.graph, {.eps = 0.5}));
  }
  support::set_num_threads(0);
}
BENCHMARK(BM_MvcEndToEndThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MisEndToEndThreads(benchmark::State& state) {
  auto gen = workload(8192);
  support::set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mis_chordal(gen.graph));
  }
  support::set_num_threads(0);
}
BENCHMARK(BM_MisEndToEndThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_OptimalColoringBaseline(benchmark::State& state) {
  auto gen = workload(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::optimal_coloring_chordal(gen.graph));
  }
}
BENCHMARK(BM_OptimalColoringBaseline)->Range(256, 8192);

}  // namespace

BENCHMARK_MAIN();
