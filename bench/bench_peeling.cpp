// Experiment E3 - Lemma 6 (Pruning Lemma): the peeling process finishes in
// at most ceil(log2 n) iterations because the number of forest vertices of
// degree >= 3 at least halves per iteration.
//
// Section 2 drives the iteration-looping pruning drivers (Algorithm 3 /
// Lemma 12): peel_with_local_decisions and the local-decision audits, which
// re-derive every node's layer decision from its ball at every iteration.
// Each driver runs inside its own span, so the --json report carries
// per-driver wall_ms.
#include <cmath>

#include "bench_common.hpp"
#include "core/local_decision.hpp"
#include "core/peeling.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv,
                     "E3: peeling layer counts and the halving invariant",
                     "Lemma 6 / Corollary 1 - <= ceil(log2 n) layers; "
                     "degree->=3 counts halve each iteration");

  Table table({"shape", "n", "cliques", "layers", "ceil(log2 n)",
               "halving held", "deg>=3 trace"});
  for (TreeShape shape : {TreeShape::kPath, TreeShape::kCaterpillar,
                          TreeShape::kRandom, TreeShape::kBinary,
                          TreeShape::kSpider}) {
    const char* names[] = {"path", "caterpillar", "random", "binary",
                           "spider"};
    for (int n : {1024, 8192, 65536}) {
      obs::Span run(std::string("peel ") + names[static_cast<int>(shape)] +
                    " n=" + std::to_string(n));
      auto gen = bench::chordal_workload(n, shape, 13);
      CliqueForest forest = CliqueForest::build(gen.graph);
      core::PeelConfig config;
      config.mode = core::PeelMode::kColoring;
      config.k = 4;
      auto result = core::peel(gen.graph, forest, config);
      bool halves = true;
      std::string trace;
      for (std::size_t i = 0; i < result.high_degree_counts.size(); ++i) {
        if (i > 0) {
          halves = halves && result.high_degree_counts[i] <=
                                 result.high_degree_counts[i - 1] / 2;
          trace += ",";
        }
        trace += Table::fmt(result.high_degree_counts[i]);
      }
      table.add_row(
          {names[static_cast<int>(shape)],
           Table::fmt(gen.graph.num_vertices()),
           Table::fmt(forest.num_cliques()), Table::fmt(result.num_layers),
           Table::fmt(static_cast<int>(
               std::ceil(std::log2(gen.graph.num_vertices())))),
           halves ? "yes" : "NO", trace});
    }
  }
  table.print();
  ctx.add_table("halving", table);

  std::printf("\n");
  Table drivers({"driver", "n", "k", "layers", "decisions", "mismatches"});
  for (int n : {1500, 4000}) {
    auto gen = bench::chordal_workload(n, TreeShape::kRandom, 21);
    const Graph& g = gen.graph;
    CliqueForest forest = CliqueForest::build(g);
    const int k = 4;
    {
      obs::Span span("peel_with_local_decisions n=" +
                     std::to_string(g.num_vertices()));
      auto local_peel = core::peel_with_local_decisions(g, forest, k);
      drivers.add_row({"peel_with_local_decisions",
                       Table::fmt(g.num_vertices()), Table::fmt(k),
                       Table::fmt(local_peel.num_layers), "-", "-"});
    }
    core::PeelConfig config;
    config.mode = core::PeelMode::kColoring;
    config.k = k;
    auto peeling = core::peel(g, forest, config);
    {
      obs::Span span("audit_local_pruning n=" +
                     std::to_string(g.num_vertices()));
      auto audit = core::audit_local_pruning(g, peeling, k, 1);
      drivers.add_row({"audit_local_pruning", Table::fmt(g.num_vertices()),
                       Table::fmt(k), Table::fmt(peeling.num_layers),
                       Table::fmt(audit.decisions_checked),
                       Table::fmt(audit.mismatches)});
    }
  }
  drivers.print();
  ctx.add_table("pruning_drivers", drivers);
  std::printf("\nmismatches must be 0: node-local decisions equal the "
              "global peeling (Lemma 12).\n");
  return 0;
}
