// Experiment E18 - CONGEST round blow-up: the same algorithms, executed
// under the bounded-bandwidth model (B words per edge per round, payloads
// fragmented by local/network.cpp and the drivers' transfer clocks), must
// produce bit-identical outputs to LOCAL while their round counts grow by
// the fragmentation factor. We measure the blow-up for the flooded ball
// collection (a real-Network workload where every word crosses an edge) and
// for the MVC / MIS pipelines at B in {4, 16} plus the canonical auto
// B = ceil(log2 n).
//
// Emitted gauges (with --json), enforced by scripts/bench_gate.py:
//   congest.<cell>.local_rounds / .rounds / .blowup   blow-up >= 1.0
//   congest.<cell>.parity_ok                          must be 1.0
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "local/bandwidth.hpp"
#include "local/flood.hpp"

namespace {

using namespace chordal;

void add_gauge(const std::string& name, double value) {
  if (obs::Registry* reg = obs::current()) reg->gauge(name).set(value);
}

/// One blow-up cell: publishes the gauge quartet and aborts the run on a
/// parity violation (a CONGEST execution that changed algorithm output is a
/// model bug, not a data point).
void record_cell(const std::string& cell, std::int64_t local_rounds,
                 std::int64_t congest_rounds, bool parity) {
  double blowup = static_cast<double>(congest_rounds) /
                  static_cast<double>(std::max<std::int64_t>(local_rounds, 1));
  add_gauge("congest." + cell + ".local_rounds",
            static_cast<double>(local_rounds));
  add_gauge("congest." + cell + ".rounds",
            static_cast<double>(congest_rounds));
  add_gauge("congest." + cell + ".blowup", blowup);
  add_gauge("congest." + cell + ".parity_ok", parity ? 1.0 : 0.0);
  if (!parity) {
    std::fprintf(stderr,
                 "FATAL: CONGEST output diverged from LOCAL in cell %s\n",
                 cell.c_str());
    std::exit(1);
  }
}

std::string b_label(std::int64_t b) {
  return b == 0 ? std::string("auto") : std::to_string(b);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Context ctx(argc, argv, "E18: CONGEST round blow-up",
                     "Bounded bandwidth (B words/edge/round) preserves every "
                     "output bit and pays only a fragmentation-factor round "
                     "blow-up");
  // This binary sweeps both models itself, passing each cell its own
  // BandwidthConfig; --model (meant for the E1-E17 tables) does not apply.

  const std::int64_t kCapacities[] = {4, 16, 0};  // 0 = auto ceil(log2 n)

  // -------------------------------------------------------------------------
  // Flooded ball collection: every modeled word crosses a real Network edge,
  // so this is the direct measurement of the fragmentation blow-up (and the
  // executable cross-check that modeled words == transmitted words).
  // -------------------------------------------------------------------------
  std::printf("Radius-2 ball collection by edge flooding (real Network):\n\n");
  Table flood_table({"n", "m", "B", "local rounds", "congest rounds",
                     "blow-up", "payload words", "wire fragments"});
  for (int n : {256, 1024, 4096}) {
    auto gen = bench::chordal_workload(n, TreeShape::kBinary, 7);
    const Graph& g = gen.graph;
    obs::Span run("flood n=" + std::to_string(g.num_vertices()));
    auto base = local::flood_balls(g, 2, local::BandwidthConfig{});
    bool model_ok = base.modeled_words == base.stats.total_payload_words;
    for (std::int64_t b : kCapacities) {
      auto frag = local::flood_balls(g, 2, local::congest(b));
      bool parity = model_ok && frag.known == base.known &&
                    frag.stats.total_payload_words ==
                        base.stats.total_payload_words;
      double blowup = static_cast<double>(frag.rounds) /
                      static_cast<double>(std::max<std::int64_t>(base.rounds, 1));
      flood_table.add_row(
          {Table::fmt(g.num_vertices()), Table::fmt(g.num_edges()),
           b_label(b), Table::fmt(base.rounds), Table::fmt(frag.rounds),
           Table::fmt(blowup, 1), Table::fmt(frag.stats.total_payload_words),
           Table::fmt(frag.stats.total_fragments)});
      record_cell("flood.n" + std::to_string(g.num_vertices()) + ".b" +
                      b_label(b),
                  base.rounds, frag.rounds, parity);
    }
  }
  flood_table.print();
  ctx.add_table("flood_blowup", flood_table);

  // -------------------------------------------------------------------------
  // MVC / MIS pipelines: the drivers' round clocks pay ceil(words / B)
  // transfer rounds for every modeled multi-word shipment (interval models,
  // correction windows, component broadcasts, ball drains).
  // -------------------------------------------------------------------------
  std::printf("\nMVC pipeline (eps = 0.5):\n\n");
  Table mvc_table({"n", "B", "local rounds", "congest rounds", "blow-up",
                   "colors"});
  for (int n : {256, 1024, 4096}) {
    auto gen = bench::chordal_workload(n, TreeShape::kBinary, 7);
    const Graph& g = gen.graph;
    obs::Span run("mvc n=" + std::to_string(g.num_vertices()));
    auto base = core::mvc_chordal(g, {.eps = 0.5});
    for (std::int64_t b : kCapacities) {
      auto frag =
          core::mvc_chordal(g, {.eps = 0.5, .net = local::congest(b)});
      bool parity = frag.colors == base.colors &&
                    frag.num_colors == base.num_colors &&
                    frag.num_layers == base.num_layers &&
                    frag.rounds >= base.rounds;
      double blowup = static_cast<double>(frag.rounds) /
                      static_cast<double>(std::max<std::int64_t>(base.rounds, 1));
      mvc_table.add_row({Table::fmt(g.num_vertices()), b_label(b),
                         Table::fmt(base.rounds), Table::fmt(frag.rounds),
                         Table::fmt(blowup, 1), Table::fmt(frag.num_colors)});
      record_cell("mvc.n" + std::to_string(g.num_vertices()) + ".b" +
                      b_label(b),
                  base.rounds, frag.rounds, parity);
    }
  }
  mvc_table.print();
  ctx.add_table("mvc_blowup", mvc_table);

  std::printf("\nMIS pipeline (eps = 0.25):\n\n");
  Table mis_table({"n", "B", "local rounds", "congest rounds", "blow-up",
                   "|MIS|"});
  for (int n : {256, 1024, 4096}) {
    auto gen = bench::chordal_workload(n, TreeShape::kBinary, 7);
    const Graph& g = gen.graph;
    obs::Span run("mis n=" + std::to_string(g.num_vertices()));
    auto base = core::mis_chordal(g, {.eps = 0.25});
    for (std::int64_t b : kCapacities) {
      auto frag =
          core::mis_chordal(g, {.eps = 0.25, .net = local::congest(b)});
      bool parity = frag.chosen == base.chosen && frag.rounds >= base.rounds;
      double blowup = static_cast<double>(frag.rounds) /
                      static_cast<double>(std::max<std::int64_t>(base.rounds, 1));
      mis_table.add_row(
          {Table::fmt(g.num_vertices()), b_label(b), Table::fmt(base.rounds),
           Table::fmt(frag.rounds), Table::fmt(blowup, 1),
           Table::fmt(static_cast<int>(frag.chosen.size()))});
      record_cell("mis.n" + std::to_string(g.num_vertices()) + ".b" +
                      b_label(b),
                  base.rounds, frag.rounds, parity);
    }
  }
  mis_table.print();
  ctx.add_table("mis_blowup", mis_table);

  std::printf(
      "\nEvery CONGEST cell reproduced its LOCAL outputs bit-identically; "
      "the blow-up above is pure fragmentation cost.\n");
  return 0;
}
