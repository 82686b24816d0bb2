// Experiment E2 - Theorem 4 (round complexity): the distributed MVC
// algorithm runs in O((1/eps) log n) rounds. We sweep n at fixed eps (rounds
// should grow ~ log n) and 1/eps at fixed n (rounds should grow linearly),
// reporting the normalized ratio rounds / (k * log2 n), which should remain
// roughly constant.
#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "core/mvc.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv, "E2: MVC round complexity",
                     "Theorem 4 - O((1/eps) log n) rounds; Lemma 6 - at most "
                     "ceil(log2 n) peel layers");

  Table by_n({"n", "eps", "k", "layers", "ceil(log2 n)", "rounds",
              "rounds/(k*log2 n)"});
  for (int n : {256, 1024, 4096, 16384, 65536}) {
    obs::Span run("run n=" + std::to_string(n) + " eps=0.5");
    auto gen = bench::chordal_workload(n, TreeShape::kBinary, 7);
    auto result = core::mvc_chordal(gen.graph, {.eps = 0.5, .net = ctx.net()});
    double log_n = std::log2(static_cast<double>(gen.graph.num_vertices()));
    by_n.add_row({Table::fmt(gen.graph.num_vertices()), Table::fmt(0.5, 2),
                  Table::fmt(result.k), Table::fmt(result.num_layers),
                  Table::fmt(static_cast<int>(std::ceil(log_n))),
                  Table::fmt(result.rounds),
                  Table::fmt(static_cast<double>(result.rounds) /
                                 (result.k * log_n),
                             2)});
  }
  by_n.print();
  ctx.add_table("rounds_by_n", by_n);

  std::printf("\nFixed n, growing 1/eps (rounds should scale ~ 1/eps):\n\n");
  Table by_eps({"n", "eps", "k", "rounds", "rounds/k"});
  for (double eps : {2.0, 1.0, 0.5, 0.25, 0.125, 0.0625}) {
    obs::Span run("run n=4096 eps=" + std::to_string(eps));
    auto gen = bench::chordal_workload(4096, TreeShape::kBinary, 7);
    auto result = core::mvc_chordal(gen.graph, {.eps = eps, .net = ctx.net()});
    by_eps.add_row({Table::fmt(gen.graph.num_vertices()),
                    Table::fmt(eps, 4), Table::fmt(result.k),
                    Table::fmt(result.rounds),
                    Table::fmt(static_cast<double>(result.rounds) / result.k,
                               1)});
  }
  by_eps.print();
  ctx.add_table("rounds_by_eps", by_eps);
  return 0;
}
