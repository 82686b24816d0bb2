// Experiment E1 - Theorem 4 (approximation): the distributed MVC algorithm
// is a (1+eps)-approximation on chordal graphs.
#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "core/mvc.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv, "E1: MVC approximation factor vs eps and n",
                     "Theorem 4 - colors <= (1+eps) * chi for eps >= 2/chi "
                     "(via <= floor((1+1/k) chi) + 1, k = ceil(2/eps))");

  Table table({"shape", "n", "eps", "chi", "colors", "bound", "ratio",
               "ok"});
  for (TreeShape shape : {TreeShape::kRandom, TreeShape::kCaterpillar,
                          TreeShape::kBinary}) {
    const char* shape_name = shape == TreeShape::kRandom ? "random"
                             : shape == TreeShape::kCaterpillar
                                 ? "caterpillar"
                                 : "binary";
    for (int n : {256, 1024, 4096, 16384}) {
      for (double eps : {1.0, 0.5, 0.25, 0.125}) {
        obs::Span run(std::string("run ") + shape_name +
                      " n=" + std::to_string(n));
        auto gen = bench::chordal_workload(n, shape, 42 + n);
        auto result =
            core::mvc_chordal(gen.graph, {.eps = eps, .net = ctx.net()});
        int chi = result.omega;
        int bound = chi + chi / result.k + 1;
        bool ok = result.num_colors <= bound &&
                  result.palette_violations == 0;
        table.add_row({shape_name, Table::fmt(gen.graph.num_vertices()),
                       Table::fmt(eps, 3), Table::fmt(chi),
                       Table::fmt(result.num_colors), Table::fmt(bound),
                       Table::fmt(static_cast<double>(result.num_colors) /
                                      chi,
                                  3),
                       ok ? "yes" : "NO"});
      }
    }
  }
  table.print();
  ctx.add_table("approximation", table);
  return 0;
}
