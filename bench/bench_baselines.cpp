// Experiment E9 - comparison against classic baselines: colors used by the
// paper's MVC vs. optimal chi vs. distributed (Delta+1) greedy, and MIS
// size vs. exact alpha vs. Luby's maximal independent set.
#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "local/luby.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv, "E9: baselines comparison",
                     "the (1+eps) algorithms beat (Delta+1)/maximal "
                     "baselines on quality while staying polylog-local");

  Table coloring({"n", "Delta", "chi", "ours eps=.5", "ours eps=.25",
                  "(Delta+1) greedy", "greedy rounds", "our rounds(.25)"});
  for (int n : {1024, 4096, 16384}) {
    obs::Span run("coloring n=" + std::to_string(n));
    auto gen = bench::chordal_workload(n, TreeShape::kRandom, 23);
    const Graph& g = gen.graph;
    auto ours_05 = core::mvc_chordal(g, {.eps = 0.5, .net = ctx.net()});
    auto ours_025 = core::mvc_chordal(g, {.eps = 0.25, .net = ctx.net()});
    auto greedy = baselines::dplus1_coloring(g, 9, ctx.net());
    coloring.add_row(
        {Table::fmt(g.num_vertices()), Table::fmt(g.max_degree()),
         Table::fmt(ours_05.omega), Table::fmt(ours_05.num_colors),
         Table::fmt(ours_025.num_colors), Table::fmt(greedy.num_colors),
         Table::fmt(greedy.rounds), Table::fmt(ours_025.rounds)});
  }
  std::printf("Coloring (colors used; lower is better):\n\n");
  coloring.print();
  ctx.add_table("coloring", coloring);

  Table mis({"n", "alpha", "ours eps=.2", "Luby (maximal)", "Luby rounds",
             "our rounds"});
  for (int n : {1024, 4096, 16384}) {
    obs::Span run("mis n=" + std::to_string(n));
    auto gen = bench::chordal_workload(n, TreeShape::kRandom, 29);
    const Graph& g = gen.graph;
    auto ours = core::mis_chordal(g, {.eps = 0.2, .net = ctx.net()});
    auto luby = local::luby_mis(g, 5, ctx.net());
    mis.add_row({Table::fmt(g.num_vertices()),
                 Table::fmt(baselines::independence_number_chordal(g)),
                 Table::fmt((long long)ours.chosen.size()),
                 Table::fmt((long long)luby.independent_set.size()),
                 Table::fmt(luby.rounds), Table::fmt(ours.rounds)});
  }
  std::printf("\nIndependent sets (size; higher is better):\n\n");
  mis.print();
  ctx.add_table("mis", mis);
  return 0;
}
