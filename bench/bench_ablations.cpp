// Ablations for the design choices called out in DESIGN.md section 4:
//  (a) layer-coloring mode - Algorithm 1's distributed-feasible ColIntGraph
//      versus the centralized optimal shortcut (how much of the color
//      budget the subroutine actually costs);
//  (b) workload shape - the incremental generator's chain bias controls how
//      path-like the clique forest is, driving layer counts and rounds;
//  (c) correction pressure - how many vertices the color-correction phase
//      actually recolors as eps shrinks.
#include "bench_common.hpp"
#include "core/mvc.hpp"
#include "local/workspace.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv,
                     "Ablations: layer coloring mode, workload shape, "
                     "correction",
                     "design-choice sensitivity (no direct paper claim)");

  std::printf("(a) layer coloring mode at eps = 0.5:\n\n");
  Table mode_table({"n", "chi", "colors ColIntGraph", "colors optimal-layers",
                    "rounds ColIntGraph", "rounds optimal-layers"});
  for (int n : {1024, 8192}) {
    auto gen = bench::chordal_workload(n, TreeShape::kRandom, 77);
    auto dist = core::mvc_chordal(gen.graph,
                                  {.eps = 0.5,
                                   .layer_coloring =
                                       core::LayerColoringMode::kColIntGraph,
                                   .net = ctx.net()});
    auto opt = core::mvc_chordal(gen.graph,
                                 {.eps = 0.5,
                                  .layer_coloring =
                                      core::LayerColoringMode::kOptimal,
                                  .net = ctx.net()});
    mode_table.add_row({Table::fmt(gen.graph.num_vertices()),
                        Table::fmt(dist.omega), Table::fmt(dist.num_colors),
                        Table::fmt(opt.num_colors), Table::fmt(dist.rounds),
                        Table::fmt(opt.rounds)});
  }
  mode_table.print();
  ctx.add_table("layer_coloring_mode", mode_table);

  std::printf("\n(b) chain bias of the incremental generator (n = 4000, "
              "eps = 0.5):\n\n");
  Table bias_table({"chain bias", "layers", "rounds", "colors", "chi"});
  for (double bias : {0.0, 0.5, 0.9, 0.99}) {
    RandomChordalConfig config;
    config.n = 4000;
    config.max_clique = 6;
    config.chain_bias = bias;
    config.seed = 31;
    Graph g = random_chordal(config);
    auto result = core::mvc_chordal(g, {.eps = 0.5, .net = ctx.net()});
    bias_table.add_row({Table::fmt(bias, 2), Table::fmt(result.num_layers),
                        Table::fmt(result.rounds),
                        Table::fmt(result.num_colors),
                        Table::fmt(result.omega)});
  }
  bias_table.print();
  ctx.add_table("chain_bias", bias_table);

  std::printf("\n(c) correction pressure vs eps (caterpillar, n ~ 4000):\n\n");
  Table corr_table({"eps", "k", "recolored vertices", "correction rounds",
                    "colors"});
  auto gen = bench::chordal_workload(4000, TreeShape::kCaterpillar, 41);
  for (double eps : {1.0, 0.5, 0.25, 0.125}) {
    auto result = core::mvc_chordal(gen.graph, {.eps = eps, .net = ctx.net()});
    corr_table.add_row({Table::fmt(eps, 3), Table::fmt(result.k),
                        Table::fmt(result.recolored_vertices),
                        Table::fmt(result.correction_rounds),
                        Table::fmt(result.num_colors)});
  }
  corr_table.print();
  ctx.add_table("correction_pressure", corr_table);

  std::printf("\n(d) LOCAL's hidden cost: the Gamma^{10k} balls the pruning "
              "phase collects (eps = 0.5 => radius 40):\n\n");
  Table ball_table({"n", "radius", "mean |ball|", "max |ball|",
                    "max/graph"});
  for (int n : {1024, 4096, 16384}) {
    auto gen2 = bench::chordal_workload(n, TreeShape::kRandom, 53);
    for (int radius : {2, 5, 10, 40}) {
      StatAccumulator acc;
      local::BallWorkspace ws;
      local::Ball ball;
      for (int v = 0; v < gen2.graph.num_vertices();
           v += std::max(1, gen2.graph.num_vertices() / 200)) {
        local::collect_ball(gen2.graph, v, radius, nullptr, ws, ball,
                            ctx.net());
        acc.add(static_cast<double>(ball.vertices.size()));
      }
      ball_table.add_row(
          {Table::fmt(gen2.graph.num_vertices()), Table::fmt(radius),
           Table::fmt(acc.mean(), 1), Table::fmt(acc.max(), 0),
           Table::fmt(acc.max() / gen2.graph.num_vertices(), 3)});
    }
  }
  ball_table.print();
  ctx.add_table("ball_volumes", ball_table);
  std::printf("\nLOCAL charges d rounds for a distance-d ball regardless of "
              "volume; the table shows what a bandwidth-limited (CONGEST) "
              "implementation would actually have to ship.\n");
  return 0;
}
