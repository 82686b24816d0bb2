// Scenario: exploring the clique forest and a node's local view (Section 3).
//
// Reproduces the paper's Figures 2-4 on the Figure 1 graph: prints the
// maximal cliques, the deterministic clique forest, and the coherent local
// view node 10 obtains from its distance-3 ball.
#include <cstdio>

#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "cliqueforest/paths.hpp"
#include "graph/graph.hpp"
#include "local/workspace.hpp"

namespace {

chordal::Graph figure1() {
  const std::vector<std::vector<int>> cliques = {
      {1, 2, 3},    {2, 3, 4},    {4, 5, 6},    {5, 6, 7},    {2, 4, 8},
      {8, 9, 10},   {9, 10, 11},  {11, 12, 13}, {12, 13, 14}, {14, 15, 16},
      {15, 16, 19}, {16, 17, 18}, {19, 20, 21}, {21, 22},     {21, 23}};
  chordal::GraphBuilder b(23);
  for (const auto& clique : cliques) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        b.add_edge(clique[i] - 1, clique[j] - 1);
      }
    }
  }
  return b.build();
}

void print_clique(chordal::CliqueWord clique) {
  std::printf("{");
  for (std::size_t i = 0; i < clique.size(); ++i) {
    // paper is 1-indexed
    std::printf("%s%d", i ? "," : "", static_cast<int>(clique[i]) + 1);
  }
  std::printf("}");
}

}  // namespace

int main() {
  using namespace chordal;
  Graph g = figure1();
  CliqueForest forest = CliqueForest::build(g);

  std::printf("Maximal cliques (Figure 2 vertices):\n");
  for (int c = 0; c < forest.num_cliques(); ++c) {
    std::printf("  C%-2d = ", c);
    print_clique(forest.clique(c));
    std::printf("\n");
  }

  std::printf("\nClique forest edges (the unique tie-broken MWSF):\n");
  for (auto [a, b] : forest.forest_edges()) {
    std::printf("  ");
    print_clique(forest.clique(a));
    std::printf(" -- ");
    print_clique(forest.clique(b));
    std::printf("\n");
  }

  std::printf("\nMaximal binary paths of the forest:\n");
  std::vector<char> active(static_cast<std::size_t>(forest.num_cliques()), 1);
  PathScratch scratch;
  for (const auto& path : maximal_binary_paths(forest, active)) {
    // G[V_P] is the interval graph of the path's clique positions (Lemma 7).
    interval_model(forest.cliques(), path.cliques, scratch, scratch.rep);
    std::printf("  %s path of %zu cliques, diameter %d, alpha %d\n",
                path.pendant ? "pendant " : "internal",
                path.cliques.size(), interval_diameter(scratch.rep, scratch),
                interval_alpha(scratch.rep, scratch));
  }

  std::printf("\nLocal view of node 10 from its distance-3 ball "
              "(Figures 3-4):\n");
  local::BallWorkspace ws;
  LocalView view;
  local::compute_local_view(g, /*observer=*/9, /*radius=*/3, nullptr, ws,
                            view);
  std::printf("  sees %zu maximal cliques, %zu forest edges, trusts %zu "
              "vertices\n",
              view.cliques.size(), view.forest_edges.size(),
              view.trusted_vertices.size());
  for (auto [a, b] : view.forest_edges) {
    std::printf("  ");
    print_clique(view.cliques[a]);
    std::printf(" -- ");
    print_clique(view.cliques[b]);
    std::printf("\n");
  }
  std::printf("\nEvery edge above is an edge of the global forest (Lemma 2):"
              " nodes obtain coherent local views.\n");
  return 0;
}
