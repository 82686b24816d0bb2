// Experiment E8 - Section 3 / Lemma 2: nodes obtain coherent local views of
// the global clique forest from O(k)-balls. We check, across workloads and
// radii, that every locally derived forest edge is a global forest edge and
// that every trusted vertex reconstructs its full subtree T(v).
#include <algorithm>
#include <map>

#include "bench_common.hpp"
#include "cliqueforest/forest.hpp"
#include "cliqueforest/local_view.hpp"
#include "local/workspace.hpp"

int main(int argc, char** argv) {
  using namespace chordal;
  bench::Context ctx(argc, argv, "E8: coherence of local clique-forest views",
                     "Lemma 2 - the MWSF of W[phi(v)] computed from a ball "
                     "equals the global subtree T(v)");

  Table table({"shape", "n", "radius", "observers", "edges checked",
               "subtrees checked", "violations"});
  for (TreeShape shape : {TreeShape::kRandom, TreeShape::kCaterpillar,
                          TreeShape::kSpider}) {
    const char* names[] = {"path", "caterpillar", "random", "binary",
                           "spider"};
    // One workload per shape; every view is rebuilt from scratch through
    // one reused workspace.
    auto gen = bench::chordal_workload(600, shape, 5);
    const Graph& g = gen.graph;
    CliqueForest global = CliqueForest::build(g);
    std::map<std::pair<std::vector<int>, std::vector<int>>, char> edges;
    for (auto [a, b] : global.forest_edges()) {
      std::vector<int> ca = word_vec(global.clique(a));
      std::vector<int> cb = word_vec(global.clique(b));
      auto key = std::minmax(ca, cb);
      edges[{key.first, key.second}] = 1;
    }
    local::BallWorkspace ws;
    LocalView view;
    for (int radius : {2, 4, 8}) {
      obs::Span span(std::string("views ") + names[static_cast<int>(shape)] +
                     " radius=" + std::to_string(radius));
      long long checked_edges = 0, checked_subtrees = 0, violations = 0;
      int observers = 0;
      for (int v = 0; v < g.num_vertices(); v += 11) {
        ++observers;
        local::compute_local_view(g, v, radius, nullptr, ws, view);
        for (auto [a, b] : view.forest_edges) {
          ++checked_edges;
          std::vector<int> ca = word_vec(view.cliques[a]);
          std::vector<int> cb = word_vec(view.cliques[b]);
          auto key = std::minmax(ca, cb);
          if (!edges.count({key.first, key.second})) ++violations;
        }
        for (int u : view.trusted_vertices) {
          ++checked_subtrees;
          int expected =
              static_cast<int>(global.cliques_of(u).size()) - 1;
          int found = 0;
          for (auto [a, b] : view.forest_edges) {
            const auto& ca = view.cliques[a];
            const auto& cb = view.cliques[b];
            if (std::binary_search(ca.begin(), ca.end(), u) &&
                std::binary_search(cb.begin(), cb.end(), u)) {
              ++found;
            }
          }
          if (found != expected) ++violations;
        }
      }
      table.add_row({names[static_cast<int>(shape)],
                     Table::fmt(g.num_vertices()), Table::fmt(radius),
                     Table::fmt(observers), Table::fmt(checked_edges),
                     Table::fmt(checked_subtrees), Table::fmt(violations)});
    }
  }
  table.print();
  ctx.add_table("local_views", table);
  std::printf("\nviolations must be 0: all local views agree with the "
              "global decomposition.\n");
  return 0;
}
