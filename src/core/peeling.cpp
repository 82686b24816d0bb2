#include "core/peeling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace chordal::core {

PeelingResult peel(const Graph& g, const CliqueForest& forest,
                   const PeelConfig& config) {
  if (config.mode == PeelMode::kColoring && config.k < 2) {
    throw std::invalid_argument("peel: coloring mode requires k >= 2");
  }
  if (config.mode == PeelMode::kIndependentSet &&
      (config.d < 1 || config.max_iterations < 1)) {
    throw std::invalid_argument("peel: MIS mode requires d >= 1 and a bound");
  }

  const int m = forest.num_cliques();
  PeelingResult result;
  result.layer_of.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<char> active(static_cast<std::size_t>(m), 1);
  int active_count = m;

  // Lemma 6 allows at most ceil(log2 n)+1 iterations in coloring mode; use a
  // generous cap as a bug tripwire.
  int cap = config.mode == PeelMode::kColoring
                ? 2 * static_cast<int>(std::ceil(std::log2(
                          std::max(2, g.num_vertices())))) + 4
                : config.max_iterations;
  // One metric scratch per worker, warm across all iterations.
  std::vector<PathScratch> scratch(
      static_cast<std::size_t>(support::num_threads()));

  for (int iter = 1; active_count > 0 && iter <= cap; ++iter) {
    obs::Span layer_span("peel layer " + std::to_string(iter));
    int high_degree = 0;
    for (int c = 0; c < m; ++c) {
      if (!active[c]) continue;
      int deg = 0;
      for (CliqueId nb : forest.forest_neighbors(c)) deg += active[nb] ? 1 : 0;
      if (deg >= 3) ++high_degree;
    }
    result.high_degree_counts.push_back(high_degree);

    bool last_mis_round = config.mode == PeelMode::kIndependentSet &&
                          iter == config.max_iterations;
    // Paths of one iteration are independent: evaluate every threshold
    // metric in parallel (one PathScratch per worker), then assemble the
    // taken list sequentially in path order.
    auto paths = maximal_binary_paths(forest, active);
    std::vector<char> selected(paths.size(), 0);
    std::vector<std::vector<int>> owned(paths.size());
    support::parallel_for(
        paths.size(), [&](std::size_t i, std::size_t worker) {
          const ForestPath& path = paths[i];
          PathScratch& s = scratch[worker];
          bool take = path.pendant;
          if (!take) {
            interval_model(forest.cliques(), path.cliques, s, s.rep);
            if (config.mode == PeelMode::kColoring) {
              take = interval_diameter(s.rep, s) >= 3 * config.k;
            } else if (last_mis_round) {
              take = interval_alpha(s.rep, s) >= config.d;
            } else {
              take = interval_diameter(s.rep, s) >= 2 * config.d + 3;
            }
          }
          if (!take) return;
          selected[i] = 1;
          path_owned_vertices(forest, active, path, s, owned[i]);
        });
    std::vector<LayerPath> taken;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (!selected[i]) continue;
      LayerPath lp;
      lp.owned = std::move(owned[i]);
      lp.path = std::move(paths[i]);
      taken.push_back(std::move(lp));
    }

    if (taken.empty()) {
      if (config.mode == PeelMode::kColoring) {
        throw std::logic_error("peel: no progress despite active cliques");
      }
      // MIS mode may legitimately stall between thresholds; still count the
      // iteration (the distributed algorithm spends the rounds regardless).
      result.layers.emplace_back();
      result.num_layers = iter;
      continue;
    }

    if (layer_span.live()) {
      std::size_t owned_total = 0;
      for (const auto& lp : taken) owned_total += lp.owned.size();
      layer_span.note("paths", static_cast<double>(taken.size()));
      layer_span.note("owned_vertices", static_cast<double>(owned_total));
      layer_span.note("high_degree_cliques", high_degree);
    }
    for (const auto& lp : taken) {
      obs::trace_emit(nullptr, obs::TraceEventKind::kPeelDecision,
                      lp.path.cliques.empty() ? -1 : lp.path.cliques.front(),
                      iter, static_cast<std::int64_t>(lp.path.cliques.size()),
                      static_cast<std::int64_t>(lp.owned.size()));
      for (int v : lp.owned) {
        if (result.layer_of[v] != 0) {
          throw std::logic_error("peel: vertex peeled twice");
        }
        result.layer_of[v] = iter;
        obs::trace_emit(nullptr, obs::TraceEventKind::kPeelCommit, v, iter);
      }
      for (int c : lp.path.cliques) {
        if (!active[c]) throw std::logic_error("peel: clique peeled twice");
        active[c] = 0;
        --active_count;
      }
    }
    result.layers.push_back(std::move(taken));
    result.num_layers = iter;
  }

  if (config.mode == PeelMode::kColoring && active_count > 0) {
    throw std::logic_error("peel: iteration cap exceeded (Lemma 6 violated)");
  }
  return result;
}

}  // namespace chordal::core
