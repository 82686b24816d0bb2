#include <algorithm>

#include "baselines/baselines.hpp"
#include "local/network.hpp"
#include "obs/span.hpp"
#include "support/rng.hpp"

namespace chordal::baselines {

DPlusOneResult dplus1_coloring(const Graph& g, std::uint64_t seed,
                               const local::BandwidthConfig& bw) {
  const int n = g.num_vertices();
  obs::Span span("(Delta+1) greedy coloring");
  local::Network net(g, bw);
  Rng rng(seed);
  std::vector<int> colors(static_cast<std::size_t>(n), -1);
  std::vector<std::uint64_t> priority(static_cast<std::size_t>(n), 0);

  auto uncolored_remain = [&] {
    return std::any_of(colors.begin(), colors.end(),
                       [](int c) { return c < 0; });
  };

  while (uncolored_remain()) {
    // Round A: uncolored nodes draw and broadcast (priority, id).
    for (int v = 0; v < n; ++v) {
      if (colors[v] >= 0) continue;
      priority[v] = rng.next();
      net.broadcast(v, {static_cast<std::int64_t>(priority[v] >> 1), v});
    }
    net.deliver();
    // Round B: local priority winners pick the smallest free color and
    // announce it.
    std::vector<int> newly(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v) {
      if (colors[v] >= 0) continue;
      bool winner = true;
      for (const auto& msg : net.inbox(v)) {
        auto their = static_cast<std::uint64_t>(msg.data[0]);
        auto mine = priority[v] >> 1;
        if (their > mine || (their == mine && msg.data[1] > v)) {
          winner = false;
        }
      }
      if (!winner) continue;
      std::vector<char> used(g.neighbors(v).size() + 1, 0);
      for (int w : g.neighbors(v)) {
        if (colors[w] >= 0 && colors[w] < static_cast<int>(used.size())) {
          used[colors[w]] = 1;
        }
      }
      int c = 0;
      while (used[c]) ++c;
      newly[v] = c;
      net.broadcast(v, {c});
    }
    net.deliver();
    // Colors become visible to neighbors next phase via the `colors` array;
    // the announcement round above carried them as messages.
    for (int v = 0; v < n; ++v) {
      if (newly[v] >= 0) colors[v] = newly[v];
    }
  }
  DPlusOneResult result;
  result.colors = std::move(colors);
  result.rounds = net.rounds();
  int max_color = -1;
  for (int c : result.colors) max_color = std::max(max_color, c);
  result.num_colors = max_color + 1;
  span.note("colors", result.num_colors);
  return result;
}

}  // namespace chordal::baselines
