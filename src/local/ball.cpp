#include "local/ball.hpp"

#include "graph/bfs.hpp"
#include "local/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace chordal::local {

void RoundLedger::synchronize(std::span<const int> nodes) {
  std::int64_t latest = 0;
  for (int v : nodes) latest = std::max(latest, clock_[v]);
  for (int v : nodes) clock_[v] = latest;
}

std::int64_t RoundLedger::max_clock() const {
  std::int64_t latest = 0;
  for (auto c : clock_) latest = std::max(latest, c);
  return latest;
}

Ball collect_ball(const Graph& g, int center, int radius,
                  const std::vector<char>* active, RoundLedger* ledger,
                  const BandwidthConfig& bw) {
  Ball ball;
  ball.vertices = active == nullptr
                      ? ball_vertices(g, center, radius)
                      : ball_vertices_restricted(g, center, radius, *active);
  ball.graph = g.induced_subgraph(ball.vertices);
  ball.dist = bfs_distances(ball.graph, 0);
  // Flooding a radius-r ball costs r rounds under LOCAL; under CONGEST the
  // collected volume must drain through the center's deg incident edges at
  // B words per round, so the charge grows to max(r, ceil(volume/(deg*B))).
  // The formula is a pure function of (radius, volume, degree, model), so
  // the workspace path (workspace.cpp) charges it bit-identically.
  auto words = static_cast<std::int64_t>(ball.vertices.size() +
                                         2 * ball.graph.num_edges());
  std::int64_t rounds = ball_collection_rounds(
      radius, words, g.degree(center), bw, g.num_vertices());
  if (ledger != nullptr) ledger->charge(center, rounds);
  if (obs::Registry* reg = obs::current()) {
    // The collected view is the ball's adjacency encoding (one word per
    // vertex, two per edge) - identical across models.
    reg->counter("ball.collections").add(1);
    reg->histogram("ball.volume_words").add(static_cast<double>(words));
    obs::Span::charge_rounds(rounds);
    obs::Span::charge_messages(static_cast<std::int64_t>(ball.vertices.size()),
                               words);
  }
  return ball;
}

}  // namespace chordal::local
