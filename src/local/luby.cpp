#include "local/luby.hpp"

#include <algorithm>

#include "local/network.hpp"
#include "obs/span.hpp"
#include "support/rng.hpp"

namespace chordal::local {

LubyResult luby_mis(const Graph& g, std::uint64_t seed,
                    const BandwidthConfig& bw) {
  const int n = g.num_vertices();
  obs::Span span("Luby MIS (draw/join/deactivate)");
  Network net(g, bw);
  Rng rng(seed);

  enum class State { kActive, kIn, kOut };
  std::vector<State> state(static_cast<std::size_t>(n), State::kActive);
  std::vector<std::uint64_t> draw(static_cast<std::size_t>(n), 0);

  LubyResult result;
  auto any_active = [&] {
    return std::any_of(state.begin(), state.end(),
                       [](State s) { return s == State::kActive; });
  };

  while (any_active()) {
    ++result.phases;
    // Round 1: active nodes draw and broadcast their value.
    for (int v = 0; v < n; ++v) {
      if (state[v] != State::kActive) continue;
      draw[v] = rng.next();
      net.broadcast(v, {static_cast<std::int64_t>(draw[v] >> 1), v});
    }
    net.deliver();
    // Round 2: a node joins if its (value, id) beats every active
    // neighbor's; joiners announce.
    std::vector<char> joined(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      if (state[v] != State::kActive) continue;
      bool wins = true;
      for (const auto& msg : net.inbox(v)) {
        std::uint64_t their = static_cast<std::uint64_t>(msg.data[0]);
        std::uint64_t mine = draw[v] >> 1;
        if (their > mine || (their == mine && msg.data[1] > v)) wins = false;
      }
      if (wins) {
        joined[v] = 1;
        net.broadcast(v, {1});
      }
    }
    net.deliver();
    // Round 3: joiners enter the MIS; their neighbors leave; everyone
    // re-announces liveness implicitly by the next phase's broadcasts.
    for (int v = 0; v < n; ++v) {
      if (joined[v]) {
        state[v] = State::kIn;
        continue;
      }
      if (state[v] != State::kActive) continue;
      if (!net.inbox(v).empty()) state[v] = State::kOut;
    }
    net.deliver();  // liveness settling round
  }
  result.rounds = net.rounds();
  for (int v = 0; v < n; ++v) {
    if (state[v] == State::kIn) result.independent_set.push_back(v);
  }
  span.note("phases", result.phases);
  span.note("mis_size", static_cast<double>(result.independent_set.size()));
  return result;
}

}  // namespace chordal::local
