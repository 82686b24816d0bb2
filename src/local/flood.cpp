#include "local/flood.hpp"

#include <algorithm>
#include <iterator>

namespace chordal::local {

FloodBallsResult flood_balls(const Graph& g, int radius,
                             const BandwidthConfig& bw) {
  const int n = g.num_vertices();
  const auto wide_n = static_cast<std::int64_t>(n);
  FloodBallsResult out;
  out.known.assign(static_cast<std::size_t>(n), {});
  Network net(g, bw);

  auto encode = [wide_n](std::int64_t u, std::int64_t v) {
    if (u > v) std::swap(u, v);
    return u * wide_n + v;
  };

  // Round 0 knowledge: incident edges. fresh[v] = edges learned last round,
  // the only ones worth re-broadcasting.
  std::vector<std::vector<std::int64_t>> fresh(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (int u : g.neighbors(v)) fresh[v].push_back(encode(v, u));
    std::sort(fresh[v].begin(), fresh[v].end());
    out.known[v] = fresh[v];
  }

  std::vector<std::int64_t> incoming;
  std::vector<std::int64_t> merged;
  for (int round = 0; round < radius; ++round) {
    bool any = false;
    for (int v = 0; v < n; ++v) {
      if (fresh[v].empty() || g.degree(v) == 0) continue;
      any = true;
      Payload payload;
      payload.reserve(fresh[v].size() * 2);
      for (std::int64_t key : fresh[v]) {
        payload.push_back(key / wide_n);
        payload.push_back(key % wide_n);
      }
      // The documented model: two words per reported edge, paid once per
      // neighbor the broadcast reaches. Tallied independently of the
      // Network so callers can assert modeled == stats.total_payload_words.
      out.modeled_words +=
          edge_report_words(static_cast<std::int64_t>(fresh[v].size())) *
          g.degree(v);
      net.broadcast(v, payload);
    }
    // Saturated: every node already knows its full ball, nothing to flood.
    if (!any) break;
    net.deliver();
    for (int v = 0; v < n; ++v) {
      incoming.clear();
      for (const Message& m : net.inbox(v)) {
        for (std::size_t i = 0; i + 1 < m.data.size(); i += 2) {
          incoming.push_back(encode(m.data[i], m.data[i + 1]));
        }
      }
      fresh[v].clear();
      if (incoming.empty()) continue;
      std::sort(incoming.begin(), incoming.end());
      incoming.erase(std::unique(incoming.begin(), incoming.end()),
                     incoming.end());
      std::set_difference(incoming.begin(), incoming.end(),
                          out.known[v].begin(), out.known[v].end(),
                          std::back_inserter(fresh[v]));
      if (fresh[v].empty()) continue;
      merged.clear();
      std::merge(out.known[v].begin(), out.known[v].end(), fresh[v].begin(),
                 fresh[v].end(), std::back_inserter(merged));
      out.known[v].swap(merged);
    }
  }

  out.rounds = net.rounds();
  out.stats = net.stats();
  return out;
}

}  // namespace chordal::local
