#include "local/ruling_set.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "local/cole_vishkin.hpp"
#include "obs/span.hpp"

namespace chordal::local {

RulingSetResult distance_k_mis_interval(const PathIntervals& rep, int k) {
  if (k < 1) throw std::invalid_argument("distance_k_mis_interval: k < 1");
  const std::size_t n = rep.vertices.size();
  RulingSetResult result;
  if (n == 0) return result;
  obs::Span span("distance-k MIS on G^k (ruling set)");
  span.note("k", k);
  span.note("n", static_cast<double>(n));

  // --- Symmetry breaking (measured rounds): Cole-Vishkin on the
  // rightmost-neighbor pseudoforest. succ(v) = the neighbor maximizing
  // (hi, id); following succ strictly increases (hi, id), so it is acyclic.
  std::vector<int> parent(n, -1);
  {
    // best vertex (by (hi, id)) among intervals with lo <= p, per position.
    std::vector<int> best_at(static_cast<std::size_t>(rep.num_positions), -1);
    auto better = [&](int x, int y) {  // is x better than y
      if (x == -1) return false;  // "no vertex" never wins (positions before
                                  // the first interval leave -1 slots)
      if (y == -1) return true;
      if (rep.hi[x] != rep.hi[y]) return rep.hi[x] > rep.hi[y];
      return rep.vertices[x] > rep.vertices[y];
    };
    for (std::size_t v = 0; v < n; ++v) {
      int& slot = best_at[rep.lo[v]];
      if (better(static_cast<int>(v), slot)) slot = static_cast<int>(v);
    }
    for (int p = 1; p < rep.num_positions; ++p) {
      if (best_at[p] == -1 || better(best_at[p - 1], best_at[p])) {
        best_at[p] = best_at[p - 1];
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      int b = best_at[rep.hi[v]];
      if (b != static_cast<int>(v)) parent[v] = b;
    }
  }
  std::vector<std::int64_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = rep.vertices[v];
  CvResult cv = cole_vishkin_pseudoforest(ids, parent);
  // Each Cole-Vishkin iteration is simulated on G^k (k rounds per hop) and
  // the fragment sweeps after symmetry breaking cost a constant number of
  // distance-k exchanges.
  result.rounds = static_cast<std::int64_t>(cv.rounds + 3) * k;
  // The G^k simulation relays each exchange over k hops: every vertex
  // forwards its k-neighborhood's words each sweep round.
  span.set_rounds(result.rounds);
  span.add_messages(3 * static_cast<std::int64_t>(k) * static_cast<std::int64_t>(n),
                    3 * static_cast<std::int64_t>(k) * static_cast<std::int64_t>(n) * 2);

  // --- Canonical anchor selection: repeatedly take the (hi, id)-smallest
  // vertex at distance > k from every chosen anchor. Produces a maximal
  // independent set of G^k. Vertices left of the scan pointer stay covered
  // forever, and each anchor's BFS is capped at k levels and restricted to
  // a coordinate window that k hops cannot escape, so the selection runs in
  // near-linear total time.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
    if (rep.hi[x] != rep.hi[y]) return rep.hi[x] < rep.hi[y];
    return rep.vertices[x] < rep.vertices[y];
  });
  std::vector<std::size_t> by_lo(n);
  for (std::size_t i = 0; i < n; ++i) by_lo[i] = i;
  std::sort(by_lo.begin(), by_lo.end(),
            [&rep](std::size_t x, std::size_t y) {
              return rep.lo[x] < rep.lo[y];
            });
  int max_len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_len = std::max(max_len, rep.hi[i] - rep.lo[i] + 1);
  }
  std::vector<char> covered(n, 0);
  PathScratch scratch;
  std::vector<int> dist;
  std::size_t ptr = 0;
  for (;;) {
    while (ptr < n && covered[order[ptr]]) ++ptr;
    if (ptr == n) break;
    std::size_t next = order[ptr];
    result.anchors.push_back(next);
    // One hop extends the reachable span by at most max_len positions.
    long long reach = static_cast<long long>(k + 1) * max_len;
    int win_lo = static_cast<int>(
        std::max<long long>(0, rep.lo[next] - reach));
    int win_hi = static_cast<int>(rep.hi[next] + reach);
    std::vector<std::size_t> cand;
    auto first = std::lower_bound(
        by_lo.begin(), by_lo.end(), win_lo,
        [&rep](std::size_t v, int key) { return rep.lo[v] < key; });
    std::size_t anchor_local = 0;
    for (auto it = first; it != by_lo.end() && rep.lo[*it] <= win_hi; ++it) {
      if (rep.hi[*it] >= win_lo) {
        if (*it == next) anchor_local = cand.size();
        cand.push_back(*it);
      }
    }
    PathIntervals window;
    window.num_positions = rep.num_positions;
    for (std::size_t i : cand) {
      window.vertices.push_back(rep.vertices[i]);
      window.lo.push_back(rep.lo[i]);
      window.hi.push_back(rep.hi[i]);
    }
    interval_distances(window, std::span<const std::size_t>(&anchor_local, 1),
                       k, scratch, dist);
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (dist[i] != -1 && dist[i] <= k) covered[cand[i]] = 1;
    }
  }
  span.note("anchors", static_cast<double>(result.anchors.size()));
  return result;
}

}  // namespace chordal::local
