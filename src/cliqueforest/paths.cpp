#include "cliqueforest/paths.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace chordal {

namespace {

/// Active forest-degree of clique c.
int active_degree(const CliqueForest& forest, const std::vector<char>& active,
                  int c) {
  int deg = 0;
  for (CliqueId d : forest.forest_neighbors(c)) deg += active[d] ? 1 : 0;
  return deg;
}

/// The union of the cliques `order` of `family`, sorted ascending.
void union_vertices(const CliqueFamily& family, std::span<const int> order,
                    std::vector<int>& out) {
  out.clear();
  for (int c : order) {
    CliqueWord word = family[static_cast<std::size_t>(c)];
    out.insert(out.end(), word.begin(), word.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::vector<ForestPath> maximal_binary_paths(const CliqueForest& forest,
                                             const std::vector<char>& active) {
  const int m = forest.num_cliques();
  if (static_cast<int>(active.size()) != m) {
    throw std::invalid_argument("maximal_binary_paths: active size mismatch");
  }
  std::vector<int> deg(static_cast<std::size_t>(m), 0);
  std::vector<char> binary(static_cast<std::size_t>(m), 0);
  for (int c = 0; c < m; ++c) {
    if (!active[c]) continue;
    deg[c] = active_degree(forest, active, c);
    binary[c] = deg[c] <= 2;
  }
  // Chains = connected components of the binary cliques; each is a path
  // because forest-degree is at most 2. Walk each chain from an endpoint.
  auto binary_neighbors = [&](int c) {
    std::vector<int> out;
    for (CliqueId d : forest.forest_neighbors(c)) {
      if (active[d] && binary[d]) out.push_back(static_cast<int>(d));
    }
    return out;
  };
  std::vector<char> used(static_cast<std::size_t>(m), 0);
  std::vector<ForestPath> paths;
  for (int c = 0; c < m; ++c) {
    if (!active[c] || !binary[c] || used[c]) continue;
    if (binary_neighbors(c).size() > 1) continue;  // interior; reach later
    ForestPath path;
    int prev = -1, cur = c;
    while (cur != -1) {
      used[cur] = 1;
      path.cliques.push_back(cur);
      int next = -1;
      for (int d : binary_neighbors(cur)) {
        if (d != prev) next = d;
      }
      prev = cur;
      cur = next;
    }
    // Attachments: active non-binary neighbors of the chain endpoints. A
    // single-clique chain can carry up to two distinct attachments; a longer
    // chain's endpoint has at most one (its other slot is the chain itself).
    auto attachments = [&](int end) {
      std::vector<int> out;
      for (CliqueId d : forest.forest_neighbors(end)) {
        if (active[d] && !binary[d]) out.push_back(static_cast<int>(d));
      }
      return out;
    };
    if (path.cliques.size() == 1) {
      auto att = attachments(path.cliques.front());
      if (!att.empty()) path.attach_right = att[0];
      if (att.size() > 1) path.attach_left = att[1];
    } else {
      auto left = attachments(path.cliques.front());
      auto right = attachments(path.cliques.back());
      if (!left.empty()) path.attach_left = left[0];
      if (!right.empty()) path.attach_right = right[0];
    }
    path.pendant = path.attach_left == -1 || path.attach_right == -1;
    if (path.pendant && path.attach_left != -1) {
      std::reverse(path.cliques.begin(), path.cliques.end());
      std::swap(path.attach_left, path.attach_right);
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

void PathScratch::ensure(const CliqueForest& forest) {
  auto m = static_cast<std::size_t>(forest.num_cliques());
  if (clique_stamp.size() < m) clique_stamp.resize(m, 0);
}

void path_union_vertices(const CliqueForest& forest, const ForestPath& path,
                         std::vector<int>& out) {
  union_vertices(forest.cliques(), path.cliques, out);
}

std::vector<int> path_union_vertices(const CliqueForest& forest,
                                     const ForestPath& path) {
  std::vector<int> out;
  path_union_vertices(forest, path, out);
  return out;
}

void path_owned_vertices(const CliqueForest& forest,
                         const std::vector<char>& active_clique,
                         const ForestPath& path, PathScratch& scratch,
                         std::vector<int>& out) {
  scratch.ensure(forest);
  const std::uint64_t mark = ++scratch.epoch;
  for (int c : path.cliques) scratch.clique_stamp[c] = mark;
  path_union_vertices(forest, path, scratch.verts);
  out.clear();
  for (int v : scratch.verts) {
    bool all_inside = true;
    for (CliqueId c : forest.cliques_of(v)) {
      if (active_clique[c] && scratch.clique_stamp[c] != mark) {
        all_inside = false;
        break;
      }
    }
    if (all_inside) out.push_back(v);
  }
}

std::vector<int> path_owned_vertices(const CliqueForest& forest,
                                     const std::vector<char>& active_clique,
                                     const ForestPath& path) {
  thread_local PathScratch scratch;
  std::vector<int> owned;
  path_owned_vertices(forest, active_clique, path, scratch, owned);
  return owned;
}

void interval_model(const CliqueFamily& family, std::span<const int> order,
                    PathScratch& scratch, PathIntervals& out) {
  out.num_positions = static_cast<int>(order.size());
  union_vertices(family, order, out.vertices);
  const std::size_t n = out.vertices.size();
  out.lo.assign(n, 0);
  out.hi.assign(n, -1);
  if (n == 0) return;
  auto& slot = scratch.slot;
  if (slot.size() <= static_cast<std::size_t>(out.vertices.back())) {
    slot.resize(static_cast<std::size_t>(out.vertices.back()) + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    slot[out.vertices[i]] = static_cast<int>(i);
  }
  // Positions ascend, so a vertex's first sighting is its lo and its last
  // its hi.
  for (int p = 0; p < out.num_positions; ++p) {
    for (VertexId v : family[static_cast<std::size_t>(order[p])]) {
      const int i = slot[v];
      if (out.hi[i] == -1) out.lo[i] = p;
      out.hi[i] = p;
    }
  }
}

std::size_t interval_mis(const PathIntervals& rep,
                         std::span<std::size_t> members) {
  std::sort(members.begin(), members.end(),
            [&rep](std::size_t x, std::size_t y) {
              if (rep.hi[x] != rep.hi[y]) return rep.hi[x] < rep.hi[y];
              return rep.lo[x] < rep.lo[y];
            });
  std::size_t kept = 0;
  int last_hi = -1;
  for (std::size_t j = 0; j < members.size(); ++j) {
    const std::size_t i = members[j];
    if (rep.lo[i] > last_hi) {
      members[kept++] = i;
      last_hi = rep.hi[i];
    }
  }
  return kept;
}

int interval_alpha(const PathIntervals& rep, PathScratch& scratch) {
  scratch.order.resize(rep.vertices.size());
  std::iota(scratch.order.begin(), scratch.order.end(), std::size_t{0});
  return static_cast<int>(interval_mis(rep, scratch.order));
}

int interval_diameter(const PathIntervals& rep, PathScratch& scratch) {
  const std::size_t n = rep.vertices.size();
  if (n <= 1) return 0;
  // a ends first (ties: starts first), b starts last (ties: ends last).
  std::size_t a = 0, b = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (rep.hi[i] < rep.hi[a] ||
        (rep.hi[i] == rep.hi[a] && rep.lo[i] < rep.lo[a])) {
      a = i;
    }
    if (rep.lo[i] > rep.lo[b] ||
        (rep.lo[i] == rep.lo[b] && rep.hi[i] > rep.hi[b])) {
      b = i;
    }
  }
  if (a == b) return 1;
  interval_distances(rep, std::span<const std::size_t>(&a, 1), -1, scratch,
                     scratch.dist);
  // a lies in the leftmost component and b in the rightmost one, so a gap
  // anywhere leaves b unreached.
  if (scratch.dist[b] == -1) {
    throw std::invalid_argument("interval_diameter: disconnected model");
  }
  return scratch.dist[b];
}

void interval_distances(const PathIntervals& rep,
                        std::span<const std::size_t> sources, int max_level,
                        PathScratch& scratch, std::vector<int>& dist) {
  const std::size_t n = rep.vertices.size();
  dist.assign(n, -1);
  if (sources.empty()) return;
  int first = rep.lo[0], last = rep.hi[0];
  for (std::size_t v = 1; v < n; ++v) {
    first = std::min(first, rep.lo[v]);
    last = std::max(last, rep.hi[v]);
  }
  // reach_right[p - first]: the largest hi of an interval with lo <= p;
  // reach_left[p - first]: the smallest lo of an interval with hi >= p.
  const auto width = static_cast<std::size_t>(last - first) + 1;
  auto& reach_right = scratch.reach_right;
  auto& reach_left = scratch.reach_left;
  reach_right.assign(width, first);
  reach_left.assign(width, last);
  for (std::size_t v = 0; v < n; ++v) {
    int& r = reach_right[static_cast<std::size_t>(rep.lo[v] - first)];
    int& l = reach_left[static_cast<std::size_t>(rep.hi[v] - first)];
    r = std::max(r, rep.hi[v]);
    l = std::min(l, rep.lo[v]);
  }
  for (std::size_t p = 1; p < width; ++p) {
    reach_right[p] = std::max(reach_right[p], reach_right[p - 1]);
    reach_left[width - 1 - p] =
        std::min(reach_left[width - 1 - p], reach_left[width - p]);
  }
  // Span of level j: everything within distance j lies in it, and level
  // j+1 is every unseen interval meeting it. Seen intervals already lie
  // inside, so the next span is the reach of the current one's ends.
  auto& span_lo = scratch.span_lo;
  auto& span_hi = scratch.span_hi;
  span_lo.assign(1, last);
  span_hi.assign(1, first);
  for (std::size_t s : sources) {
    dist[s] = 0;
    span_lo[0] = std::min(span_lo[0], rep.lo[s]);
    span_hi[0] = std::max(span_hi[0], rep.hi[s]);
  }
  // Spans 0..max_level-1 decide levels 1..max_level.
  const int spans =
      max_level < 0 ? std::numeric_limits<int>::max() : max_level;
  while (static_cast<int>(span_hi.size()) < spans) {
    const int lo = std::min(
        span_lo.back(),
        reach_left[static_cast<std::size_t>(span_lo.back() - first)]);
    const int hi = std::max(
        span_hi.back(),
        reach_right[static_cast<std::size_t>(span_hi.back() - first)]);
    if (lo == span_lo.back() && hi == span_hi.back()) break;
    span_lo.push_back(lo);
    span_hi.push_back(hi);
  }
  // A vertex joins at 1 + the first span it meets; spans only grow. The
  // far tables are done with, so they become the first span index whose
  // hi reaches position p (reach_right) and whose lo reaches it
  // (reach_left).
  const int count = static_cast<int>(span_hi.size());
  for (int p = first, j = 0; p <= last; ++p) {
    while (j < count && span_hi[static_cast<std::size_t>(j)] < p) ++j;
    reach_right[static_cast<std::size_t>(p - first)] = j;
  }
  for (int p = last, j = 0; p >= first; --p) {
    while (j < count && span_lo[static_cast<std::size_t>(j)] > p) ++j;
    reach_left[static_cast<std::size_t>(p - first)] = j;
  }
  const int usable = std::min(count, spans);
  for (std::size_t v = 0; v < n; ++v) {
    if (dist[v] == 0) continue;
    const int j =
        std::max(reach_right[static_cast<std::size_t>(rep.lo[v] - first)],
                 reach_left[static_cast<std::size_t>(rep.hi[v] - first)]);
    if (j < usable) dist[v] = j + 1;
  }
}

}  // namespace chordal
