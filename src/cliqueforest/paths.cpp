#include "cliqueforest/paths.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/diameter.hpp"

namespace chordal {

namespace {

/// Active forest-degree of clique c.
int active_degree(const CliqueForest& forest, const std::vector<char>& active,
                  int c) {
  int deg = 0;
  for (CliqueId d : forest.forest_neighbors(c)) deg += active[d] ? 1 : 0;
  return deg;
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
  if (clique_stamp.size() < m) {
    clique_stamp.resize(m, 0);
    clique_pos.resize(m, 0);
  }
}

void path_union_vertices(const CliqueForest& forest, const ForestPath& path,
                         std::vector<int>& out) {
  out.clear();
  for (int c : path.cliques) {
    CliqueWord word = forest.clique(c);
    out.insert(out.end(), word.begin(), word.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
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

void path_intervals(const CliqueForest& forest, const ForestPath& path,
                    PathScratch& scratch, PathIntervals& out) {
  scratch.ensure(forest);
  const std::uint64_t mark = ++scratch.epoch;
  for (std::size_t i = 0; i < path.cliques.size(); ++i) {
    scratch.clique_stamp[path.cliques[i]] = mark;
    scratch.clique_pos[path.cliques[i]] = static_cast<int>(i);
  }
  out.num_positions = static_cast<int>(path.cliques.size());
  path_union_vertices(forest, path, out.vertices);
  out.lo.clear();
  out.hi.clear();
  out.lo.reserve(out.vertices.size());
  out.hi.reserve(out.vertices.size());
  for (int v : out.vertices) {
    int lo = out.num_positions, hi = -1;
    for (CliqueId c : forest.cliques_of(v)) {
      if (scratch.clique_stamp[c] == mark) {
        lo = std::min(lo, scratch.clique_pos[c]);
        hi = std::max(hi, scratch.clique_pos[c]);
      }
    }
    out.lo.push_back(lo);
    out.hi.push_back(hi);
  }
}

PathIntervals path_intervals(const CliqueForest& forest,
                             const ForestPath& path) {
  thread_local PathScratch scratch;
  PathIntervals rep;
  path_intervals(forest, path, scratch, rep);
  return rep;
}

namespace {

/// far[p] = furthest position reachable by one interval that starts at or
/// before p; the standard greedy-hop structure for interval-graph distances.
void far_table(const PathIntervals& rep, std::vector<int>& far) {
  far.assign(static_cast<std::size_t>(rep.num_positions), -1);
  for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
    far[rep.lo[i]] = std::max(far[rep.lo[i]], rep.hi[i]);
  }
  int best = -1;
  for (int p = 0; p < rep.num_positions; ++p) {
    best = std::max(best, far[p]);
    far[p] = best;
  }
}

/// Exact interval-graph distance via greedy hops (-1 if unreachable).
int interval_distance(const PathIntervals& rep, const std::vector<int>& far,
                      std::size_t u, std::size_t v) {
  if (u == v) return 0;
  if (rep.lo[v] < rep.lo[u] || (rep.lo[v] == rep.lo[u] && rep.hi[v] < rep.hi[u])) {
    std::swap(u, v);
  }
  if (rep.hi[u] >= rep.lo[v]) return 1;
  int reach = rep.hi[u];
  int dist = 1;
  while (reach < rep.lo[v]) {
    int next = far[reach];
    if (next <= reach) return -1;
    reach = next;
    ++dist;
  }
  return dist;
}

}  // namespace

int path_diameter(const Graph& g, const CliqueForest& forest,
                  const ForestPath& path, PathScratch& scratch) {
  path_intervals(forest, path, scratch, scratch.rep);
  const PathIntervals& rep = scratch.rep;
  if (rep.vertices.size() <= 1) return 0;
  // Diametral pair of a connected interval graph: the interval ending first
  // vs. the interval starting last (verified against all-pairs BFS by the
  // property tests). We additionally take a BFS double sweep on the induced
  // subgraph as a safety net; both are exact on these graphs.
  far_table(rep, scratch.far);
  std::size_t a = 0, b = 0;
  for (std::size_t i = 1; i < rep.vertices.size(); ++i) {
    if (rep.hi[i] < rep.hi[a] || (rep.hi[i] == rep.hi[a] && rep.lo[i] < rep.lo[a])) {
      a = i;
    }
    if (rep.lo[i] > rep.lo[b] || (rep.lo[i] == rep.lo[b] && rep.hi[i] > rep.hi[b])) {
      b = i;
    }
  }
  int by_intervals = interval_distance(rep, scratch.far, a, b);
  int by_sweep = diameter_double_sweep_subset(g, rep.vertices, scratch.sweep);
  return std::max(by_intervals, by_sweep);
}

int path_diameter(const Graph& g, const CliqueForest& forest,
                  const ForestPath& path) {
  thread_local PathScratch scratch;
  return path_diameter(g, forest, path, scratch);
}

int path_independence(const CliqueForest& forest, const ForestPath& path,
                      PathScratch& scratch) {
  path_intervals(forest, path, scratch, scratch.rep);
  const PathIntervals& rep = scratch.rep;
  scratch.order.resize(rep.vertices.size());
  for (std::size_t i = 0; i < scratch.order.size(); ++i) scratch.order[i] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&rep](std::size_t x, std::size_t y) {
              return rep.hi[x] < rep.hi[y];
            });
  int count = 0;
  int last_hi = -1;
  for (std::size_t i : scratch.order) {
    if (rep.lo[i] > last_hi) {
      ++count;
      last_hi = rep.hi[i];
    }
  }
  return count;
}

int path_independence(const CliqueForest& forest, const ForestPath& path) {
  thread_local PathScratch scratch;
  return path_independence(forest, path, scratch);
}

}  // namespace chordal
