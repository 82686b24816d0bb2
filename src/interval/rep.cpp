#include "interval/rep.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

namespace chordal::interval {

PathIntervals from_geometry(const std::vector<double>& left,
                            const std::vector<double>& right) {
  if (left.size() != right.size()) {
    throw std::invalid_argument("from_geometry: size mismatch");
  }
  const std::size_t n = left.size();
  // Rank all endpoints; ranks preserve overlap because both maps are
  // monotone. Coordinate ties sort left endpoints first, so closed
  // intervals that merely touch still overlap after ranking.
  std::vector<std::pair<double, std::size_t>> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (right[i] < left[i]) {
      throw std::invalid_argument("from_geometry: inverted interval");
    }
    events.emplace_back(left[i], i);
    events.emplace_back(right[i], i + n);
  }
  std::sort(events.begin(), events.end());
  PathIntervals rep;
  rep.vertices.resize(n);
  std::iota(rep.vertices.begin(), rep.vertices.end(), 0);
  rep.lo.assign(n, 0);
  rep.hi.assign(n, 0);
  for (std::size_t r = 0; r < events.size(); ++r) {
    std::size_t tag = events[r].second;
    if (tag < n) {
      rep.lo[tag] = static_cast<int>(r);
    } else {
      rep.hi[tag - n] = static_cast<int>(r);
    }
  }
  rep.num_positions = static_cast<int>(events.size());
  return rep;
}

CliquePath clique_path_from_geometry(const std::vector<double>& left,
                                     const std::vector<double>& right) {
  if (left.size() != right.size()) {
    throw std::invalid_argument("clique_path_from_geometry: size mismatch");
  }
  const std::size_t n = left.size();
  struct Event {
    double coord;
    bool is_left;
    int vertex;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (right[i] < left[i]) {
      throw std::invalid_argument("clique_path_from_geometry: inverted");
    }
    events.push_back({left[i], true, static_cast<int>(i)});
    events.push_back({right[i], false, static_cast<int>(i)});
  }
  // Coordinate ties: left endpoints first (closed intervals that touch
  // intersect), consistent with from_geometry.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.coord != b.coord) return a.coord < b.coord;
    if (a.is_left != b.is_left) return a.is_left;
    return a.vertex < b.vertex;
  });

  CliquePath out;
  out.rep.vertices.resize(n);
  std::iota(out.rep.vertices.begin(), out.rep.vertices.end(), 0);
  out.rep.lo.assign(n, -1);
  out.rep.hi.assign(n, -1);

  std::set<int> active;
  bool inserted_since_emit = false;
  auto emit = [&] {
    int index = static_cast<int>(out.cliques.size());
    std::vector<int> clique(active.begin(), active.end());
    for (int v : clique) {
      if (out.rep.lo[v] == -1) out.rep.lo[v] = index;
      out.rep.hi[v] = index;
    }
    out.cliques.push_back(std::move(clique));
    inserted_since_emit = false;
  };
  for (const auto& event : events) {
    if (event.is_left) {
      active.insert(event.vertex);
      inserted_since_emit = true;
    } else {
      // The active set just before the first removal after insertions is a
      // maximal clique (nothing can extend it: anything later starts after
      // this interval ends).
      if (inserted_since_emit) emit();
      active.erase(event.vertex);
    }
  }
  out.rep.num_positions = static_cast<int>(out.cliques.size());
  return out;
}

Graph to_graph(const PathIntervals& rep) {
  const std::size_t n = rep.vertices.size();
  GraphBuilder b(static_cast<int>(n));
  // Sweep by lo; overlap test against later-starting intervals.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
    return rep.lo[x] < rep.lo[y];
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rep.lo[order[j]] > rep.hi[order[i]]) break;
      b.add_edge(static_cast<int>(order[i]), static_cast<int>(order[j]));
    }
  }
  return b.build();
}

PathIntervals restrict(const PathIntervals& rep,
                       const std::vector<std::size_t>& keep) {
  PathIntervals out;
  out.num_positions = rep.num_positions;
  for (std::size_t i : keep) {
    out.vertices.push_back(rep.vertices[i]);
    out.lo.push_back(rep.lo[i]);
    out.hi.push_back(rep.hi[i]);
  }
  return out;
}

std::vector<std::vector<std::size_t>> components(const PathIntervals& rep) {
  const std::size_t n = rep.vertices.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rep](std::size_t x, std::size_t y) {
    return rep.lo[x] < rep.lo[y];
  });
  std::vector<std::vector<std::size_t>> comps;
  int reach = -1;
  for (std::size_t i : order) {
    if (comps.empty() || rep.lo[i] > reach) {
      comps.emplace_back();
    }
    comps.back().push_back(i);
    reach = std::max(reach, rep.hi[i]);
  }
  for (auto& comp : comps) std::sort(comp.begin(), comp.end());
  return comps;
}

int omega(const PathIntervals& rep) {
  // Sweep counting active intervals; +1 events at lo, -1 after hi.
  std::vector<std::pair<int, int>> events;
  events.reserve(2 * rep.vertices.size());
  for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
    events.emplace_back(rep.lo[i], +1);
    events.emplace_back(rep.hi[i] + 1, -1);
  }
  std::sort(events.begin(), events.end());
  int active = 0, best = 0;
  for (auto [pos, delta] : events) {
    active += delta;
    best = std::max(best, active);
  }
  return best;
}

}  // namespace chordal::interval
