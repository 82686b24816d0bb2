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

void components(const PathIntervals& rep, Components& out) {
  const std::size_t n = rep.vertices.size();
  auto& members = out.members;
  members.resize(n);
  std::iota(members.begin(), members.end(), std::size_t{0});
  std::sort(members.begin(), members.end(),
            [&rep](std::size_t x, std::size_t y) {
              return rep.lo[x] < rep.lo[y];
            });
  out.offsets.clear();
  int reach = -1;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = members[j];
    if (j == 0 || rep.lo[i] > reach) out.offsets.push_back(j);
    reach = std::max(reach, rep.hi[i]);
  }
  out.offsets.push_back(n);
  for (std::size_t c = 0; c + 1 < out.offsets.size(); ++c) {
    const auto first = static_cast<std::ptrdiff_t>(out.offsets[c]);
    const auto last = static_cast<std::ptrdiff_t>(out.offsets[c + 1]);
    std::sort(members.begin() + first, members.begin() + last);
  }
}

Components components(const PathIntervals& rep) {
  Components out;
  components(rep, out);
  return out;
}

int omega(const PathIntervals& rep, std::vector<int>& counts) {
  const std::size_t n = rep.vertices.size();
  if (n == 0) return 0;
  int first = rep.lo[0], last = rep.hi[0];
  for (std::size_t i = 1; i < n; ++i) {
    first = std::min(first, rep.lo[i]);
    last = std::max(last, rep.hi[i]);
  }
  // Difference array over the occupied positions: +1 at lo, -1 after hi;
  // its running sum is the number of intervals covering each position.
  counts.assign(static_cast<std::size_t>(last - first) + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rep.lo[i] - first)];
    --counts[static_cast<std::size_t>(rep.hi[i] - first) + 1];
  }
  int active = 0, best = 0;
  for (int delta : counts) {
    active += delta;
    best = std::max(best, active);
  }
  return best;
}

int omega(const PathIntervals& rep) {
  std::vector<int> counts;
  return omega(rep, counts);
}

}  // namespace chordal::interval
