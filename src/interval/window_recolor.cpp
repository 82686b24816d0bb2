#include "interval/window_recolor.hpp"

#include <algorithm>
#include <stdexcept>

namespace chordal::interval {

namespace {

constexpr int kRestarts = 6;

/// Per-color value-order key at one node: (-next fixed use, rotated tie)
/// packed so that ascending keys give the solver's value order. The tie
/// (c + 7 * rotation) mod palette is a bijection on colors, so it also
/// decides between equal next uses, and the color itself never has to.
std::uint64_t value_key(int next_use, int tie) {
  const auto neg = static_cast<std::uint32_t>(-next_use) ^ 0x80000000u;
  return static_cast<std::uint64_t>(neg) << 32 |
         static_cast<std::uint32_t>(tie);
}

/// A fixed use of `color` at position `pos` as one key: color in the high
/// half, the position (sign bit flipped, so order is kept) in the low half.
std::uint64_t use_key(int color, int pos) {
  return static_cast<std::uint64_t>(color) << 32 |
         (static_cast<std::uint32_t>(pos) ^ 0x80000000u);
}

/// The color whose value key is `key` under `rotation`.
int key_color(std::uint64_t key, int rotation, int palette) {
  const auto tie = static_cast<int>(key & 0xffffffffu);
  return (tie + palette - (rotation * 7) % palette) % palette;
}

/// One window: the state shared by every attempt, built once per call.
class Search {
 public:
  Search(const PathIntervals& rep, std::span<const int> fixed, int palette,
         WindowScratch& s, std::vector<int>& colors, RecolorStats* stats)
      : rep_(rep), fixed_(fixed), palette_(palette), s_(s), colors_(colors),
        stats_(stats) {}

  /// Validates the precoloring and builds the neighbour and fixed-use
  /// tables. Throws std::invalid_argument as extend_coloring documents.
  void prepare() {
    const std::size_t n = rep_.vertices.size();
    if (fixed_.size() != n) {
      throw std::invalid_argument("extend_coloring: fixed size mismatch");
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_[v] >= palette_) {
        throw std::invalid_argument(
            "extend_coloring: fixed color outside palette");
      }
    }
    build_neighbors();
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_[v] < 0) continue;
      for (int u : neighbors(v)) {
        if (fixed_[u] >= 0 && fixed_[u] == fixed_[v]) {
          throw std::invalid_argument(
              "extend_coloring: precoloring is not proper");
        }
      }
    }
    build_fixed_uses();
    // Free vertices in index order; each attempt sorts this sequence.
    s_.free_order.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_[v] < 0) s_.free_order.push_back(v);
    }
    // Everything a restart needs is sized here too, so a warm scratch
    // never allocates mid-search.
    s_.gap.resize(n);
    s_.fixed_list.reserve(n);
    const std::size_t depth = s_.free_order.size();
    s_.cand.resize(depth * static_cast<std::size_t>(palette_));
    s_.cand_count.resize(depth);
    s_.cand_next.resize(depth);
    s_.blocked.assign(static_cast<std::size_t>(palette_), 0);
  }

  /// Orders the free vertices for `attempt`. Attempt 0 sweeps left to
  /// right by (lo, hi), which solves the vast majority of windows
  /// greedily; restarts go most-constrained-first - ascending position gap
  /// to the nearest fixed vertex, so both boundary regions are pinned down
  /// before the free middle absorbs the slack. The gap does not depend on
  /// the attempt, so attempts 2.. reuse attempt 1's order.
  void order_free(int attempt) {
    auto& order = s_.free_order;
    const PathIntervals& rep = rep_;
    if (attempt == 0) {
      std::sort(order.begin(), order.end(),
                [&rep](std::size_t x, std::size_t y) {
                  if (rep.lo[x] != rep.lo[y]) return rep.lo[x] < rep.lo[y];
                  return rep.hi[x] < rep.hi[y];
                });
      return;
    }
    if (attempt > 1) return;
    const std::size_t n = rep.vertices.size();
    auto& gap = s_.gap;
    auto& fixed_list = s_.fixed_list;
    std::fill(gap.begin(), gap.end(), 1 << 28);
    fixed_list.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_[v] >= 0) fixed_list.push_back(v);
    }
    // The sort input is the index-ordered free list, as for attempt 0.
    order.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (fixed_[v] >= 0) continue;
      order.push_back(v);
      for (std::size_t w : fixed_list) {
        const int d = std::max({0, rep.lo[v] - rep.hi[w],
                                rep.lo[w] - rep.hi[v]});
        gap[v] = std::min(gap[v], d);
      }
    }
    std::sort(order.begin(), order.end(),
              [&rep, &gap](std::size_t x, std::size_t y) {
                if (gap[x] != gap[y]) return gap[x] < gap[y];
                if (rep.lo[x] != rep.lo[y]) return rep.lo[x] < rep.lo[y];
                return rep.hi[x] < rep.hi[y];
              });
  }

  enum class Outcome { kSolved, kInfeasible, kExhausted };

  /// Depth-first search over the free vertices in order: each depth tries
  /// its candidates in value order, and each tried value costs one node.
  /// An explicit stack of per-depth candidate buffers replaces recursion.
  Outcome run(int rotation, std::int64_t budget) {
    const std::size_t n = rep_.vertices.size();
    colors_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      colors_[v] = fixed_[v] >= 0 ? fixed_[v] : -1;
    }
    const std::size_t depth = s_.free_order.size();
    if (depth == 0) return Outcome::kSolved;
    expand(0, rotation);
    std::size_t d = 0;
    for (;;) {
      if (s_.cand_next[d] == s_.cand_count[d]) {
        // Every value at this depth failed: undo the parent's choice.
        if (d == 0) return Outcome::kInfeasible;
        --d;
        colors_[s_.free_order[d]] = -1;
        if (stats_ != nullptr) stats_->used_backtracking = true;
        continue;
      }
      const int c = take_next(d, rotation);
      if (--budget <= 0) return Outcome::kExhausted;
      if (stats_ != nullptr) ++stats_->backtrack_nodes;
      colors_[s_.free_order[d]] = c;
      if (++d == depth) return Outcome::kSolved;
      expand(d, rotation);
    }
  }

 private:
  std::span<const int> neighbors(std::size_t v) const {
    return {s_.nbr.data() + s_.nbr_off[v], s_.nbr_off[v + 1] - s_.nbr_off[v]};
  }

  /// CSR adjacency by one sweep in lo order (counting sort over the
  /// occupied positions): each interval meets exactly the later-starting
  /// ones that start by its hi.
  void build_neighbors() {
    const std::size_t n = rep_.vertices.size();
    auto& off = s_.nbr_off;
    off.assign(n + 1, 0);
    s_.nbr.clear();
    if (n == 0) return;
    int first = rep_.lo[0], last = rep_.lo[0];
    for (std::size_t v = 1; v < n; ++v) {
      first = std::min(first, rep_.lo[v]);
      last = std::max(last, rep_.lo[v]);
    }
    auto& bucket = s_.bucket;
    bucket.assign(static_cast<std::size_t>(last - first) + 2, 0);
    for (std::size_t v = 0; v < n; ++v) {
      ++bucket[static_cast<std::size_t>(rep_.lo[v] - first) + 1];
    }
    for (std::size_t p = 1; p < bucket.size(); ++p) bucket[p] += bucket[p - 1];
    auto& by_lo = s_.by_lo;
    by_lo.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      by_lo[static_cast<std::size_t>(
          bucket[static_cast<std::size_t>(rep_.lo[v] - first)]++)] =
          static_cast<int>(v);
    }
    auto for_each_edge = [&](auto&& edge) {
      for (std::size_t i = 0; i < n; ++i) {
        const int a = by_lo[i];
        for (std::size_t j = i + 1; j < n; ++j) {
          const int b = by_lo[j];
          if (rep_.lo[b] > rep_.hi[a]) break;
          edge(a, b);
        }
      }
    };
    for_each_edge([&off](int a, int b) {
      ++off[static_cast<std::size_t>(a) + 1];
      ++off[static_cast<std::size_t>(b) + 1];
    });
    for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];
    s_.nbr.resize(off[n]);
    auto& nbr = s_.nbr;
    for_each_edge([&off, &nbr](int a, int b) {
      nbr[off[static_cast<std::size_t>(a)]++] = b;
      nbr[off[static_cast<std::size_t>(b)]++] = a;
    });
    // The fill advanced each offset to the next list's start; shift back.
    for (std::size_t v = n; v > 0; --v) off[v] = off[v - 1];
    off[0] = 0;
  }

  /// Every fixed use as one (color, lo) key, ascending.
  void build_fixed_uses() {
    s_.uses.clear();
    for (std::size_t v = 0; v < rep_.vertices.size(); ++v) {
      if (fixed_[v] >= 0) s_.uses.push_back(use_key(fixed_[v], rep_.lo[v]));
    }
    std::sort(s_.uses.begin(), s_.uses.end());
  }

  /// Position of the first fixed use of color c strictly right of hi; past
  /// the last position when none (the color is "safe forever").
  int next_fixed_use_after(int c, int hi) const {
    const auto it =
        std::upper_bound(s_.uses.begin(), s_.uses.end(), use_key(c, hi));
    if (it == s_.uses.end() || static_cast<int>(*it >> 32) != c) {
      return rep_.num_positions + 1;
    }
    return static_cast<int>(static_cast<std::uint32_t>(*it) ^ 0x80000000u);
  }

  /// Fills depth d's candidate buffer with the value keys of the colors no
  /// assigned neighbour holds.
  void expand(std::size_t d, int rotation) {
    const std::size_t v = s_.free_order[d];
    for (int u : neighbors(v)) {
      if (colors_[u] >= 0) s_.blocked[static_cast<std::size_t>(colors_[u])] = 1;
    }
    std::uint64_t* cand =
        s_.cand.data() + d * static_cast<std::size_t>(palette_);
    int count = 0;
    for (int c = 0; c < palette_; ++c) {
      if (s_.blocked[static_cast<std::size_t>(c)]) continue;
      cand[count++] = value_key(next_fixed_use_after(c, rep_.hi[v]),
                                (c + rotation * 7) % palette_);
    }
    std::fill(s_.blocked.begin(), s_.blocked.end(), 0);
    s_.cand_count[d] = count;
    s_.cand_next[d] = 0;
  }

  /// Depth d's next value in value order: a selection step, so a depth the
  /// search passes greedily costs one scan rather than a sort.
  int take_next(std::size_t d, int rotation) {
    std::uint64_t* cand =
        s_.cand.data() + d * static_cast<std::size_t>(palette_);
    const int next = s_.cand_next[d]++;
    int best = next;
    for (int j = next + 1; j < s_.cand_count[d]; ++j) {
      if (cand[j] < cand[best]) best = j;
    }
    std::swap(cand[next], cand[best]);
    return key_color(cand[next], rotation, palette_);
  }

  const PathIntervals& rep_;
  std::span<const int> fixed_;
  int palette_;
  WindowScratch& s_;
  std::vector<int>& colors_;
  RecolorStats* stats_;
};

}  // namespace

bool extend_coloring(const PathIntervals& rep, std::span<const int> fixed,
                     int palette, WindowScratch& scratch,
                     std::vector<int>& colors, RecolorStats* stats,
                     std::int64_t node_budget) {
  if (palette <= 0) {
    throw std::invalid_argument("extend_coloring: empty palette");
  }
  Search search(rep, fixed, palette, scratch, colors, stats);
  search.prepare();
  // Deterministic restarts: each attempt rotates the value-ordering
  // tie-break, which is usually enough to escape a thrashing region. The
  // first attempt gets half the budget, the rest share the remainder.
  for (int attempt = 0; attempt < kRestarts; ++attempt) {
    const std::int64_t slice =
        attempt == 0 ? node_budget / 2
                     : node_budget / (2 * (kRestarts - 1));
    search.order_free(attempt);
    switch (search.run(attempt, std::max<std::int64_t>(slice, 1000))) {
      case Search::Outcome::kSolved:
        return true;
      case Search::Outcome::kInfeasible:
        return false;  // proven infeasible
      case Search::Outcome::kExhausted:
        if (stats != nullptr) stats->used_backtracking = true;
        break;
    }
  }
  return false;
}

std::optional<std::vector<int>> extend_coloring(const RecolorProblem& problem,
                                                RecolorStats* stats,
                                                std::int64_t node_budget) {
  WindowScratch scratch;
  std::vector<int> colors;
  if (!extend_coloring(problem.rep, problem.fixed, problem.palette, scratch,
                       colors, stats, node_budget)) {
    return std::nullopt;
  }
  return colors;
}

}  // namespace chordal::interval
