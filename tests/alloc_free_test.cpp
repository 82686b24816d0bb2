// Allocation guard for the interval layer solves: after one warm-up call
// per scratch, interval_model, interval::omega and the window solver (on a
// window no larger than the warm-up one) perform no heap allocation. A
// separate executable, because it replaces the global operator new to
// count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cliqueforest/paths.hpp"
#include "graph/generators.hpp"
#include "interval/rep.hpp"
#include "interval/window_recolor.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// The replacement new allocates with malloc, so freeing with free() in the
// replacement delete is the matching pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace chordal {
namespace {

long long allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(AllocationFree, IntervalModelAfterWarmUp) {
  CliqueTreeConfig config;
  config.num_bags = 80;
  config.shape = TreeShape::kCaterpillar;
  config.seed = 4;
  const Graph g = random_chordal_from_clique_tree(config).graph;
  const CliqueForest forest = CliqueForest::build(g);
  const std::vector<char> active(
      static_cast<std::size_t>(forest.num_cliques()), 1);
  const std::vector<ForestPath> paths = maximal_binary_paths(forest, active);
  ASSERT_GT(paths.size(), 1u);
  PathScratch scratch;
  PathIntervals model;
  for (const ForestPath& path : paths) {
    interval_model(forest.cliques(), path.cliques, scratch, model);
  }
  const long long before = allocs();
  for (const ForestPath& path : paths) {
    interval_model(forest.cliques(), path.cliques, scratch, model);
  }
  EXPECT_EQ(allocs() - before, 0);
}

TEST(AllocationFree, OmegaAfterWarmUp) {
  const auto gen = random_interval(
      {.n = 200, .window = 300.0, .min_len = 1.0, .max_len = 9.0, .seed = 2});
  const PathIntervals rep = interval::from_geometry(gen.left, gen.right);
  std::vector<int> counts;
  const int warm = interval::omega(rep, counts);
  const long long before = allocs();
  const int again = interval::omega(rep, counts);
  EXPECT_EQ(allocs() - before, 0);
  EXPECT_EQ(again, warm);
}

/// `tracks` staggered chains of length-3 intervals with both end columns
/// fixed: the shape of a ColIntGraph gap window.
void make_window(int tracks, int length, PathIntervals& rep,
                 std::vector<int>& fixed) {
  rep = {};
  rep.num_positions = 2 * length + 3;
  for (int t = 0; t < tracks; ++t) {
    for (int p = t % 2; p < 2 * length; p += 2) {
      rep.vertices.push_back(static_cast<int>(rep.vertices.size()));
      rep.lo.push_back(p);
      rep.hi.push_back(p + 2);
    }
  }
  fixed.assign(rep.vertices.size(), -1);
  int left = 0, right = 0;
  for (std::size_t i = 0; i < rep.vertices.size(); ++i) {
    if (rep.lo[i] <= 1) fixed[i] = left++;
    if (rep.hi[i] >= 2 * length) fixed[i] = right++;
  }
}

TEST(AllocationFree, WindowSolverAfterWarmUp) {
  PathIntervals big, small;
  std::vector<int> big_fixed, small_fixed, colors;
  make_window(6, 30, big, big_fixed);
  make_window(4, 12, small, small_fixed);
  interval::WindowScratch scratch;
  const int big_palette = interval::omega(big) + 2;
  ASSERT_TRUE(interval::extend_coloring(big, big_fixed, big_palette, scratch,
                                        colors));
  long long before = allocs();
  EXPECT_TRUE(interval::extend_coloring(big, big_fixed, big_palette, scratch,
                                        colors));
  EXPECT_EQ(allocs() - before, 0);
  const int small_palette = interval::omega(small) + 1;
  before = allocs();
  EXPECT_TRUE(interval::extend_coloring(small, small_fixed, small_palette,
                                        scratch, colors));
  EXPECT_EQ(allocs() - before, 0);
}

}  // namespace
}  // namespace chordal
