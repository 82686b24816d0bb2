// Synthetic workload generators.
//
// The paper evaluates nothing empirically, so these generators define the
// synthetic workloads for all experiments: random chordal graphs (two
// constructions), random (unit) interval graphs, trees, and structured
// families (paths, caterpillars, brooms, k-trees) chosen to stress the
// peeling process of Algorithm 1 in different ways.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace chordal {

// ---------------------------------------------------------------------------
// Deterministic families
// ---------------------------------------------------------------------------

Graph path_graph(int n);
Graph complete_graph(int n);
Graph star_graph(int leaves);
/// Spine of `spine` vertices, `legs` pendant vertices per spine vertex.
Graph caterpillar(int spine, int legs);
/// Path of `handle` vertices ending in a star with `bristles` leaves.
Graph broom(int handle, int bristles);
/// Windmill: a `core` clique plus `blades` cliques of `blade_size` vertices,
/// each joined to the whole core, so every core vertex is in every maximal
/// clique.
Graph windmill_graph(int core, int blades, int blade_size);

// ---------------------------------------------------------------------------
// Random families
// ---------------------------------------------------------------------------

/// Random tree: vertex i >= 1 attaches to a uniform random earlier vertex.
Graph random_tree(int n, std::uint64_t seed);

struct RandomChordalConfig {
  int n = 100;
  /// Upper bound on the clique formed at each vertex insertion (and thus on
  /// omega(G) = chi(G)).
  int max_clique = 4;
  /// Probability that a new vertex attaches to the most recently inserted
  /// vertex instead of a uniform one. Values near 1 yield long, path-like
  /// clique forests (the regime where peeling needs many iterations).
  double chain_bias = 0.5;
  std::uint64_t seed = 1;
};

/// Incremental random chordal graph: each new vertex is attached to a random
/// subset of a clique stored at an existing vertex, so the reverse insertion
/// order is a perfect elimination ordering by construction.
Graph random_chordal(const RandomChordalConfig& config);

/// Shapes for the prescribed-clique-tree generator below.
enum class TreeShape {
  kPath,        // clique tree is a path: graph is interval
  kCaterpillar, // long spine with pendant bags
  kRandom,      // uniform random attachment
  kBinary,      // balanced binary tree
  kSpider,      // several long legs meeting at a hub
};

struct CliqueTreeConfig {
  int num_bags = 50;
  int min_bag_size = 2;
  int max_bag_size = 5;
  /// Maximum number of vertices a child bag inherits from its parent
  /// (at least 1 so the tree stays connected as a graph).
  int max_shared = 3;
  TreeShape shape = TreeShape::kRandom;
  std::uint64_t seed = 1;
};

struct GeneratedChordal {
  Graph graph;
  /// Bags of the generating tree (supersets structure; the canonical clique
  /// forest computed by the library may merge non-maximal bags).
  std::vector<std::vector<int>> bags;
  std::vector<std::pair<int, int>> tree_edges;  // over bag indices
};

/// Builds a chordal graph from a prescribed clique-tree skeleton: bag 0 gets
/// fresh vertices; every other bag inherits a nonempty subset of its parent
/// bag plus at least one fresh vertex. The subtree property holds by
/// construction, so the union of bag cliques is chordal.
GeneratedChordal random_chordal_from_clique_tree(const CliqueTreeConfig& c);

struct RandomIntervalConfig {
  int n = 100;
  /// Interval endpoints are drawn over [0, window).
  double window = 100.0;
  /// Interval length is uniform in [min_len, max_len].
  double min_len = 1.0;
  double max_len = 10.0;
  std::uint64_t seed = 1;
};

struct GeneratedInterval {
  Graph graph;
  std::vector<double> left;
  std::vector<double> right;
};

/// Random interval graph from uniformly placed intervals.
GeneratedInterval random_interval(const RandomIntervalConfig& config);

/// Random unit interval graph (all lengths 1.0).
GeneratedInterval random_unit_interval(int n, double window,
                                       std::uint64_t seed);

/// Staircase of unit intervals: interval i starts near i*step (jittered by
/// +-jitter). For step in (0.5, 1) this is a long proper-interval chain
/// with no dominated vertices - the regime where the distributed interval
/// algorithms (ColIntGraph, Algorithm 5) genuinely need their anchor
/// machinery rather than collapsing to local exact solves.
GeneratedInterval staircase_interval(int n, double step, double jitter,
                                     std::uint64_t seed);

// ---------------------------------------------------------------------------
// Streaming million-node generators
//
// The bulk generators above stage edges in a GraphBuilder pair list, which
// at n = 10^6..10^7 costs multiples of the final CSR slab in peak memory.
// The streaming forms below emit edges directly into the final
// offsets/adjacency slabs - two passes, no pair list, no per-clique
// vectors - so peak resident memory is the output graph plus O(n) flat
// scratch. Counts narrow through graph/ids.hpp and raise IdOverflowError
// rather than truncating.
// ---------------------------------------------------------------------------

struct StreamingIntervalConfig {
  long long n = 1'000'000;
  /// Mean gap between consecutive (sorted) left endpoints: arrivals form a
  /// Poisson process with this spacing, so intervals stream in left-endpoint
  /// order and each vertex's forward neighbors are a contiguous id range.
  double gap_mean = 1.0;
  /// Interval length uniform in [min_len, max_len]; the expected degree is
  /// about 2 * E[length] / gap_mean.
  double min_len = 4.0;
  double max_len = 8.0;
  std::uint64_t seed = 1;
};

struct StreamingInterval {
  Graph graph;
  std::vector<double> left;   // sorted ascending (arrival order == id order)
  std::vector<double> right;  // left[v] + length[v]
};

/// Random interval graph built edge-by-edge into CSR: one pass computes
/// per-vertex degrees (forward by overlap scan, backward by a difference
/// array), a prefix sum sizes the slab exactly, and a second pass scatters
/// both edge directions in sorted order. Peak memory = final slab + O(n).
StreamingInterval streaming_interval_graph(const StreamingIntervalConfig& c);

/// Random k-tree on n vertices (n >= k+1): start from K_{k+1}; each new
/// vertex attaches to a uniformly random existing k-clique. Built through a
/// flat attachment slab (k host ids per vertex) with cliques represented
/// implicitly as (owner vertex, skipped slot) pairs, and edges streamed
/// straight into the CSR slab: peak memory is one k*n id slab plus the
/// output graph.
Graph streaming_k_tree(long long n, int k, std::uint64_t seed);

}  // namespace chordal
