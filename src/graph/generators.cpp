#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/ids.hpp"

namespace chordal {

namespace {

// Streaming generators take long long n (they target scales where the count
// itself is the interesting input); the Graph API computes in int, so both
// the configured id width and INT_MAX bound the accepted range.
void check_streaming_vertex_count(long long n, const char* what) {
  checked_vertex_id(n, what);
  if (n > static_cast<long long>(std::numeric_limits<int>::max())) {
    throw IdOverflowError(std::string(what) + ": vertex count " +
                          std::to_string(n) +
                          " exceeds the Graph API bound INT_MAX");
  }
}

}  // namespace

Graph path_graph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph complete_graph(int n) {
  GraphBuilder b(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

Graph star_graph(int leaves) {
  GraphBuilder b(leaves + 1);
  for (int v = 1; v <= leaves; ++v) b.add_edge(0, v);
  return b.build();
}

Graph windmill_graph(int core, int blades, int blade_size) {
  GraphBuilder b(core + blades * blade_size);
  for (int i = 0; i < core; ++i) {
    for (int j = i + 1; j < core; ++j) b.add_edge(i, j);
  }
  for (int blade = 0; blade < blades; ++blade) {
    int lo = core + blade * blade_size;
    for (int i = 0; i < blade_size; ++i) {
      for (int j = 0; j < core; ++j) b.add_edge(lo + i, j);
      for (int j = i + 1; j < blade_size; ++j) b.add_edge(lo + i, lo + j);
    }
  }
  return b.build();
}

Graph caterpillar(int spine, int legs) {
  GraphBuilder b(spine * (1 + legs));
  for (int s = 0; s + 1 < spine; ++s) b.add_edge(s, s + 1);
  int next = spine;
  for (int s = 0; s < spine; ++s) {
    for (int l = 0; l < legs; ++l) b.add_edge(s, next++);
  }
  return b.build();
}

Graph broom(int handle, int bristles) {
  GraphBuilder b(handle + bristles);
  for (int v = 0; v + 1 < handle; ++v) b.add_edge(v, v + 1);
  for (int l = 0; l < bristles; ++l) b.add_edge(handle - 1, handle + l);
  return b.build();
}

Graph random_tree(int n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<int>(rng.next_below(v)));
  }
  return b.build();
}

Graph random_chordal(const RandomChordalConfig& config) {
  if (config.n <= 0) throw std::invalid_argument("random_chordal: n <= 0");
  if (config.max_clique < 2) {
    throw std::invalid_argument("random_chordal: max_clique < 2");
  }
  Rng rng(config.seed);
  GraphBuilder b(config.n);
  // clique_at[v]: a clique containing v, recorded at v's insertion.
  std::vector<std::vector<int>> clique_at(
      static_cast<std::size_t>(config.n));
  clique_at[0] = {0};
  for (int v = 1; v < config.n; ++v) {
    int anchor = rng.chance(config.chain_bias)
                     ? v - 1
                     : static_cast<int>(rng.next_below(v));
    std::vector<int> base = clique_at[anchor];
    int max_take = std::min<int>(static_cast<int>(base.size()),
                                 config.max_clique - 1);
    int take = 1 + static_cast<int>(rng.next_below(max_take));
    rng.shuffle(base);
    base.resize(static_cast<std::size_t>(take));
    for (int u : base) b.add_edge(v, u);
    base.push_back(v);
    std::sort(base.begin(), base.end());
    clique_at[v] = std::move(base);
  }
  return b.build();
}

namespace {

/// Tree edges (parent, child) for `num_bags` bags under the given shape.
std::vector<std::pair<int, int>> tree_skeleton(int num_bags, TreeShape shape,
                                               Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(num_bags) - 1);
  switch (shape) {
    case TreeShape::kPath:
      for (int i = 1; i < num_bags; ++i) edges.emplace_back(i - 1, i);
      break;
    case TreeShape::kCaterpillar: {
      // Two thirds spine, one third pendant bags spread along it.
      int spine = std::max(1, 2 * num_bags / 3);
      for (int i = 1; i < spine; ++i) edges.emplace_back(i - 1, i);
      for (int i = spine; i < num_bags; ++i) {
        edges.emplace_back(static_cast<int>(rng.next_below(spine)), i);
      }
      break;
    }
    case TreeShape::kRandom:
      for (int i = 1; i < num_bags; ++i) {
        edges.emplace_back(static_cast<int>(rng.next_below(i)), i);
      }
      break;
    case TreeShape::kBinary:
      for (int i = 1; i < num_bags; ++i) edges.emplace_back((i - 1) / 2, i);
      break;
    case TreeShape::kSpider: {
      // Hub bag 0 with ~sqrt(num_bags) legs of equal length.
      int legs = std::max(3, static_cast<int>(std::max(1.0,
                          std::sqrt(static_cast<double>(num_bags)))));
      int prev_on_leg = -1;
      int leg_len = std::max(1, (num_bags - 1) / legs);
      for (int i = 1; i < num_bags; ++i) {
        int idx_on_leg = (i - 1) % leg_len;
        if (idx_on_leg == 0) prev_on_leg = 0;
        edges.emplace_back(prev_on_leg, i);
        prev_on_leg = i;
      }
      break;
    }
  }
  return edges;
}

}  // namespace

GeneratedChordal random_chordal_from_clique_tree(const CliqueTreeConfig& c) {
  if (c.num_bags <= 0) {
    throw std::invalid_argument("clique_tree generator: num_bags <= 0");
  }
  if (c.min_bag_size < 1 || c.max_bag_size < c.min_bag_size) {
    throw std::invalid_argument("clique_tree generator: bad bag sizes");
  }
  Rng rng(c.seed);
  GeneratedChordal out;
  out.tree_edges = tree_skeleton(c.num_bags, c.shape, rng);
  out.bags.resize(static_cast<std::size_t>(c.num_bags));

  int next_vertex = 0;
  auto fresh = [&next_vertex]() { return next_vertex++; };

  int root_size = static_cast<int>(
      rng.uniform_int(c.min_bag_size, c.max_bag_size));
  for (int i = 0; i < root_size; ++i) out.bags[0].push_back(fresh());

  // tree_skeleton emits children in increasing index order with parents
  // already materialized, so one pass suffices.
  for (auto [parent, child] : out.tree_edges) {
    std::vector<int> inherit = out.bags[parent];
    int shared_cap = std::min<int>({static_cast<int>(inherit.size()),
                                    c.max_shared, c.max_bag_size - 1});
    int shared = 1 + static_cast<int>(rng.next_below(shared_cap));
    rng.shuffle(inherit);
    inherit.resize(static_cast<std::size_t>(shared));
    int size = static_cast<int>(rng.uniform_int(
        std::max(c.min_bag_size, shared + 1), std::max(c.max_bag_size,
                                                       shared + 1)));
    while (static_cast<int>(inherit.size()) < size) inherit.push_back(fresh());
    std::sort(inherit.begin(), inherit.end());
    out.bags[child] = std::move(inherit);
  }

  GraphBuilder b(next_vertex);
  for (const auto& bag : out.bags) {
    for (std::size_t i = 0; i < bag.size(); ++i) {
      for (std::size_t j = i + 1; j < bag.size(); ++j) {
        b.add_edge(bag[i], bag[j]);
      }
    }
  }
  out.graph = b.build();
  return out;
}

GeneratedInterval random_interval(const RandomIntervalConfig& config) {
  Rng rng(config.seed);
  GeneratedInterval out;
  out.left.resize(static_cast<std::size_t>(config.n));
  out.right.resize(static_cast<std::size_t>(config.n));
  for (int v = 0; v < config.n; ++v) {
    double len = config.min_len +
                 rng.uniform01() * (config.max_len - config.min_len);
    double start = rng.uniform01() * config.window;
    out.left[v] = start;
    out.right[v] = start + len;
  }
  GraphBuilder b(config.n);
  // Sweep by left endpoint; O(n^2) worst case but fine at bench scales.
  std::vector<int> order(static_cast<std::size_t>(config.n));
  for (int v = 0; v < config.n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](int a, int bb) {
    return out.left[a] < out.left[bb];
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      int u = order[i], v = order[j];
      if (out.left[v] > out.right[u]) break;
      b.add_edge(u, v);
    }
  }
  out.graph = b.build();
  return out;
}

GeneratedInterval random_unit_interval(int n, double window,
                                       std::uint64_t seed) {
  RandomIntervalConfig config;
  config.n = n;
  config.window = window;
  config.min_len = 1.0;
  config.max_len = 1.0;
  config.seed = seed;
  return random_interval(config);
}

GeneratedInterval staircase_interval(int n, double step, double jitter,
                                     std::uint64_t seed) {
  Rng rng(seed);
  GeneratedInterval out;
  out.left.resize(static_cast<std::size_t>(n));
  out.right.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    double start = v * step + (rng.uniform01() * 2.0 - 1.0) * jitter;
    out.left[v] = start;
    out.right[v] = start + 1.0;
  }
  GraphBuilder b(n);
  // Interval v starts within [v*step - jitter, v*step + jitter], so overlap
  // is impossible once (v - u) * step exceeds 1 + 2*jitter.
  int span = step > 0 ? static_cast<int>((1.0 + 2.0 * jitter) / step) + 1
                      : n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < std::min(n, u + span + 1); ++v) {
      if (out.left[u] <= out.right[v] && out.left[v] <= out.right[u]) {
        b.add_edge(u, v);
      }
    }
  }
  out.graph = b.build();
  return out;
}

StreamingInterval streaming_interval_graph(const StreamingIntervalConfig& c) {
  if (c.n < 0) {
    throw std::invalid_argument("streaming_interval_graph: negative n");
  }
  if (c.gap_mean <= 0.0 || c.min_len < 0.0 || c.max_len < c.min_len) {
    throw std::invalid_argument("streaming_interval_graph: bad geometry");
  }
  check_streaming_vertex_count(c.n, "streaming_interval_graph");
  const long long n = c.n;
  Rng rng(c.seed);
  StreamingInterval out;
  out.left.resize(static_cast<std::size_t>(n));
  out.right.resize(static_cast<std::size_t>(n));
  double cursor = 0.0;
  for (long long v = 0; v < n; ++v) {
    // Exponential arrival gaps keep the left endpoints sorted as generated.
    cursor += -std::log1p(-rng.uniform01()) * c.gap_mean;
    const double len = c.min_len + rng.uniform01() * (c.max_len - c.min_len);
    out.left[v] = cursor;
    out.right[v] = cursor + len;
  }
  if (n == 0) {
    out.graph.adopt_csr(0, std::vector<EdgeIndex>(1, 0), {});
    return out;
  }
  // Pass 1: v's forward neighbors are the contiguous range (v, reach[v]]
  // (left endpoints sorted). Forward degrees come straight from the scan;
  // backward degrees via a difference array over those ranges. Total scan
  // cost is O(n + m).
  std::vector<VertexId> reach(static_cast<std::size_t>(n));
  std::vector<EdgeIndex> bwd_diff(static_cast<std::size_t>(n) + 1, 0);
  long long total = 0;
  for (long long v = 0; v < n; ++v) {
    long long j = v + 1;
    while (j < n && out.left[j] <= out.right[v]) ++j;
    reach[v] = static_cast<VertexId>(j - 1);
    const long long fwd = j - 1 - v;
    if (fwd > 0) {
      total += 2 * fwd;
      ++bwd_diff[static_cast<std::size_t>(v) + 1];
      --bwd_diff[static_cast<std::size_t>(j)];
    }
  }
  checked_edge_index(total, "streaming_interval_graph adjacency volume");
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  EdgeIndex running_bwd = 0;
  for (long long v = 0; v < n; ++v) {
    running_bwd += bwd_diff[static_cast<std::size_t>(v)];
    const EdgeIndex degree =
        static_cast<EdgeIndex>(reach[v] - v) + running_bwd;
    offsets[v + 1] = offsets[v] + degree;
  }
  bwd_diff.clear();
  bwd_diff.shrink_to_fit();
  // Pass 2: one write cursor per row. Processing v ascending writes each
  // row's backward part (from smaller v) before its forward part, and both
  // parts ascend - rows come out sorted with no post-pass.
  std::vector<VertexId> adj(static_cast<std::size_t>(total));
  std::vector<EdgeIndex> cur(offsets.begin(), offsets.end() - 1);
  for (long long v = 0; v < n; ++v) {
    for (long long u = v + 1; u <= reach[v]; ++u) {
      adj[static_cast<std::size_t>(cur[v]++)] = static_cast<VertexId>(u);
      adj[static_cast<std::size_t>(cur[u]++)] = static_cast<VertexId>(v);
    }
  }
  out.graph.adopt_csr(static_cast<int>(n), std::move(offsets),
                      std::move(adj));
  return out;
}

Graph streaming_k_tree(long long n, int k, std::uint64_t seed) {
  if (k < 1 || n < k + 1) {
    throw std::invalid_argument("streaming_k_tree: need n >= k+1, k >= 1");
  }
  check_streaming_vertex_count(n, "streaming_k_tree");
  Rng rng(seed);
  const long long added = n - (k + 1);
  // One flat attachment slab: the k host vertices of each added vertex.
  // The k-cliques a new vertex may attach to exist only implicitly - clique
  // id c > k decodes to (owner = k+1 + (c-k-1)/k, skip = (c-k-1)%k) with
  // member word [attach(owner) minus slot skip, then owner]. Initial
  // cliques c <= k are {0..k} \ {c}. One next_below per added vertex picks
  // the host clique uniformly among the (k+1) + (v-k-1)*k so far.
  std::vector<VertexId> attach(static_cast<std::size_t>(added) *
                               static_cast<std::size_t>(k));
  for (long long v = k + 1; v < n; ++v) {
    const long long num_cliques = (k + 1) + (v - (k + 1)) * k;
    const long long c =
        static_cast<long long>(rng.next_below(
            static_cast<std::uint64_t>(num_cliques)));
    VertexId* word =
        attach.data() + static_cast<std::size_t>(v - (k + 1)) * k;
    if (c <= k) {
      int w = 0;
      for (int u = 0; u <= k; ++u) {
        if (u != c) word[w++] = static_cast<VertexId>(u);
      }
    } else {
      const long long t = c - (k + 1);
      const long long owner = (k + 1) + t / k;
      const int skip = static_cast<int>(t % k);
      const VertexId* host =
          attach.data() + static_cast<std::size_t>(owner - (k + 1)) * k;
      int w = 0;
      for (int i = 0; i < k; ++i) {
        if (i != skip) word[w++] = host[i];
      }
      word[w] = static_cast<VertexId>(owner);
    }
  }
  // Degrees -> offsets: the initial K_{k+1} gives every vertex 0..k degree
  // k; each added vertex contributes k to itself and 1 to each host.
  const long long total =
      2 * (static_cast<long long>(k) * (k + 1) / 2 + added * k);
  checked_edge_index(total, "streaming_k_tree adjacency volume");
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (int u = 0; u <= k; ++u) offsets[u + 1] = static_cast<EdgeIndex>(k);
  for (long long v = k + 1; v < n; ++v) {
    const VertexId* word =
        attach.data() + static_cast<std::size_t>(v - (k + 1)) * k;
    offsets[v + 1] += static_cast<EdgeIndex>(k);
    for (int i = 0; i < k; ++i) ++offsets[static_cast<std::size_t>(word[i]) + 1];
  }
  for (long long v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  // Fill: initial clique rows ascending; then each added vertex writes its
  // own (sorted) host word and appends itself to the hosts' rows. Appended
  // ids ascend with v and exceed everything already in those rows, so every
  // row is born sorted.
  std::vector<VertexId> adj(static_cast<std::size_t>(total));
  std::vector<EdgeIndex> cur(offsets.begin(), offsets.end() - 1);
  for (int u = 0; u <= k; ++u) {
    for (int w = 0; w <= k; ++w) {
      if (w != u) adj[static_cast<std::size_t>(cur[u]++)] =
          static_cast<VertexId>(w);
    }
  }
  std::vector<VertexId> word_sorted(static_cast<std::size_t>(k));
  for (long long v = k + 1; v < n; ++v) {
    const VertexId* word =
        attach.data() + static_cast<std::size_t>(v - (k + 1)) * k;
    std::copy(word, word + k, word_sorted.begin());
    std::sort(word_sorted.begin(), word_sorted.end());
    for (int i = 0; i < k; ++i) {
      adj[static_cast<std::size_t>(cur[v]++)] = word_sorted[i];
      adj[static_cast<std::size_t>(cur[word_sorted[i]]++)] =
          static_cast<VertexId>(v);
    }
  }
  Graph g;
  g.adopt_csr(static_cast<int>(n), std::move(offsets), std::move(adj));
  return g;
}

}  // namespace chordal
