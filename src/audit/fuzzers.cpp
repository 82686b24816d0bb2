#include "audit/fuzzers.hpp"

#include <algorithm>
#include <utility>

#include "graph/generators.hpp"
#include "graph/graphio.hpp"
#include "support/rng.hpp"

namespace chordal::audit {

namespace {

/// Disjoint union over an explicit builder (the library has no union op;
/// the fuzzers deliberately build it by hand to exercise GraphBuilder).
Graph disjoint_union(const std::vector<Graph>& parts, int extra_isolated) {
  int total = extra_isolated;
  for (const Graph& p : parts) total += p.num_vertices();
  GraphBuilder b(total);
  int base = 0;
  for (const Graph& p : parts) {
    for (auto [u, v] : p.edges()) b.add_edge(base + u, base + v);
    base += p.num_vertices();
  }
  return b.build();
}

/// Path power P_n^{w}: edge iff |i - j| <= w. Every consecutive-bag
/// intersection has the same size, so the forest tie-breaks decide all.
Graph band_graph(int n, int w) {
  GraphBuilder b(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n && j <= i + w; ++j) b.add_edge(i, j);
  }
  return b.build();
}

Graph small_component(Rng& rng, int max_n) {
  int pick = static_cast<int>(rng.next_below(6));
  int n = 2 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(std::max(2, max_n - 2))));
  switch (pick) {
    case 0: {
      RandomChordalConfig c;
      c.n = n;
      c.max_clique = 2 + static_cast<int>(rng.next_below(5));
      c.chain_bias = rng.uniform01();
      c.seed = rng.next();
      return random_chordal(c);
    }
    case 1: {
      // Clamp n to k+1, not a constant: (n=3, k=3) used to slip through and
      // trip streaming_k_tree's precondition on rare seeds.
      int k = 1 + static_cast<int>(rng.next_below(8));
      return streaming_k_tree(std::max(n, k + 1), k, rng.next());
    }
    case 2:
      return path_graph(n);
    case 3:
      return star_graph(n - 1);
    case 4:
      return complete_graph(std::min(n, 8));
    default:
      return random_tree(n, rng.next());
  }
}

}  // namespace

int num_degenerate_graphs() { return 14; }

Graph degenerate_graph(int which) {
  switch (which) {
    case 0: return GraphBuilder(0).build();
    case 1: return GraphBuilder(1).build();
    case 2: return GraphBuilder(2).build();
    case 3: {
      GraphBuilder b(2);
      b.add_edge(0, 1);
      return b.build();
    }
    case 4: return complete_graph(3);
    case 5: return path_graph(5);
    case 6: return star_graph(1);
    case 7: return star_graph(6);
    case 8: return complete_graph(6);
    case 9: return GraphBuilder(10).build();
    case 10: return caterpillar(3, 2);
    case 11: return broom(4, 3);
    case 12: {
      GraphBuilder b(3);  // one edge plus an isolated vertex
      b.add_edge(0, 1);
      return b.build();
    }
    default:
      return disjoint_union({complete_graph(3), complete_graph(3)}, 0);
  }
}

Graph random_chordal_mix(std::uint64_t seed) {
  Rng rng(seed ^ 0x6d697865645f6731ULL);
  switch (rng.next_below(4)) {
    case 0: {
      RandomChordalConfig c;
      c.n = 20 + static_cast<int>(rng.next_below(180));
      c.max_clique = 2 + static_cast<int>(rng.next_below(7));
      c.chain_bias = rng.uniform01();
      c.seed = rng.next();
      return random_chordal(c);
    }
    case 1: {
      CliqueTreeConfig c;
      c.num_bags = 5 + static_cast<int>(rng.next_below(70));
      c.min_bag_size = 1 + static_cast<int>(rng.next_below(2));
      c.max_bag_size = c.min_bag_size + 1 + static_cast<int>(rng.next_below(4));
      c.max_shared = 1 + static_cast<int>(rng.next_below(3));
      c.shape = static_cast<TreeShape>(rng.next_below(5));
      c.seed = rng.next();
      return random_chordal_from_clique_tree(c).graph;
    }
    case 2:
      return streaming_k_tree(10 + static_cast<int>(rng.next_below(120)),
                           1 + static_cast<int>(rng.next_below(4)),
                           rng.next());
    default:
      return random_unit_interval(10 + static_cast<int>(rng.next_below(120)),
                                  20.0 + rng.uniform01() * 60.0, rng.next())
          .graph;
  }
}

Graph disconnected_union(std::uint64_t seed) {
  Rng rng(seed ^ 0x756e696f6e5f6732ULL);
  int parts = 2 + static_cast<int>(rng.next_below(4));
  std::vector<Graph> components;
  components.reserve(static_cast<std::size_t>(parts));
  for (int i = 0; i < parts; ++i) components.push_back(small_component(rng, 50));
  int isolated = static_cast<int>(rng.next_below(6));
  return disjoint_union(components, isolated);
}

Graph tie_storm(std::uint64_t seed) {
  Rng rng(seed ^ 0x7469655f73746f72ULL);
  if (rng.next_below(2) == 0) {
    // Hub storms: a windmill's core or a k-tree's hubs sit in nearly every
    // clique, and every k-tree separator has exactly k vertices.
    if (rng.next_below(2) == 0) {
      int k = 1 + static_cast<int>(rng.next_below(8));
      int n = (k + 1) + static_cast<int>(rng.next_below(120));
      return streaming_k_tree(n, k, rng.next());
    }
    int core = 1 + static_cast<int>(rng.next_below(4));
    int blades = 3 + static_cast<int>(rng.next_below(18));
    int blade_size = 1 + static_cast<int>(rng.next_below(3));
    return windmill_graph(core, blades, blade_size);
  }
  int w = 1 + static_cast<int>(rng.next_below(5));
  int n = (w + 2) + static_cast<int>(rng.next_below(120));
  return band_graph(n, w);
}

Graph near_chordal(std::uint64_t seed) {
  Rng rng(seed ^ 0x63796b6c655f6733ULL);
  Graph base = random_chordal_mix(rng.next());
  int nb = base.num_vertices();
  int cycle = 4 + static_cast<int>(rng.next_below(22));
  GraphBuilder b(nb + cycle);
  for (auto [u, v] : base.edges()) b.add_edge(u, v);
  for (int i = 0; i < cycle; ++i) {
    b.add_edge(nb + i, nb + (i + 1) % cycle);
  }
  // A single bridge to the chordal part adds no chord of the cycle.
  if (nb > 0 && rng.chance(0.5)) {
    b.add_edge(static_cast<int>(rng.next_below(
                   static_cast<std::uint64_t>(nb))),
               nb + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(cycle))));
  }
  return b.build();
}

StreamCase corrupt_stream(std::uint64_t seed) {
  Rng rng(seed ^ 0x73747265616d5f67ULL);
  Graph base = rng.chance(0.2)
                   ? degenerate_graph(static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(
                             num_degenerate_graphs()))))
                   : random_chordal_mix(rng.next());
  std::string text = graph_to_string(base);
  long long n = base.num_vertices();
  long long m = static_cast<long long>(base.num_edges());
  std::size_t header_end = text.find('\n');

  StreamCase out;
  out.seed = seed;
  int kind = static_cast<int>(rng.next_below(13));
  switch (kind) {
    case 0:
      out.family = "pristine";
      out.expect = StreamExpect::kMustParse;
      break;
    case 1: {
      // Duplicate one edge line and bump m: the builder deduplicates, so
      // the stream must still parse to the same graph.
      if (m < 1 || m + 1 > n * (n - 1) / 2) {
        out.family = "pristine";
        out.expect = StreamExpect::kMustParse;
        break;
      }
      out.family = "duplicate_edge";
      out.expect = StreamExpect::kMustParse;
      auto edges = base.edges();
      auto [u, v] =
          edges[rng.next_below(static_cast<std::uint64_t>(edges.size()))];
      text = std::to_string(n) + " " + std::to_string(m + 1) +
             text.substr(header_end) + std::to_string(u) + " " +
             std::to_string(v) + "\n";
      break;
    }
    case 2:
      out.family = "negative_n";
      out.expect = StreamExpect::kMustReject;
      text = "-" + std::to_string(1 + rng.next_below(1000)) + " " +
             std::to_string(m) + text.substr(header_end);
      break;
    case 3:
      out.family = "negative_m";
      out.expect = StreamExpect::kMustReject;
      text = std::to_string(n) + " -" + std::to_string(1 + rng.next_below(1000)) +
             text.substr(header_end);
      break;
    case 4:
      out.family = "absurd_m";
      out.expect = StreamExpect::kMustReject;
      text = std::to_string(n) + " " +
             std::to_string(n * (n - 1) / 2 + 1 +
                            static_cast<long long>(rng.next_below(1 << 20))) +
             text.substr(header_end);
      break;
    case 5:
      out.family = "overflow_n";
      out.expect = StreamExpect::kMustReject;
      text = std::to_string(3000000000LL + static_cast<long long>(
                                               rng.next_below(1ULL << 40))) +
             " 0\n";
      break;
    case 6: {
      if (m < 1) {
        out.family = "pristine";
        out.expect = StreamExpect::kMustParse;
        break;
      }
      out.family = "oob_endpoint";
      out.expect = StreamExpect::kMustReject;
      auto edges = base.edges();
      auto [u, v] =
          edges[rng.next_below(static_cast<std::uint64_t>(edges.size()))];
      std::string needle =
          std::to_string(u) + " " + std::to_string(v) + "\n";
      std::string repl = std::to_string(u) + " " +
                         std::to_string(n + static_cast<long long>(
                                                rng.next_below(100))) +
                         "\n";
      text.replace(text.find(needle, header_end), needle.size(), repl);
      break;
    }
    case 7: {
      if (m < 1) {
        out.family = "pristine";
        out.expect = StreamExpect::kMustParse;
        break;
      }
      out.family = "negative_endpoint";
      out.expect = StreamExpect::kMustReject;
      auto edges = base.edges();
      auto [u, v] =
          edges[rng.next_below(static_cast<std::uint64_t>(edges.size()))];
      std::string needle =
          std::to_string(u) + " " + std::to_string(v) + "\n";
      std::string repl =
          "-" + std::to_string(1 + rng.next_below(50)) + " " +
          std::to_string(v) + "\n";
      text.replace(text.find(needle, header_end), needle.size(), repl);
      break;
    }
    case 8: {
      if (n < 1 || m + 1 > n * (n - 1) / 2) {
        out.family = "pristine";
        out.expect = StreamExpect::kMustParse;
        break;
      }
      out.family = "self_loop";
      out.expect = StreamExpect::kMustReject;
      long long v = static_cast<long long>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      text = std::to_string(n) + " " + std::to_string(m + 1) +
             text.substr(header_end) + std::to_string(v) + " " +
             std::to_string(v) + "\n";
      break;
    }
    case 9: {
      out.family = "truncated";
      out.expect = StreamExpect::kNoCrash;
      std::size_t cut = rng.next_below(
          static_cast<std::uint64_t>(text.size()) + 1);
      text.resize(cut);
      break;
    }
    case 10: {
      out.family = "garbage_token";
      out.expect = StreamExpect::kNoCrash;
      static const char* kJunk[] = {"x&", "NaN", "0.5", "1e99", "--", "0x1f"};
      std::size_t pos = rng.next_below(
          static_cast<std::uint64_t>(text.size()) + 1);
      text.insert(pos, kJunk[rng.next_below(6)]);
      break;
    }
    case 11: {
      out.family = "binary_noise";
      out.expect = StreamExpect::kNoCrash;
      int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips && !text.empty(); ++i) {
        text[rng.next_below(static_cast<std::uint64_t>(text.size()))] =
            static_cast<char>(rng.next_below(256));
      }
      break;
    }
    default: {
      // Token streams ignore line structure: flattening every newline to a
      // space must parse to the identical graph.
      out.family = "whitespace_shuffle";
      out.expect = StreamExpect::kMustParse;
      for (char& c : text) {
        if (c == '\n' && rng.chance(0.7)) c = ' ';
      }
      break;
    }
  }
  out.name = out.family + "#" + std::to_string(seed);
  out.text = std::move(text);
  return out;
}

Corpus build_corpus(const CorpusConfig& config) {
  Corpus corpus;
  std::uint64_t state = config.seed;

  for (int i = 0; i < num_degenerate_graphs(); ++i) {
    GraphCase gc;
    gc.family = "degenerate";
    gc.seed = static_cast<std::uint64_t>(i);
    gc.name = "degenerate#" + std::to_string(i);
    gc.graph = degenerate_graph(i);
    corpus.graphs.push_back(std::move(gc));
  }

  struct Family {
    const char* name;
    Graph (*make)(std::uint64_t);
    bool chordal;
  };
  const Family families[] = {
      {"chordal_mix", &random_chordal_mix, true},
      {"union", &disconnected_union, true},
      {"tie_storm", &tie_storm, true},
      {"near_chordal", &near_chordal, false},
  };
  for (const Family& family : families) {
    for (int i = 0; i < config.per_graph_family; ++i) {
      std::uint64_t seed = splitmix64(state);
      GraphCase gc;
      gc.family = family.name;
      gc.seed = seed;
      gc.name = std::string(family.name) + "#" + std::to_string(seed);
      gc.graph = family.make(seed);
      gc.chordal = family.chordal;
      corpus.graphs.push_back(std::move(gc));
    }
  }

  corpus.streams.reserve(static_cast<std::size_t>(config.num_streams));
  for (int i = 0; i < config.num_streams; ++i) {
    corpus.streams.push_back(corrupt_stream(splitmix64(state)));
  }

  corpus.schedules = build_update_schedules(splitmix64(state),
                                            config.num_schedules);
  return corpus;
}

std::vector<ScheduleCase> build_update_schedules(std::uint64_t seed,
                                                 int count) {
  std::vector<ScheduleCase> schedules;
  schedules.reserve(static_cast<std::size_t>(std::max(count, 0)));
  std::uint64_t state = seed ^ 0x7363686564756c65ULL;  // "schedule"
  for (int i = 0; i < count; ++i) {
    std::uint64_t case_seed = splitmix64(state);
    Rng rng(case_seed);
    ScheduleCase sc;
    sc.seed = case_seed;
    sc.name = "schedule#" + std::to_string(case_seed);
    // Small bases: the audit recomputes every derived structure after every
    // step across the whole execution matrix, so per-case cost must stay
    // bounded. Shapes rotate through the generator families plus the empty
    // and near-empty degenerate corners.
    switch (rng.next_below(5)) {
      case 0: {
        RandomChordalConfig c;
        c.n = 8 + static_cast<int>(rng.next_below(40));
        c.max_clique = 2 + static_cast<int>(rng.next_below(5));
        c.chain_bias = rng.uniform01();
        c.seed = rng.next();
        sc.base = random_chordal(c);
        break;
      }
      case 1:
        sc.base = streaming_k_tree(6 + static_cast<int>(rng.next_below(36)),
                                1 + static_cast<int>(rng.next_below(3)),
                                rng.next());
        break;
      case 2:
        sc.base = random_unit_interval(6 + static_cast<int>(rng.next_below(36)),
                                       6.0 + rng.uniform01() * 14.0,
                                       rng.next())
                      .graph;
        break;
      case 3:
        sc.base = degenerate_graph(static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(num_degenerate_graphs()))));
        break;
      default:
        sc.base = disconnected_union(rng.next());
        break;
    }
    sc.steps = 10 + static_cast<int>(rng.next_below(15));
    schedules.push_back(std::move(sc));
  }
  return schedules;
}

}  // namespace chordal::audit
