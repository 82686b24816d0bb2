// Experiment E13 - the near-linear clique-forest engine. Construction of
// the clique forest (Section 2) and of the per-vertex Lemma 2 family
// forests is the substrate under every driver in this repo; this harness
// records its cost model: full-forest builds across workload scales and a
// per-family MWSF sweep in the exact call shape of compute_local_view.
//
// Every table cell is an output of the construction (sizes, edge counts,
// weights, output hashes), independent of the id width: scripts/check.sh
// diffs the 32-bit and 64-bit id builds cell-for-cell with bench_diff.py
// --parity. Parity with the reference Kruskal is checked by the auditors
// (audit_forest_engine_parity, audit_family_forest_parity) and
// tests/forest_engine_test.cpp, not here. Timings live in the span
// telemetry (wall_ms, scrubbed by --parity) and allocation counts in the
// engine.* counters (also scrubbed: they are effectiveness telemetry, not
// output).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cliqueforest/forest.hpp"
#include "graph/generators.hpp"

// Process-wide allocation counter: phase deltas measure how many heap
// allocations each engine path performs (the fast path must be
// allocation-free once its scratch is warm).
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// new/delete pair; the replacement new below allocates with malloc, so the
// pairing is correct by construction.
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

namespace {

using namespace chordal;

std::uint64_t hash_pair(std::uint64_t h, long long a, long long b) {
  // FNV-1a over the two words; order-sensitive, so identical edge lists
  // (same edges, same order) are required for identical hashes.
  for (std::uint64_t w : {static_cast<std::uint64_t>(a),
                          static_cast<std::uint64_t>(b)}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

long long intersection_size(CliqueWord a, CliqueWord b) {
  long long w = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++w, ++i, ++j;
    }
  }
  return w;
}

void add_engine_counter(const char* name, long long value) {
  if (obs::Registry* reg = obs::current()) {
    reg->counter(name).add(value);
  }
}

struct Workload {
  std::string name;
  Graph graph;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  const char* shape_names[] = {"path", "caterpillar", "random", "binary",
                               "spider"};
  for (int bags : {256, 1024, 4096}) {
    for (TreeShape shape :
         {TreeShape::kRandom, TreeShape::kPath, TreeShape::kSpider}) {
      CliqueTreeConfig config;
      config.num_bags = bags;
      config.shape = shape;
      config.seed = 12345;
      out.push_back({std::string(shape_names[static_cast<int>(shape)]) +
                         " bags=" + std::to_string(bags),
                     random_chordal_from_clique_tree(config).graph});
    }
  }
  // Tie storms: every separator of a k-tree has exactly k vertices and a
  // unit-interval staircase keeps all clique overlaps near-equal, so whole
  // weight classes collide and only the deterministic word order (integer
  // rank comparisons in the engine) decides the forest.
  out.push_back({"k_tree k=4 n=4096", streaming_k_tree(4096, 4, 9)});
  out.push_back(
      {"staircase n=4096", staircase_interval(4096, 0.7, 0.1, 5).graph});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Context ctx(
      argc, argv, "E13: near-linear clique-forest engine",
      "forest construction and per-family MWSF are near-linear with "
      "integer tie-breaks; outputs are bit-identical to the reference "
      "order (weight, then lexicographic clique words)");

  Table build_table({"workload", "n", "edges", "cliques", "forest edges",
                     "forest weight", "edge hash"});
  std::vector<std::pair<Workload, CliqueForest>> forests;
  for (auto& w : workloads()) {
    long long allocs_before = g_allocs.load(std::memory_order_relaxed);
    std::optional<CliqueForest> forest;
    {
      obs::Span span("build " + w.name);
      forest.emplace(CliqueForest::build(w.graph));
    }
    add_engine_counter("engine.build.allocs",
                       g_allocs.load(std::memory_order_relaxed) -
                           allocs_before);
    long long weight = 0;
    std::uint64_t hash = 1469598103934665603ull;
    for (auto [a, b] : forest->forest_edges()) {
      weight += intersection_size(forest->clique(a), forest->clique(b));
      hash = hash_pair(hash, a, b);
    }
    build_table.add_row(
        {w.name, Table::fmt(w.graph.num_vertices()),
         Table::fmt(w.graph.num_edges()),
         Table::fmt(static_cast<long long>(forest->cliques().size())),
         Table::fmt(static_cast<long long>(forest->forest_edges().size())),
         Table::fmt(weight),
         Table::fmt(static_cast<long long>(hash % 1000000007ull))});
    forests.emplace_back(std::move(w), std::move(*forest));
  }
  build_table.print();
  ctx.add_table("forest_build", build_table);

  // Per-family MWSF in the exact call shape of compute_local_view: one
  // family_forest_edges call per vertex against a warm per-worker scratch.
  // One warm-up sweep sizes the scratch; the measured sweeps must then be
  // allocation-free on the fast path (engine.family.allocs == 0).
  std::printf("\n");
  Table family_table({"workload", "n", "families >= 2", "edges per sweep",
                      "sweeps", "edge hash"});
  constexpr int kSweeps = 5;
  ForestScratch scratch;
  std::vector<std::pair<int, int>> edges;
  for (const auto& [w, forest] : forests) {
    long long families = 0, emitted = 0;
    std::uint64_t hash = 1469598103934665603ull;
    auto sweep = [&](bool record) {
      for (int v = 0; v < w.graph.num_vertices(); ++v) {
        const auto& family = forest.cliques_of(v);
        if (family.size() < 2) continue;
        edges.clear();
        family_forest_edges(forest.cliques(), family, scratch, edges);
        if (!record) continue;
        ++families;
        emitted += static_cast<long long>(edges.size());
        for (auto [a, b] : edges) hash = hash_pair(hash, a, b);
      }
    };
    sweep(false);  // warm-up: reach the scratch high-water marks
    {
      obs::Span span("family sweep " + w.name);
      long long allocs_before = g_allocs.load(std::memory_order_relaxed);
      sweep(true);
      for (int rep = 1; rep < kSweeps; ++rep) sweep(false);
      add_engine_counter("engine.family.allocs",
                         g_allocs.load(std::memory_order_relaxed) -
                             allocs_before);
    }
    family_table.add_row({w.name, Table::fmt(w.graph.num_vertices()),
                          Table::fmt(families), Table::fmt(emitted),
                          Table::fmt(kSweeps),
                          Table::fmt(static_cast<long long>(
                              hash % 1000000007ull))});
  }
  family_table.print();
  ctx.add_table("family_mwsf", family_table);

  std::printf(
      "\nboth tables are outputs: a CHORDAL_WIDE_IDS build must agree "
      "cell-for-cell (bench_diff.py --parity enforces this).\n");
  return 0;
}
