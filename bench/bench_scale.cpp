// Experiment E16 - the compact million-node memory substrate.
//
// Measures the before/after of the struct-of-arrays CSR slab work: wall
// time, heap allocations, peak resident set size, and resident bytes per
// adjacency slot for graph construction at n = 10^5..10^7, comparing the
// legacy staging pipeline (GraphBuilder pair lists; interval family only)
// against the streaming generators that emit edges directly into the final
// offsets/adjacency slabs. The k-tree family has only the streaming
// generator, so its cells are compact-only.
//
// Peak RSS (getrusage ru_maxrss) is a process-lifetime high-water mark, so
// one process cannot measure two substrates: the parent re-executes itself
// with --probe for every (family, n, mode) cell and each child reports its
// own peak. The parent merges the rows into the table, the scale.* gauges,
// and (with --json) BENCH_SCALE.json for scripts/bench_gate.py, whose
// peak-RSS budget column turns substrate regressions into CI failures.
//
//   bench_scale --json BENCH_SCALE.json     # full matrix, 10^7 included
//   bench_scale --smoke --rss-ceiling-mb 512  # n=10^5 gate for check.sh
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "local/workspace.hpp"
#include "obs/rss.hpp"

// Process-wide allocation counter (same pattern as bench_forest): the
// steady-state query audit must be allocation-free once scratch is warm.
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

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

struct ProbeResult {
  long long n = 0;
  long long adj_slots = 0;       // 2m
  double build_ms = 0;
  long long build_allocs = 0;
  long long query_allocs = 0;    // steady-state ball queries (see below)
  double graph_mb = 0;           // resident CSR slab bytes
  double peak_rss_mb = 0;        // process high-water mark
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-state query audit: repeated ball collections through one warm
/// BallWorkspace. After the first lap sizes the scratch, the remaining laps
/// must not allocate - the substrate's epoch-stamped scratch contract.
long long query_audit(const Graph& g) {
  local::BallWorkspace ws;
  local::Ball ball;
  const int n = g.num_vertices();
  if (n == 0) return 0;
  auto lap = [&] {
    for (int i = 0; i < 64; ++i) {
      int v = static_cast<int>((static_cast<long long>(i) * 2654435761ll) %
                               n);
      local::collect_ball(g, v, 2, nullptr, ws, ball);
    }
  };
  lap();  // warm-up: reach the scratch high-water marks
  long long before = g_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 4; ++rep) lap();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// Child-process body: build one (family, n, mode) cell and print a
/// machine-readable PROBE line on stdout.
int run_probe(const std::string& family, long long n,
              const std::string& mode) {
  constexpr std::uint64_t kSeed = 16;
  ProbeResult r;
  r.n = n;
  Graph g;
  long long allocs_before = g_allocs.load(std::memory_order_relaxed);
  double t0 = now_ms();
  if (family == "interval") {
    if (mode == "compact") {
      StreamingIntervalConfig config;
      config.n = n;
      config.seed = kSeed;
      g = std::move(streaming_interval_graph(config).graph);
    } else {
      RandomIntervalConfig config;
      config.n = static_cast<int>(n);
      // Same expected density as the streaming config: lefts spread over
      // n * gap_mean, lengths uniform in [min_len, max_len].
      config.window = static_cast<double>(n) * 1.0;
      config.min_len = 4.0;
      config.max_len = 8.0;
      config.seed = kSeed;
      g = std::move(random_interval(config).graph);
    }
  } else if (family == "ktree" && mode == "compact") {
    g = streaming_k_tree(n, 3, kSeed);
  } else {
    std::fprintf(stderr, "unknown probe cell: %s %s\n", family.c_str(),
                 mode.c_str());
    return 2;
  }
  r.build_ms = now_ms() - t0;
  r.build_allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  r.adj_slots = 2 * static_cast<long long>(g.num_edges());
  r.graph_mb = static_cast<double>(g.memory_bytes()) / (1024.0 * 1024.0);
  r.query_allocs = query_audit(g);
  r.peak_rss_mb =
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::printf("PROBE family=%s n=%lld mode=%s adj_slots=%lld build_ms=%.1f "
              "build_allocs=%lld query_allocs=%lld graph_mb=%.1f "
              "peak_rss_mb=%.1f\n",
              family.c_str(), r.n, mode.c_str(), r.adj_slots, r.build_ms,
              r.build_allocs, r.query_allocs, r.graph_mb, r.peak_rss_mb);
  return 0;
}

/// Runs `self --probe family n mode` and parses its PROBE line.
bool run_child(const std::string& self, const std::string& family,
               long long n, const std::string& mode, ProbeResult* out) {
  std::string tmp = "bench_scale_probe.tmp";
  std::string cmd = self + " --probe " + family + " " + std::to_string(n) +
                    " " + mode + " > " + tmp;
  if (std::system(cmd.c_str()) != 0) return false;
  std::ifstream in(tmp);
  std::string line;
  bool ok = false;
  while (std::getline(in, line)) {
    char fam[32], md[32];
    ProbeResult r;
    if (std::sscanf(line.c_str(),
                    "PROBE family=%31s n=%lld mode=%31s adj_slots=%lld "
                    "build_ms=%lf build_allocs=%lld query_allocs=%lld "
                    "graph_mb=%lf peak_rss_mb=%lf",
                    fam, &r.n, md, &r.adj_slots, &r.build_ms,
                    &r.build_allocs, &r.query_allocs, &r.graph_mb,
                    &r.peak_rss_mb) == 9) {
      *out = r;
      ok = true;
    }
  }
  std::remove(tmp.c_str());
  return ok;
}

void add_gauge(const char* name, double value) {
  if (obs::Registry* reg = obs::current()) reg->gauge(name).set(value);
}

std::string cell_key(const std::string& family, long long n,
                     const std::string& mode) {
  return "scale." + family + ".n" + std::to_string(n) + "." + mode;
}

}  // namespace

int main(int argc, char** argv) {
  // Child probe mode: bypass the Context harness entirely (no banner, no
  // telemetry - one PROBE line on stdout).
  if (argc >= 5 && std::strcmp(argv[1], "--probe") == 0) {
    return run_probe(argv[2], std::atoll(argv[3]), argv[4]);
  }

  // Strip bench_scale's own flags before Context sees the rest.
  bool smoke = false;
  bool full = false;
  double rss_ceiling_mb = 0;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--rss-ceiling-mb" && i + 1 < argc) {
      rss_ceiling_mb = std::atof(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::Context ctx(
      static_cast<int>(passthrough.size()), passthrough.data(),
      "E16: compact memory substrate at scale",
      "32-bit struct-of-arrays CSR slabs plus streaming generators hold "
      "million-node graphs in a fraction of the legacy staging pipeline's "
      "peak RSS, with allocation-free steady-state queries");

  struct Cell {
    const char* family;
    long long n;
    const char* mode;
    // MB budget for the bench_gate.py peak-RSS column: generous (2x-ish
    // observed) so only substrate regressions trip it, not noise.
    double rss_budget_mb;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells = {{"interval", 100'000, "compact", 512.0},
             {"ktree", 100'000, "compact", 512.0}};
  } else {
    cells = {{"interval", 100'000, "legacy", 0},
             {"interval", 100'000, "compact", 0},
             {"interval", 1'000'000, "legacy", 0},
             {"interval", 1'000'000, "compact", 1024.0},
             {"ktree", 100'000, "compact", 0},
             {"ktree", 1'000'000, "compact", 1024.0}};
    if (full) cells.push_back({"interval", 10'000'000, "compact", 6144.0});
  }

  Table table({"family", "n", "mode", "adj slots (2m)", "build ms",
               "build allocs", "query allocs", "graph MB", "peak RSS MB",
               "bytes/slot"});
  const std::string self = argv[0];
  bool ceiling_ok = true;
  // (family, n) -> {legacy rss, compact rss} for the reduction summary.
  struct Pair {
    double legacy = 0, compact = 0;
    std::string label;
  };
  std::vector<Pair> pairs;
  auto pair_for = [&](const std::string& label) -> Pair& {
    for (auto& p : pairs) {
      if (p.label == label) return p;
    }
    pairs.push_back({});
    pairs.back().label = label;
    return pairs.back();
  };

  for (const Cell& cell : cells) {
    ProbeResult r;
    if (!run_child(self, cell.family, cell.n, cell.mode, &r)) {
      std::fprintf(stderr, "probe failed: %s n=%lld %s\n", cell.family,
                   cell.n, cell.mode);
      return 1;
    }
    double bytes_per_slot =
        r.adj_slots > 0
            ? r.peak_rss_mb * 1024.0 * 1024.0 /
                  static_cast<double>(r.adj_slots)
            : 0.0;
    table.add_row({cell.family, Table::fmt(r.n), cell.mode,
                   Table::fmt(r.adj_slots),
                   Table::fmt(static_cast<long long>(r.build_ms)),
                   Table::fmt(r.build_allocs), Table::fmt(r.query_allocs),
                   Table::fmt(static_cast<long long>(r.graph_mb)),
                   Table::fmt(static_cast<long long>(r.peak_rss_mb)),
                   Table::fmt(static_cast<long long>(bytes_per_slot))});
    std::string key = cell_key(cell.family, cell.n, cell.mode);
    add_gauge((key + ".peak_rss_mb").c_str(), r.peak_rss_mb);
    add_gauge((key + ".build_ms").c_str(), r.build_ms);
    add_gauge((key + ".query_allocs").c_str(),
              static_cast<double>(r.query_allocs));
    if (cell.rss_budget_mb > 0) {
      add_gauge((key + ".rss_budget_mb").c_str(), cell.rss_budget_mb);
    }
    std::string label =
        std::string(cell.family) + " n=" + std::to_string(cell.n);
    if (std::strcmp(cell.mode, "legacy") == 0) {
      pair_for(label).legacy = r.peak_rss_mb;
    } else {
      pair_for(label).compact = r.peak_rss_mb;
    }
    if (rss_ceiling_mb > 0 && r.peak_rss_mb > rss_ceiling_mb) {
      std::fprintf(stderr,
                   "FAIL: %s %s peak RSS %.1f MB exceeds ceiling %.1f MB\n",
                   cell.family, cell.mode, r.peak_rss_mb, rss_ceiling_mb);
      ceiling_ok = false;
    }
  }
  table.print();
  ctx.add_table("scale", table);

  std::printf("\npeak-RSS reduction, legacy staging -> compact substrate "
              "(same family, n, density):\n");
  for (const Pair& p : pairs) {
    if (p.legacy <= 0 || p.compact <= 0) continue;
    double reduction = 100.0 * (1.0 - p.compact / p.legacy);
    std::printf("  %-24s %8.1f MB -> %8.1f MB  (%.0f%% lower)\n",
                p.label.c_str(), p.legacy, p.compact, reduction);
  }
  std::printf("\nquery allocs must be 0: steady-state ball queries reuse "
              "epoch-stamped scratch, never the heap.\n");
  if (!ceiling_ok) return 1;
  return 0;
}
