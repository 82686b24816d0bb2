// Pipeline benchmark: graph -> colors / MIS / repaired labels, end to end
// and layer by layer.
//
// One process runs one workload, so peak RSS (a process-lifetime
// high-water mark) belongs to that workload alone. Every workload pushes
// graphs of one family through the whole system:
//
//   mvc    mvc_chordal on the batch graph (PEO, cliques, W_G + Kruskal,
//          peeling, ColIntGraph layer coloring + correction)
//   mis    mis_chordal on the same graph (MIS-mode peel + layer solves)
//   churn  DynamicChordal adopts the dynamic graph, then replays the E17
//          churn mix; every update is timed on its own
//   flood  flood_balls at radius 3 under CONGEST (auto B)
//
// Stage sizes differ per workload so that each workload's headline stage
// dominates its run; see kWorkloads. Load is closed-loop with one client:
// every call or update is issued after the previous one returned. The
// benchmark only times its own calls into the library's public functions;
// the library is not instrumented.
//
// --trace 1 runs the traced variant instead: the same stages, plus each
// layer called on its own (PEO, maximal cliques, W_G enumeration,
// from_family, both peel modes, per-node local-view peeling, LOCAL flood),
// with a span around every call and an obs::Registry installed around the
// drivers so the library's own ball/cache counters can be read. Spans stay
// in memory and are written to --spans at exit.
//
// The last stdout line is "RESULT <json>"; run.py turns it into the
// benchmark's result line and checks each stage's output digest against
// the pinned table.
//
//   pipeline_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--small] [--spans PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/auditors.hpp"
#include "cliqueforest/forest.hpp"
#include "cliqueforest/wcig.hpp"
#include "core/dynamic.hpp"
#include "core/local_decision.hpp"
#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "core/peeling.hpp"
#include "graph/cliques.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/peo.hpp"
#include "local/bandwidth.hpp"
#include "local/flood.hpp"
#include "obs/metrics.hpp"
#include "obs/rss.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

// Process-wide allocation counter for the *_allocs layer metrics (the
// bench_scale pattern). Pool workers allocate too, so the counter is atomic.
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
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace chordal;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Family { kInterval, kKTree, kCliqueTree };

const char* family_name(Family f) {
  switch (f) {
    case Family::kInterval: return "interval";
    case Family::kKTree: return "ktree";
    case Family::kCliqueTree: return "clique-tree";
  }
  return "?";
}

struct Sizes {
  long long batch_n;   // graph colored and solved for MIS
  long long dyn_n;     // graph adopted by DynamicChordal
  int churn_attempts;  // churn-mix rolls per pass
  long long flood_n;   // graph flooded at radius 3 under CONGEST
};

struct Workload {
  const char* name;
  Family family;
  core::PruningMode pruning;
  Sizes full;
  Sizes small;  // --small: the benchmark's own end-to-end test
};

// Why these three (each one's headline stages in brackets):
//  - interval-1m [mvc, mis]: W_G is nearly a path, so time goes to Lex-BFS,
//    peeling and the interval layer solves; a W_G optimisation must show no
//    change here.
//  - ktree-50k [mvc, mis, churn]: hub vertices sit in thousands of cliques,
//    so W_G has sum_v |phi(v)|^2 edges and the forest build dominates
//    (ROADMAP items 1 and 4). Its churn pass uses the forest layer for
//    writes: about 3000 attempts (the E17 mix), where crossing-pair
//    generation over hub phi(v) drives the update tail.
//  - views-congest [mvc, flood]: the only workload whose MVC collects balls
//    (Algorithm 3 verbatim, one local view per node per iteration), and the
//    largest CONGEST flood.
const Workload kWorkloads[] = {
    {"interval-1m", Family::kInterval, core::PruningMode::kGlobal,
     {1'000'000, 20'000, 10'000, 2'000}, {20'000, 2'000, 60, 300}},
    {"ktree-50k", Family::kKTree, core::PruningMode::kGlobal,
     {50'000, 30'000, 3'000, 300}, {5'000, 2'000, 200, 150}},
    {"views-congest", Family::kCliqueTree, core::PruningMode::kPerNodeLocalViews,
     {1'600, 1'600, 10'000, 6'000}, {300, 300, 60, 600}},
};

constexpr double kEpsColor = 0.5;
constexpr double kEpsMis = 0.25;
constexpr int kFloodRadius = 3;
constexpr int kSetupReps = 5;

// The cost of a random 3-tree is set by its few largest hubs (sum_v
// |phi(v)|^2 spans 2.7e7..3.7e7 over ten seeds at n = 5e4), and that of a
// random clique tree of a few thousand vertices by its shape, so drawing
// those shapes from the seed would make the benchmark measure the seed
// rather than the code. Their shapes are pinned. Interval graphs are
// homogeneous at these sizes and come from the seed directly.
constexpr std::uint64_t kShapeSeed = 17;

/// g with its vertex ids permuted uniformly at random.
Graph relabel(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> label = rng.permutation(g.num_vertices());
  GraphBuilder b(g.num_vertices());
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < static_cast<int>(v)) b.add_edge(label[u], label[v]);
    }
  }
  return b.build();
}

/// The family's graph before relabeling: drawn from the seed for interval
/// graphs, the pinned shape otherwise.
Graph shape(Family family, long long n, std::uint64_t seed) {
  switch (family) {
    case Family::kInterval: {
      StreamingIntervalConfig config;  // gap 1, lengths 4-8
      config.n = n;
      config.seed = seed;
      return std::move(streaming_interval_graph(config).graph);
    }
    case Family::kKTree:
      return streaming_k_tree(n, 3, kShapeSeed);
    case Family::kCliqueTree: {
      // The E8/E18 clique-tree workload (bench_common.hpp chordal_workload).
      CliqueTreeConfig config;
      config.num_bags = std::max(2, static_cast<int>(n / 4));
      config.min_bag_size = 2;
      config.max_bag_size = 6;
      config.max_shared = 3;
      config.shape = TreeShape::kRandom;
      config.seed = kShapeSeed;
      return std::move(random_chordal_from_clique_tree(config).graph);
    }
  }
  return Graph();
}

struct Inputs {
  Graph batch, dyn, flood;
};

// Each graph role gets its own stream of the workload seed. A pinned shape
// is used with its own ids for the batch graph: ids set the canonical
// clique order (the paper's lexicographic tie-break), and with it the
// forest and the peel layers, so a seed-drawn relabeling would again
// measure the draw (MIS time on the clique tree moved 2x between
// relabelings). The flood, whose knowledge does not depend on ids, runs on
// a seed-drawn relabeling. The dynamic graph is pinned in every family:
// the update tail is set by a few expensive repairs, which move with the
// graph (update_p99_us spread 0.3 over ten seed-drawn interval graphs).
Inputs make_inputs(const Workload& w, const Sizes& s, std::uint64_t seed) {
  Inputs in;
  in.batch = shape(w.family, s.batch_n, seed * 4 + 1);
  in.dyn = shape(w.family, s.dyn_n, kShapeSeed);
  in.flood = shape(w.family, s.flood_n, seed * 4 + 3);
  if (w.family != Family::kInterval) in.flood = relabel(in.flood, seed);
  return in;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default); 0 on no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// FNV-1a over 64-bit words: the output digest pinned per workload and seed.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::int64_t x) {
    auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  template <typename Range>
  void add_all(const Range& r) {
    add(static_cast<std::int64_t>(r.size()));
    for (auto x : r) add(static_cast<std::int64_t>(x));
  }
};

/// Failure bookkeeping: every timed call and every output check is one
/// attempted operation.
struct Ledger {
  long long attempted = 0;
  long long failed = 0;
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  template <typename Fn>
  void check(const char* what, Fn&& fn) {
    ++attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      fail(std::string(what) + ": " + e.what());
    }
  }
};

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct SpanRec {
  std::string name;
  int parent = -1;
  double start_s = 0, end_s = 0;
  int calls = 1;  // back-to-back calls the span covers (see kMinSampleS)
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void open(std::string name) {
    SpanRec r;
    r.name = std::move(name);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.start_s = seconds_since(origin_);
    spans_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close(int calls = 1) {
    SpanRec& r = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    r.end_s = seconds_since(origin_);
    r.calls = calls;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// Shortest timed sample: quicker calls are repeated back to back until
/// the sample covers this long, and the sample is the time per call. The
/// host's speed drifts by tens of percent over seconds, so a sample spans
/// a good part of a second rather than catching one instant of it.
constexpr double kMinSampleS = 0.5;

/// Shortest churn window per cycle, for the same reason: quicker passes
/// are replayed, each on a fresh adopt, and the cycle's update metrics pool
/// every pass.
constexpr double kMinChurnS = 1.5;

/// Times fn (seconds per call, see kMinSampleS); prep runs before each
/// call, outside the timed region. In the traced run the sample is also
/// recorded as a span. fn must be repeatable.
template <typename Prep, typename Fn>
double timed_call(SpanLog* log, const char* name, Prep&& prep, Fn&& fn,
                  double min_sample_s = kMinSampleS) {
  if (log) log->open(name);
  int reps = 0;
  double s = 0;
  do {
    prep();
    auto t0 = Clock::now();
    fn();
    s += seconds_since(t0);
    ++reps;
  } while (s < min_sample_s);
  if (log) log->close(reps);
  return s / reps;
}

template <typename Fn>
double timed_call(SpanLog* log, const char* name, Fn&& fn) {
  return timed_call(log, name, [] {}, fn);
}

// ---------------------------------------------------------------------------
// Churn: the E17 mix (bench/bench_dynamic.cpp), each update timed alone
// ---------------------------------------------------------------------------

enum Op { kEdgeInsert, kEdgeDelete, kVertexInsert, kVertexDelete, kNumOps };
const char* const kOpNames[kNumOps] = {"edge_insert", "edge_delete",
                                       "vertex_insert", "vertex_delete"};

struct ChurnLog {
  long long attempted = 0, applied = 0, rejected = 0, failed = 0;
  double loop_s = 0;
  std::vector<double> latency_us;              // applied updates
  std::vector<double> op_latency_us[kNumOps];  // applied, by kind

  void absorb(const ChurnLog& pass) {
    attempted += pass.attempted;
    applied += pass.applied;
    rejected += pass.rejected;
    failed += pass.failed;
    loop_s += pass.loop_s;
    latency_us.insert(latency_us.end(), pass.latency_us.begin(),
                      pass.latency_us.end());
    for (int op = 0; op < kNumOps; ++op) {
      op_latency_us[op].insert(op_latency_us[op].end(),
                               pass.op_latency_us[op].begin(),
                               pass.op_latency_us[op].end());
    }
  }
};

/// A rejected edge update must carry a chordless cycle (length >= 4) of
/// the graph the update would have produced.
bool witness_ok(const std::vector<int>& cycle, const DynamicGraph& g, int u,
                int v, bool inserting) {
  auto adj = [&](int a, int b) {
    if ((a == u && b == v) || (a == v && b == u)) return inserting;
    return g.has_edge(a, b);
  };
  const int k = static_cast<int>(cycle.size());
  if (k < 4) return false;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      bool consecutive = (j == i + 1) || (i == 0 && j == k - 1);
      if (cycle[static_cast<std::size_t>(i)] ==
              cycle[static_cast<std::size_t>(j)] ||
          adj(cycle[static_cast<std::size_t>(i)],
              cycle[static_cast<std::size_t>(j)]) != consecutive) {
        return false;
      }
    }
  }
  return true;
}

int pick_vertex(const DynamicGraph& g, Rng& rng, int max_deg) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    int v = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(g.num_slots())));
    if (g.alive(v) && g.degree(v) >= 1 && g.degree(v) <= max_deg) return v;
  }
  return -1;
}

std::vector<int> clique_around(const DynamicGraph& g, int u, Rng& rng) {
  std::vector<int> clique{u};
  auto nbrs = g.neighbors(u);
  if (nbrs.empty()) return clique;
  std::size_t start = rng.next_below(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size() && clique.size() < 4; ++i) {
    int w = static_cast<int>(nbrs[(start + i) % nbrs.size()]);
    bool joins = true;
    for (int c : clique) {
      if (c != u && !g.has_edge(w, c)) {
        joins = false;
        break;
      }
    }
    if (joins) clique.push_back(w);
  }
  return clique;
}

/// One pass of the churn trace. Its random choices come from a pinned
/// stream, so every cycle and every seed replays the same updates.
ChurnLog run_churn(DynamicChordal& dc, int attempts) {
  ChurnLog out;
  double check_s = 0;  // witness checks, taken out of loop_s
  // One update: applied updates record latency; a rejection with a valid
  // witness is a result; anything else is a failure. A witness is checked
  // against the graph the rejection left unchanged, so it is checked at
  // once, on a clock of its own.
  auto update = [&](Op op, auto&& fn, int u = -1, int v = -1) {
    ++out.attempted;
    auto t0 = Clock::now();
    try {
      fn();
    } catch (const ChordalityViolation& e) {
      auto check_t0 = Clock::now();
      bool edge_op = op == kEdgeInsert || op == kEdgeDelete;
      bool valid = edge_op && witness_ok(e.witness_cycle(), dc.graph(), u, v,
                                         op == kEdgeInsert);
      check_s += seconds_since(check_t0);
      if (valid) {
        ++out.rejected;
      } else {
        ++out.failed;
        std::fprintf(stderr, "FAIL: %s rejected without a valid witness\n",
                     kOpNames[op]);
      }
      return false;
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "FAIL: %s threw: %s\n", kOpNames[op], e.what());
      return false;
    }
    double us = seconds_since(t0) * 1e6;
    out.latency_us.push_back(us);
    out.op_latency_us[op].push_back(us);
    ++out.applied;
    return true;
  };

  Rng rng(kShapeSeed);
  std::deque<std::pair<int, int>> deleted;
  std::vector<int> nbrs;
  auto loop_t0 = Clock::now();
  for (int it = 0; it < attempts; ++it) {
    std::uint64_t roll = rng.next_below(100);
    if (roll < 60 && !deleted.empty()) {
      auto [u, v] = deleted.front();
      deleted.pop_front();
      if (dc.graph().alive(u) && dc.graph().alive(v) &&
          !dc.graph().has_edge(u, v)) {
        update(kEdgeInsert, [&] { dc.insert_edge(u, v); }, u, v);
      }
    } else if (roll < 60) {
      int v = pick_vertex(dc.graph(), rng, 1 << 20);
      if (v < 0) continue;
      auto adj = dc.graph().neighbors(v);
      int w = static_cast<int>(adj[rng.next_below(adj.size())]);
      if (update(kEdgeDelete, [&] { dc.delete_edge(v, w); }, v, w)) {
        deleted.emplace_back(v, w);
        if (deleted.size() > 4096) deleted.pop_front();
      }
    } else if (roll < 80) {
      int v = pick_vertex(dc.graph(), rng, 64);
      if (v < 0) continue;
      nbrs.clear();
      for (VertexId w : dc.graph().neighbors(v)) {
        nbrs.push_back(static_cast<int>(w));
      }
      update(kVertexDelete, [&] { dc.delete_vertex(v); });
      update(kVertexInsert, [&] { (void)dc.insert_vertex(nbrs); });
    } else {
      int u = pick_vertex(dc.graph(), rng, 1 << 20);
      if (u < 0) continue;
      std::vector<int> clique = clique_around(dc.graph(), u, rng);
      int z = -1;
      update(kVertexInsert, [&] { z = dc.insert_vertex(clique); });
      if (z >= 0) update(kVertexDelete, [&] { dc.delete_vertex(z); });
    }
  }
  out.loop_s = seconds_since(loop_t0) - check_s;
  return out;
}

// ---------------------------------------------------------------------------
// Input properties
// ---------------------------------------------------------------------------

struct Props {
  long long n = 0, m = 0, omega = 0, cliques = 0, max_phi = 0;
  double phi_sq_sum = 0;
};

Props properties(const Graph& g, const CliqueFamily& family) {
  Props p;
  p.n = g.num_vertices();
  p.m = static_cast<long long>(g.num_edges());
  p.cliques = static_cast<long long>(family.size());
  std::vector<long long> phi(static_cast<std::size_t>(p.n), 0);
  for (std::size_t c = 0; c < family.size(); ++c) {
    p.omega = std::max(p.omega, static_cast<long long>(family[c].size()));
    for (auto v : family[c]) ++phi[static_cast<std::size_t>(v)];
  }
  for (long long f : phi) {
    p.max_phi = std::max(p.max_phi, f);
    p.phi_sq_sum += static_cast<double>(f) * static_cast<double>(f);
  }
  return p;
}

void print_props(const char* role, const Props& p) {
  std::printf(
      "input %-6s n=%lld m=%lld omega=%lld cliques=%lld max_phi=%lld "
      "phi_sq_sum=%.0f\n",
      role, p.n, p.m, p.omega, p.cliques, p.max_phi, p.phi_sq_sum);
}

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Runner {
 public:
  Runner(const Workload& w, const Sizes& s, std::uint64_t seed, double seconds,
         bool traced)
      : w_(w), s_(s), seed_(seed), seconds_(seconds), traced_(traced),
        spans_(Clock::now()) {}

  int run(const std::string& spans_path);

 private:
  /// Per-stage output digests of one cycle.
  struct CycleOutputs {
    std::uint64_t mvc = 0, mis = 0, churn = 0, flood = 0;
    bool operator==(const CycleOutputs&) const = default;
  };

  void setup();
  void batch_stage(SpanLog* log);
  void dynamic_stage(SpanLog* log);
  void flood_stage(SpanLog* log);
  CycleOutputs outputs() const;
  void traced_layers(SpanLog& log);
  void check_outputs();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  void print_span_summary() const;

  const Workload& w_;
  const Sizes s_;
  const std::uint64_t seed_;
  const double seconds_;
  const bool traced_;
  Ledger ledger_;
  Inputs in_;
  std::vector<double> setup_s_;

  // End-to-end samples, one per cycle (adopt_s_: one per churn pass;
  // setup_s_: one per setup repeat).
  std::vector<double> mvc_s_, mis_s_, adopt_s_, flood_s_;
  std::vector<double> update_p50_us_, update_p99_us_, updates_per_s_;
  double peak_rss_mb_ = 0;
  int cycles_ = 0;

  // Last results, checked after the timed region.
  core::MvcResult mvc_;
  core::MisResult mis_;
  std::optional<DynamicChordal> dc_;
  local::FloodBallsResult flood_;
  std::optional<CycleOutputs> first_outputs_;
  ChurnLog last_churn_;   // the last pass (its counts are pinned)
  ChurnLog cycle_churn_;  // every pass of the last cycle

  // Traced run: layer samples keyed by metric name, plus spans.
  std::map<std::string, std::vector<double>> layer_;
  std::vector<double> untraced_drivers_s_, traced_drivers_s_;
  SpanLog spans_;
};

void Runner::setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s_.push_back(timed_call(
        nullptr, "setup", [&] { in_ = {}; },
        [&] { in_ = make_inputs(w_, s_, seed_); }));
  }
}

void Runner::batch_stage(SpanLog* log) {
  core::MvcOptions mvc_opts;
  mvc_opts.eps = kEpsColor;
  mvc_opts.pruning = w_.pruning;
  core::MisOptions mis_opts;
  mis_opts.eps = kEpsMis;
  ledger_.attempted += 2;
  try {
    mvc_s_.push_back(timed_call(
        log, "mvc_chordal", [&] { mvc_ = {}; },
        [&] { mvc_ = core::mvc_chordal(in_.batch, mvc_opts); }));
  } catch (const std::exception& e) {
    ledger_.fail(std::string("mvc_chordal threw: ") + e.what());
  }
  try {
    mis_s_.push_back(timed_call(
        log, "mis_chordal", [&] { mis_ = {}; },
        [&] { mis_ = core::mis_chordal(in_.batch, mis_opts); }));
  } catch (const std::exception& e) {
    ledger_.fail(std::string("mis_chordal threw: ") + e.what());
  }
}

void Runner::dynamic_stage(SpanLog* log) {
  cycle_churn_ = ChurnLog{};
  try {
    do {
      ledger_.attempted += 1;
      // Adopt is timed once per pass (the passes repeat it), without
      // tearing down the previous instance.
      adopt_s_.push_back(timed_call(
          log, "dynamic.adopt", [&] { dc_.reset(); },
          [&] { dc_.emplace(in_.dyn); }, 0.0));
      // The trace mutates dc_, so a pass is never repeated on one adopt.
      if (log) log->open("dynamic.churn");
      last_churn_ = run_churn(*dc_, s_.churn_attempts);
      if (log) log->close();
      ledger_.attempted += last_churn_.attempted;
      ledger_.failed += last_churn_.failed;
      cycle_churn_.absorb(last_churn_);
    } while (cycle_churn_.loop_s < kMinChurnS);
    update_p50_us_.push_back(quantile(cycle_churn_.latency_us, 0.50));
    update_p99_us_.push_back(quantile(cycle_churn_.latency_us, 0.99));
    updates_per_s_.push_back(static_cast<double>(cycle_churn_.applied) /
                             cycle_churn_.loop_s);
  } catch (const std::exception& e) {
    ledger_.fail(std::string("DynamicChordal threw: ") + e.what());
  }
}

void Runner::flood_stage(SpanLog* log) {
  ledger_.attempted += 1;
  try {
    local::BandwidthConfig bw;
    bw.model = local::NetworkModel::kCongest;
    flood_s_.push_back(timed_call(
        log, "flood_balls.congest", [&] { flood_ = {}; },
        [&] { flood_ = local::flood_balls(in_.flood, kFloodRadius, bw); }));
  } catch (const std::exception& e) {
    ledger_.fail(std::string("flood_balls threw: ") + e.what());
  }
}

/// Digests of the latest outputs of every stage (outside timed regions).
Runner::CycleOutputs Runner::outputs() const {
  CycleOutputs out;
  Digest mvc;
  mvc.add_all(mvc_.colors);
  mvc.add(mvc_.num_colors);
  mvc.add(mvc_.rounds);
  mvc.add(mvc_.num_layers);
  out.mvc = mvc.h;
  Digest mis;
  mis.add_all(mis_.chosen);
  mis.add(mis_.rounds);
  mis.add(mis_.iterations);
  out.mis = mis.h;
  Digest churn;
  churn.add(last_churn_.applied);
  churn.add(last_churn_.rejected);
  churn.add(dc_ ? dc_->num_colors() : -1);
  churn.add(dc_ ? dc_->mis_size() : -1);
  out.churn = churn.h;
  Digest flood;
  flood.add(flood_.rounds);
  flood.add(flood_.stats.total_payload_words);
  flood.add(flood_.stats.total_fragments);
  for (const auto& known : flood_.known) flood.add_all(known);
  out.flood = flood.h;
  return out;
}

/// Calls each layer of the batch pipeline on its own (traced run only):
/// the spans name the layer, and the samples feed the per-layer metrics.
void Runner::traced_layers(SpanLog& log) {
  const Graph& g = in_.batch;
  const int n = g.num_vertices();
  auto sample = [&](const std::string& name, double v) {
    layer_[name].push_back(v);
  };
  auto allocs_during = [](auto&& fn) {
    long long before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                               before);
  };

  // --- MVC path: driver untraced, its layers one by one, driver traced.
  log.open("mvc");
  core::MvcOptions mvc_opts;
  mvc_opts.eps = kEpsColor;
  mvc_opts.pruning = w_.pruning;
  double mvc_untraced = timed_call(
      &log, "mvc_chordal", [&] { mvc_ = {}; },
      [&] { mvc_ = core::mvc_chordal(g, mvc_opts); });
  EliminationOrder peo;
  double peo_s = timed_call(
      &log, "graph.peo", [&] { peo = {}; }, [&] { peo = peo_or_throw(g); });
  CliqueFamily family;
  double cliques_s = timed_call(
      &log, "graph.cliques", [&] { family = {}; },
      [&] { family = maximal_cliques_chordal_family(g, peo); });
  ForestScratch scratch;
  std::vector<WcigEdge> wcig;
  double wcig_s = timed_call(&log, "cliqueforest.wcig", [&] {
    wcig_edges_counting(family, n, scratch, wcig);
  });
  CliqueFamily family_copy;
  CliqueForest forest;
  double forest_allocs = 0;
  double forest_s = timed_call(
      &log, "cliqueforest.forest",
      [&] {
        forest = {};
        family_copy = family;
      },
      [&] {
        forest_allocs = allocs_during([&] {
          forest = CliqueForest::from_family(std::move(family_copy), n);
        });
      });
  core::PeelConfig color_cfg;
  color_cfg.mode = core::PeelMode::kColoring;
  color_cfg.k = mvc_.k;
  core::PeelingResult peeling;
  double peel_allocs = 0;
  double peel_s = timed_call(
      &log, "core.peel", [&] { peeling = {}; },
      [&] {
        peel_allocs =
            allocs_during([&] { peeling = core::peel(g, forest, color_cfg); });
      });
  double peel_local_s = 0;
  if (w_.pruning == core::PruningMode::kPerNodeLocalViews) {
    core::PeelingResult local_peeling;
    peel_local_s = timed_call(
        &log, "core.peel_local", [&] { local_peeling = {}; },
        [&] {
          local_peeling = core::peel_with_local_decisions(g, forest, mvc_.k);
        });
  }
  // The driver again under a fresh obs::Registry per call, whose local-view
  // and BallCache counters the library publishes (only the per-node
  // local-view pruning mode collects balls).
  double views = 0, hits = 0, collections = 0;
  core::MvcResult mvc_traced_result;
  double mvc_traced = timed_call(
      &log, "mvc_chordal.traced", [&] { mvc_traced_result = {}; }, [&] {
        obs::Registry reg;
        obs::ScopedRegistry scope(reg);
        mvc_traced_result = core::mvc_chordal(g, mvc_opts);
        auto counter = [&](const char* name) {
          const obs::Counter* c = reg.find_counter(name);
          return c ? static_cast<double>(c->value()) : 0.0;
        };
        views = counter("local_view.decisions");
        hits = counter("cache.hits");
        collections = counter("cache.misses") + counter("cache.extensions");
      });
  log.close();

  const double mvc_peel = w_.pruning == core::PruningMode::kPerNodeLocalViews
                              ? peel_local_s
                              : peel_s;
  sample("graph.peo_s", peo_s);
  sample("graph.cliques_s", cliques_s);
  sample("graph.phi_sq_sum", properties(g, family).phi_sq_sum);
  sample("cliqueforest.wcig_s", wcig_s);
  sample("cliqueforest.wcig_edges", static_cast<double>(wcig.size()));
  sample("cliqueforest.forest_s", forest_s);
  sample("cliqueforest.forest_allocs", forest_allocs);
  sample("cliqueforest.useful_ratio",
         wcig.empty() ? 0.0
                      : static_cast<double>(forest.forest_edges().size()) /
                            static_cast<double>(wcig.size()));
  sample("core.peel_s", peel_s);
  sample("core.peel_allocs", peel_allocs);
  sample("core.peel_layers", peeling.num_layers);
  sample("core.peel_local_s", peel_local_s);
  sample("core.mvc_layers_s", mvc_untraced - peo_s - cliques_s - forest_s -
                                  mvc_peel);
  sample("local.views", views);
  sample("local.ball_collections", collections);
  sample("local.cache_hit_ratio",
         hits + collections > 0 ? hits / (hits + collections) : 0.0);

  // --- MIS path.
  log.open("mis");
  core::MisOptions mis_opts;
  mis_opts.eps = kEpsMis;
  double mis_untraced = timed_call(
      &log, "mis_chordal", [&] { mis_ = {}; },
      [&] { mis_ = core::mis_chordal(g, mis_opts); });
  core::PeelConfig mis_cfg;
  mis_cfg.mode = core::PeelMode::kIndependentSet;
  mis_cfg.d = mis_.d;
  mis_cfg.max_iterations = mis_.iterations;
  core::PeelingResult mis_peeling;
  double mis_peel_s = timed_call(
      &log, "core.mis_peel", [&] { mis_peeling = {}; },
      [&] { mis_peeling = core::peel(g, forest, mis_cfg); });
  core::MisResult mis_traced_result;
  double mis_traced = timed_call(
      &log, "mis_chordal.traced", [&] { mis_traced_result = {}; }, [&] {
        obs::Registry reg;
        obs::ScopedRegistry scope(reg);
        mis_traced_result = core::mis_chordal(g, mis_opts);
      });
  log.close();
  sample("core.mis_peel_s", mis_peel_s);
  sample("core.mis_layers_s",
         mis_untraced - peo_s - cliques_s - forest_s - mis_peel_s);
  untraced_drivers_s_.push_back(mvc_untraced + mis_untraced);
  traced_drivers_s_.push_back(mvc_traced + mis_traced);
}

void Runner::check_outputs() {
  ledger_.check("audit_coloring", [&] { audit::audit_coloring(in_.batch, mvc_); });
  ledger_.check("audit_mis", [&] { audit::audit_mis(in_.batch, mis_, kEpsMis); });
  ledger_.check("audit_dynamic_parity", [&] {
    if (!dc_) throw std::runtime_error("no dynamic state");
    audit::audit_dynamic_parity(*dc_);
  });
  ledger_.check("flood modeled words == transmitted words", [&] {
    if (flood_.modeled_words != flood_.stats.total_payload_words) {
      throw std::runtime_error(std::to_string(flood_.modeled_words) +
                               " != " +
                               std::to_string(flood_.stats.total_payload_words));
    }
  });
}

std::vector<Metric> Runner::end_to_end() const {
  return {
      {"setup_s", median(setup_s_), "s"},
      {"mvc_s", median(mvc_s_), "s"},
      {"mis_s", median(mis_s_), "s"},
      {"adopt_s", median(adopt_s_), "s"},
      {"update_p50_us", median(update_p50_us_), "us"},
      {"update_p99_us", median(update_p99_us_), "us"},
      {"updates_per_s", median(updates_per_s_), "1/s"},
      {"flood_s", median(flood_s_), "s"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  };
}

std::vector<Metric> Runner::per_layer() const {
  std::vector<Metric> out;
  auto med = [&](const char* name) {
    auto it = layer_.find(name);
    return it == layer_.end() ? 0.0 : median(it->second);
  };
  const char* const seconds[] = {
      "graph.peo_s",     "graph.cliques_s",   "cliqueforest.wcig_s",
      "cliqueforest.forest_s", "core.peel_s", "core.mis_peel_s",
      "core.mvc_layers_s", "core.mis_layers_s", "core.peel_local_s",
      "local.flood_local_s"};
  const char* const counts[] = {
      "graph.phi_sq_sum", "cliqueforest.wcig_edges",
      "cliqueforest.forest_allocs", "core.peel_allocs", "core.peel_layers",
      "local.views", "local.ball_collections"};
  for (const char* n : seconds) out.push_back({n, med(n), "s"});
  for (const char* n : counts) out.push_back({n, med(n), "count"});
  out.push_back({"cliqueforest.useful_ratio",
                 med("cliqueforest.useful_ratio"), "ratio"});
  out.push_back({"local.cache_hit_ratio", med("local.cache_hit_ratio"),
                 "ratio"});

  for (int op = 0; op < kNumOps; ++op) {
    out.push_back({std::string("core.dynamic.") + kOpNames[op] + "_p99_us",
                   quantile(cycle_churn_.op_latency_us[op], 0.99), "us"});
  }
  const DynamicStats st = dc_ ? dc_->stats() : DynamicStats{};
  out.push_back({"core.dynamic.path_steps", static_cast<double>(st.path_steps),
                 "count"});
  out.push_back({"core.dynamic.pool_edges", static_cast<double>(st.pool_edges),
                 "count"});
  out.push_back({"core.dynamic.oracle_calls",
                 static_cast<double>(st.oracle_calls), "count"});
  out.push_back({"core.dynamic.fastpath_ratio",
                 st.edge_inserts > 0
                     ? static_cast<double>(st.fastpath_accepts) /
                           static_cast<double>(st.edge_inserts)
                     : 0.0,
                 "ratio"});

  out.push_back({"local.net_rounds", static_cast<double>(flood_.rounds),
                 "count"});
  out.push_back({"local.net_payload_words",
                 static_cast<double>(flood_.stats.total_payload_words),
                 "count"});
  out.push_back({"local.net_fragments",
                 static_cast<double>(flood_.stats.total_fragments), "count"});
  out.push_back({"trace.overhead_s",
                 median(traced_drivers_s_) - median(untraced_drivers_s_), "s"});
  return out;
}

/// Self time and share of the enclosing driver group, from the spans.
void Runner::print_span_summary() const {
  // Each group's driver: the call its layer spans are shares of.
  const std::map<std::string, std::string> driver = {
      {"mvc", "mvc_chordal"},
      {"mis", "mis_chordal"},
      {"flood", "flood_balls.congest"}};
  const auto& spans = spans_.spans();
  auto dur = [](const SpanRec& s) { return s.end_s - s.start_s; };
  std::vector<double> child_s(spans.size(), 0.0);
  std::map<int, double> driver_per_call;  // group span id -> driver s/call
  for (const SpanRec& s : spans) {
    if (s.parent < 0) continue;
    child_s[static_cast<std::size_t>(s.parent)] += dur(s);
    auto it = driver.find(spans[static_cast<std::size_t>(s.parent)].name);
    if (it != driver.end() && it->second == s.name) {
      driver_per_call[s.parent] = dur(s) / s.calls;
    }
  }
  struct Agg {
    int spans = 0;
    long long calls = 0;
    double total = 0, self = 0, share = 0;
    int shares = 0;
  };
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    Agg& a = agg[s.name];
    ++a.spans;
    a.calls += s.calls;
    a.total += dur(s);
    a.self += dur(s) - child_s[i];
    auto it = driver_per_call.find(s.parent);
    if (it != driver_per_call.end() && it->second > 0) {
      a.share += dur(s) / s.calls / it->second;
      ++a.shares;
    }
  }
  std::printf("\n%-26s %6s %10s %10s %10s %9s\n", "span", "calls", "total s",
              "self s", "s/call", "of driver");
  for (const auto& [name, a] : agg) {
    std::printf("%-26s %6lld %10.4f %10.4f %10.4f", name.c_str(), a.calls,
                a.total, a.self, a.total / static_cast<double>(a.calls));
    if (a.shares > 0) {
      std::printf(" %8.1f%%", 100.0 * a.share / a.shares);
    }
    std::printf("\n");
  }
}

int Runner::run(const std::string& spans_path) {
  setup();
  {
    // Input properties, outside every timed region.
    print_props("batch",
                properties(in_.batch, maximal_cliques_chordal_family(in_.batch)));
    print_props("dyn",
                properties(in_.dyn, maximal_cliques_chordal_family(in_.dyn)));
    print_props("flood",
                properties(in_.flood, maximal_cliques_chordal_family(in_.flood)));
  }

  auto t0 = Clock::now();
  if (traced_) {
    // Traced cycles until the budget is spent (at least one).
    do {
      spans_.open(std::string("workload ") + w_.name);
      traced_layers(spans_);
      spans_.open("dynamic");
      dynamic_stage(&spans_);
      spans_.close();
      spans_.open("flood");
      flood_stage(&spans_);
      // The same flood under LOCAL, for the CONGEST blow-up.
      local::FloodBallsResult flood_local;
      layer_["local.flood_local_s"].push_back(timed_call(
          &spans_, "flood_balls.local", [&] { flood_local = {}; }, [&] {
            flood_local = local::flood_balls(in_.flood, kFloodRadius,
                                             local::BandwidthConfig{});
          }));
      spans_.close();
      spans_.close();
      ++cycles_;
      if (!first_outputs_) first_outputs_ = outputs();
    } while (seconds_since(t0) < seconds_);
  } else {
    // Closed loop: one client, full cycles until the budget is spent; at
    // least two so every end-to-end metric is a median of repeats.
    do {
      batch_stage(nullptr);
      dynamic_stage(nullptr);
      flood_stage(nullptr);
      ++cycles_;
      CycleOutputs out = outputs();
      ++ledger_.attempted;
      if (!first_outputs_) {
        first_outputs_ = out;
      } else if (!(out == *first_outputs_)) {
        ledger_.fail(std::string("outputs differ between repeated cycles:") +
                     (out.mvc != first_outputs_->mvc ? " mvc" : "") +
                     (out.mis != first_outputs_->mis ? " mis" : "") +
                     (out.churn != first_outputs_->churn ? " churn" : "") +
                     (out.flood != first_outputs_->flood ? " flood" : ""));
      }
    } while (cycles_ < 2 || seconds_since(t0) < seconds_);
  }
  double measured_s = seconds_since(t0);
  peak_rss_mb_ = static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);

  check_outputs();

  std::printf(
      "workload %s seed=%llu threads=%d cycles=%d measured=%.2fs "
      "mvc: colors=%d omega=%d layers=%d rounds=%lld | mis: |I|=%zu "
      "rounds=%lld | churn/cycle: applied=%lld rejected=%lld | flood: "
      "rounds=%lld words=%lld\n",
      w_.name, static_cast<unsigned long long>(seed_), support::num_threads(),
      cycles_, measured_s, mvc_.num_colors, mvc_.omega, mvc_.num_layers,
      static_cast<long long>(mvc_.rounds), mis_.chosen.size(),
      static_cast<long long>(mis_.rounds), last_churn_.applied,
      last_churn_.rejected, static_cast<long long>(flood_.rounds),
      static_cast<long long>(flood_.stats.total_payload_words));
  std::printf("fail_ratio %lld/%lld\n", ledger_.failed, ledger_.attempted);
  auto print_samples = [](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    std::printf("samples %-8s", name);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_samples("setup_s", setup_s_);
  print_samples("mvc_s", mvc_s_);
  print_samples("mis_s", mis_s_);
  print_samples("adopt_s", adopt_s_);
  print_samples("flood_s", flood_s_);

  std::vector<Metric> metrics = traced_ ? per_layer() : end_to_end();
  if (traced_) {
    print_span_summary();
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      for (std::size_t i = 0; i < spans_.spans().size(); ++i) {
        const SpanRec& s = spans_.spans()[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
            << s.name << "\",\"workload\":\"" << w_.name
            << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
            << ",\"calls\":" << s.calls << "}\n";
      }
      if (!out) std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
  }

  std::string json = "{\"workload\":\"" + std::string(w_.name) +
                     "\",\"seed\":" + std::to_string(seed_) +
                     ",\"threads\":" + std::to_string(support::num_threads());
  auto hex = [](std::uint64_t h) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
  };
  json += ",\"digests\":{\"mvc\":" + hex(first_outputs_->mvc) +
          ",\"mis\":" + hex(first_outputs_->mis) +
          ",\"churn\":" + hex(first_outputs_->churn) +
          ",\"flood\":" + hex(first_outputs_->flood) + "}";
  json += ",\"attempted\":" + std::to_string(ledger_.attempted);
  json += ",\"failed\":" + std::to_string(ledger_.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}

/// These process-global switches silently change which code path runs.
const char* const kRefusedEnv[] = {"CHORDAL_FOREST_REFERENCE",
                                   "CHORDAL_BALL_CACHE", "CHORDAL_NET_MODEL",
                                   "CHORDAL_CONGEST_B", "CHORDAL_THREADS"};

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--small] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set; it switches the code path "
                   "being measured. Unset it.\n",
                   var);
      return 2;
    }
  }
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false, small = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--small") {
      small = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }

  // Worker count fixed explicitly (at most 4, at most the hardware).
  unsigned hw = std::thread::hardware_concurrency();
  support::set_num_threads(static_cast<int>(std::clamp(hw, 1u, 4u)));

  std::printf("workload %s family=%s seed=%llu mode=%s trace=%d\n", w->name,
              family_name(w->family), static_cast<unsigned long long>(seed),
              small ? "small" : "full", traced ? 1 : 0);
  Runner runner(*w, small ? w->small : w->full, seed, seconds, traced);
  return runner.run(spans_path);
}
