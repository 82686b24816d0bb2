// Pinned-seed fuzz/audit gate (scripts/fuzz.sh, wired into check.sh).
//
// Builds the structured corpus from src/audit/fuzzers.hpp and pushes every
// case through the invariant auditors: chordal graph cases run the full
// differential execution matrix (threads {1,8} x model {LOCAL,CONGEST})
// with every per-claim auditor enabled, the whole-graph and per-family
// forest engine parity checks included; near-chordal cases must be
// rejected with a typed exception; corrupted byte streams must
// parse canonically or throw - never crash. Intended to run under ASan+UBSan:
// any sanitizer report, crash, or auditor violation fails the gate.
//
// Chordal graph cases are joined by dynamic update schedules: each replays
// a seeded edge/vertex churn sequence through DynamicChordal under the full
// execution matrix, asserting incremental state == full recomputation after
// every step and validating every rejection's witness cycle (see
// audit/update_fuzz.cpp).
//
// Usage: fuzz_runner [--seed S] [--per-family N] [--streams N]
//                    [--schedules N] [--max-matrix-n N] [--per-node-n N]
//                    [--verbose]
// CHORDAL_FUZZ_ITERS scales the corpus (approximate static case count;
// default 500, floor 60). Update schedules default to max(500, iters) -
// the PR-8 gate requires at least 500.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <fstream>

#include "audit/auditors.hpp"
#include "audit/fuzzers.hpp"
#include "graph/graphio.hpp"
#include "obs/trace.hpp"

namespace {

using namespace chordal;

bool graphs_equal(const Graph& a, const Graph& b) {
  return a.num_vertices() == b.num_vertices() && a.edges() == b.edges();
}

/// Parse-or-typed-throw plus canonical round-trip; returns an error
/// description, empty on success.
std::string check_stream(const audit::StreamCase& sc) {
  Graph parsed;
  bool parsed_ok = false;
  try {
    parsed = graph_from_string(sc.text);
    parsed_ok = true;
  } catch (const std::exception&) {
    parsed_ok = false;  // typed rejection is always acceptable
  }
  if (sc.expect == audit::StreamExpect::kMustParse && !parsed_ok) {
    return "well-formed stream rejected";
  }
  if (sc.expect == audit::StreamExpect::kMustReject && parsed_ok) {
    return "malformed stream accepted";
  }
  if (parsed_ok) {
    // Whatever parsed must be a well-formed CSR slab before anything else
    // consumes it.
    try {
      audit::audit_graph_csr(parsed);
    } catch (const std::exception& e) {
      return std::string("parsed graph fails CSR audit: ") + e.what();
    }
    // Canonical fixpoint: serialize -> reparse must reproduce the graph.
    Graph reparsed = graph_from_string(graph_to_string(parsed));
    if (!graphs_equal(parsed, reparsed)) {
      return "graph_from_string(graph_to_string(g)) != g";
    }
  }
  return {};
}

/// Re-runs the failing graph case under an obs::Tracer and writes the
/// Chrome trace next to the failing input: the causal event stream (peel
/// and local decisions, audit verdicts, forest builds) of the exact run
/// that tripped the auditor, loadable in Perfetto for triage. The re-run
/// is expected to throw again; a case that no longer fails is noted.
void dump_failure_trace(const audit::GraphCase& gc, double eps_color,
                        double eps_mis, bool per_node,
                        const std::string& path) {
  obs::Tracer tracer;
  bool rethrew = false;
  {
    obs::ScopedTracer scope(tracer);
    try {
      audit::run_driver_audit_matrix(gc.graph, eps_color, eps_mis, per_node);
    } catch (const std::exception&) {
      rethrew = true;
    }
  }
  std::ofstream out(path);
  out << tracer.to_chrome_json() << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "  (cannot write failure trace %s)\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "  failure trace: %s%s\n", path.c_str(),
               rethrew ? "" : " (did not reproduce on re-run)");
}

long long arg_value(int argc, char** argv, const char* flag, long long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  long long iters = 500;
  if (const char* env = std::getenv("CHORDAL_FUZZ_ITERS")) {
    iters = std::atoll(env);
  }
  if (iters < 60) iters = 60;

  audit::CorpusConfig config;
  config.seed = static_cast<std::uint64_t>(
      arg_value(argc, argv, "--seed", 0xC0FFEE));
  // Default split: ~70% byte streams (cheap), ~30% graph matrix runs.
  config.num_streams =
      static_cast<int>(arg_value(argc, argv, "--streams", iters * 7 / 10));
  config.per_graph_family = static_cast<int>(arg_value(
      argc, argv, "--per-family", (iters - config.num_streams) / 4));
  config.num_schedules = static_cast<int>(
      arg_value(argc, argv, "--schedules", iters < 500 ? 500 : iters));
  long long max_matrix_n = arg_value(argc, argv, "--max-matrix-n", 100000);
  long long per_node_n = arg_value(argc, argv, "--per-node-n", 48);
  bool verbose = has_flag(argc, argv, "--verbose");

  audit::Corpus corpus = audit::build_corpus(config);
  std::printf(
      "fuzz corpus: %zu graph cases + %zu stream cases + %zu update "
      "schedules (seed %llu)\n",
      corpus.graphs.size(), corpus.streams.size(), corpus.schedules.size(),
      static_cast<unsigned long long>(config.seed));

  int failures = 0;
  int matrix_configs = 0;
  auto report = [&failures](const std::string& name, const std::string& why) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(), why.c_str());
  };

  for (const audit::StreamCase& sc : corpus.streams) {
    std::string err = check_stream(sc);
    if (!err.empty()) report(sc.name, err);
    if (verbose) std::printf("stream %-28s ok\n", sc.name.c_str());
  }

  for (const audit::GraphCase& gc : corpus.graphs) {
    try {
      if (!gc.chordal) {
        audit::audit_rejects_non_chordal(gc.graph);
      } else if (gc.graph.num_vertices() <= max_matrix_n) {
        matrix_configs += audit::run_driver_audit_matrix(
            gc.graph, /*eps_color=*/0.5, /*eps_mis=*/0.25,
            /*check_per_node_pruning=*/gc.graph.num_vertices() <= per_node_n);
      }
      if (verbose) {
        std::printf("graph %-28s %s ok\n", gc.name.c_str(),
                    gc.graph.summary().c_str());
      }
    } catch (const std::exception& e) {
      report(gc.name, e.what());
      if (gc.chordal && gc.graph.num_vertices() <= max_matrix_n) {
        // Also persist the failing input itself so the trace has a graph
        // to be replayed against.
        std::string base = "fuzz_fail_" + gc.name;
        std::ofstream graph_out(base + ".graph");
        graph_out << graph_to_string(gc.graph);
        dump_failure_trace(gc, /*eps_color=*/0.5, /*eps_mis=*/0.25,
                           gc.graph.num_vertices() <= per_node_n,
                           base + ".trace.json");
      }
    }
  }

  int schedule_configs = 0;
  for (const audit::ScheduleCase& sc : corpus.schedules) {
    try {
      schedule_configs +=
          audit::run_update_schedule_matrix(sc.base, sc.seed, sc.steps);
      if (verbose) {
        std::printf("schedule %-28s %s ok\n", sc.name.c_str(),
                    sc.base.summary().c_str());
      }
    } catch (const std::exception& e) {
      report(sc.name, e.what());
    }
  }

  std::printf(
      "fuzz summary: %zu streams, %zu graphs, %d matrix configurations, "
      "%zu schedules (%d schedule configurations), %d failure(s)\n",
      corpus.streams.size(), corpus.graphs.size(), matrix_configs,
      corpus.schedules.size(), schedule_configs, failures);
  return failures == 0 ? 0 : 1;
}
