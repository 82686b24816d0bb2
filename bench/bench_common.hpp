// Shared helpers for the experiment harnesses (E1-E9). Every binary prints
// a header naming the paper claim it regenerates and a table of
// paper-expected vs. measured values; EXPERIMENTS.md records the outputs.
//
// All harnesses additionally accept
//
//   --json <path>
//
// which installs an obs::Registry for the whole run and, on exit, dumps a
// machine-readable report: the experiment name/claim, every registered
// table, and the telemetry tree (counters, per-node congestion histograms,
// and the phase-scoped trace spans with {rounds, messages, payload_words,
// wall_ms} per phase). This is what the BENCH_*.json perf trajectory is
// built from.
//
// Orthogonally,
//
//   --trace <path>         Chrome trace_event JSON (chrome://tracing,
//                          Perfetto) of the whole run
//   --trace-jsonl <path>   the same event stream as compact JSONL
//
// install an obs::Tracer for the run and export the causal event trace on
// exit: phases, per-round network sends/delivers with message lineage,
// peel/color/MIS decisions, forest builds. Tracing also
// installs the registry (spans need it to record), so --trace alone still
// produces phase tracks. scripts/trace_check.py validates the output.
//
//   --model local|congest  network model (default local)
//   --congest-b <words>    fixed CONGEST capacity B >= 0 (0 = auto,
//                          ceil(log2 n)); only valid with --model congest
//
// select Context::net(), which a bench passes explicitly to every driver,
// baseline and ball collection it runs; nothing else reads them.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "local/bandwidth.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/table.hpp"

namespace chordal::bench {

inline void header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================\n\n");
}

/// Per-binary harness state: arg parsing, the banner, table registration,
/// and (with --json) telemetry collection plus the end-of-run JSON dump.
class Context {
 public:
  Context(int argc, char** argv, const char* experiment, const char* claim)
      : experiment_(experiment), claim_(claim) {
    std::string model;
    std::optional<std::string> congest_b;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        json_path_ = arg.substr(7);
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (arg.rfind("--trace=", 0) == 0) {
        trace_path_ = arg.substr(8);
      } else if (arg == "--trace-jsonl" && i + 1 < argc) {
        trace_jsonl_path_ = argv[++i];
      } else if (arg.rfind("--trace-jsonl=", 0) == 0) {
        trace_jsonl_path_ = arg.substr(14);
      } else if (arg == "--model" && i + 1 < argc) {
        model = argv[++i];
      } else if (arg.rfind("--model=", 0) == 0) {
        model = arg.substr(8);
      } else if (arg == "--congest-b" && i + 1 < argc) {
        congest_b = argv[++i];
      } else if (arg.rfind("--congest-b=", 0) == 0) {
        congest_b = arg.substr(12);
      } else if (arg == "--json" || arg == "--trace" ||
                 arg == "--trace-jsonl" || arg == "--model" ||
                 arg == "--congest-b") {
        std::fprintf(stderr, "%s requires a value\n%s", arg.c_str(), kUsage);
        std::exit(2);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("%s", kUsage);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n%s", arg.c_str(), kUsage);
        std::exit(2);
      }
    }
    if (model == "congest") {
      net_ = local::congest(congest_b ? parse_words(*congest_b) : 0);
    } else if (!model.empty() && model != "local") {
      std::fprintf(stderr, "unknown --model %s (local|congest)\n%s",
                   model.c_str(), kUsage);
      std::exit(2);
    } else if (congest_b) {
      std::fprintf(stderr, "--congest-b requires --model congest\n%s",
                   kUsage);
      std::exit(2);
    }
    // Spans only record under a live registry, so tracing implies one: a
    // --trace run without --json still gets its phase track (the registry
    // report is simply not written).
    if (!json_path_.empty() || trace_enabled()) scope_.emplace(registry_);
    if (trace_enabled()) {
      tracer_ = std::make_unique<obs::Tracer>();
      trace_scope_.emplace(*tracer_);
    }
    header(experiment, claim);
  }

  ~Context() {
    if (trace_enabled()) {
      trace_scope_.reset();  // stop tracing before serialization
      if (!trace_path_.empty()) write_file(trace_path_, tracer_->to_chrome_json(), "trace");
      if (!trace_jsonl_path_.empty()) {
        write_file(trace_jsonl_path_, tracer_->to_jsonl(), "trace");
      }
    }
    if (json_path_.empty()) {
      scope_.reset();
      return;
    }
    scope_.reset();  // stop collecting before serialization
    obs::JsonWriter w;
    w.begin_object();
    w.key("experiment").value(experiment_);
    w.key("claim").value(claim_);
    w.key("tables");
    w.begin_array();
    for (const auto& [name, table] : tables_) {
      w.begin_object();
      w.key("name").value(name);
      w.key("headers");
      w.begin_array();
      for (const auto& h : table.headers()) w.value(h);
      w.end_array();
      w.key("rows");
      w.begin_array();
      for (const auto& row : table.rows()) {
        w.begin_array();
        for (const auto& cell : row) w.value(cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("telemetry");
    registry_.write_json(w);
    w.end_object();
    write_file(json_path_, w.str(), "json report");
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  bool json_enabled() const { return !json_path_.empty(); }
  /// The network model selected by --model / --congest-b (default LOCAL).
  const local::BandwidthConfig& net() const { return net_; }
  bool trace_enabled() const {
    return !trace_path_.empty() || !trace_jsonl_path_.empty();
  }
  obs::Registry& registry() { return registry_; }

  /// Records a (printed) table for the JSON report; copies the cells.
  void add_table(const char* name, const Table& table) {
    if (json_enabled()) tables_.emplace_back(name, table);
  }

 private:
  static constexpr const char* kUsage =
      "usage: <bench> [--json <path>] [--trace <path>] "
      "[--trace-jsonl <path>] [--model local|congest] [--congest-b <words>]\n";

  /// --congest-b value: a non-negative decimal word count, else exit 2.
  static std::int64_t parse_words(const std::string& text) {
    std::int64_t words = -1;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, words);
    if (ec != std::errc{} || ptr != end || words < 0) {
      std::fprintf(stderr,
                   "--congest-b must be a non-negative integer, got '%s'\n%s",
                   text.c_str(), kUsage);
      std::exit(2);
    }
    return words;
  }

  static void write_file(const std::string& path, const std::string& body,
                         const char* what) {
    std::ofstream out(path);
    out << body << "\n";
    out.flush();
    if (!out) {
      // A destructor cannot change main()'s exit status, so fail as loudly
      // as a library may: diagnose and abort the process with a nonzero code.
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("\n[%s written to %s]\n", what, path.c_str());
  }

  std::string experiment_;
  std::string claim_;
  std::string json_path_;
  std::string trace_path_;
  std::string trace_jsonl_path_;
  local::BandwidthConfig net_;
  std::vector<std::pair<std::string, Table>> tables_;
  obs::Registry registry_;
  std::optional<obs::ScopedRegistry> scope_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::optional<obs::ScopedTracer> trace_scope_;
};

/// Standard chordal workload used across experiments: prescribed clique
/// tree with the given shape scaled to ~n vertices (bags average ~4 fresh
/// vertices each).
inline GeneratedChordal chordal_workload(int approx_n, TreeShape shape,
                                         std::uint64_t seed) {
  CliqueTreeConfig config;
  config.num_bags = std::max(2, approx_n / 4);
  config.min_bag_size = 2;
  config.max_bag_size = 6;
  config.max_shared = 3;
  config.shape = shape;
  config.seed = seed;
  return random_chordal_from_clique_tree(config);
}

}  // namespace chordal::bench
