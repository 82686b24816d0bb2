#include "audit/auditors.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "baselines/baselines.hpp"
#include "core/checks.hpp"
#include "core/local_decision.hpp"
#include "local/bandwidth.hpp"
#include "local/flood.hpp"
#include "support/parallel.hpp"
#include "support/union_find.hpp"

namespace chordal::audit {

namespace {

[[noreturn]] void fail(const std::string& claim, const std::string& witness) {
  throw AuditFailure("audit: " + claim + ": " + witness);
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Runs a core::require_* style check, rewrapping its std::logic_error as
/// AuditFailure so every violation surfaces under the one documented type.
template <typename Fn>
void check_as_audit(const std::string& claim, Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& e) {
    throw AuditFailure("audit: " + claim + ": " + e.what());
  }
}

}  // namespace

void audit_coloring(const Graph& g, const core::MvcResult& r) {
  int n = g.num_vertices();
  if (static_cast<int>(r.colors.size()) != n) {
    fail("coloring covers every vertex",
         "colors.size() = " + std::to_string(r.colors.size()) + ", n = " +
             std::to_string(n));
  }
  check_as_audit("proper coloring",
                 [&] { core::require_proper_coloring(g, r.colors); });
  if (core::count_colors(r.colors) != r.num_colors) {
    fail("num_colors matches distinct colors used",
         "reported " + std::to_string(r.num_colors) + ", counted " +
             std::to_string(core::count_colors(r.colors)));
  }
  int chi = baselines::chromatic_number_chordal(g);
  if (r.omega != chi) {
    fail("omega equals the exact chromatic number (chordal: chi == omega)",
         "reported omega " + std::to_string(r.omega) + ", exact chi " +
             std::to_string(chi));
  }
  if (n > 0 && r.num_colors < chi) {
    fail("coloring uses at least chi colors",
         std::to_string(r.num_colors) + " < " + std::to_string(chi));
  }
  if (r.k < 2) {
    fail("k = max(2, ceil(2/eps))", "k = " + std::to_string(r.k));
  }
  // Theorem 3 as implemented: (1 + 1/k)-approximation plus one color.
  int budget = chi + chi / r.k + 1;
  if (r.num_colors > budget) {
    fail("Theorem 3 color bound omega + omega/k + 1",
         std::to_string(r.num_colors) + " > " + std::to_string(budget) +
             " (omega " + std::to_string(chi) + ", k " + std::to_string(r.k) +
             ")");
  }
  if (r.palette_violations != 0) {
    fail("Lemma 9/10 palette tripwire",
         std::to_string(r.palette_violations) + " violations");
  }
  if (r.rounds < 0 || r.pruning_rounds < 0 || r.coloring_rounds < 0 ||
      r.correction_rounds < 0) {
    fail("round ledger is non-negative", "negative phase total");
  }
}

void audit_mis(const Graph& g, const core::MisResult& r, double eps) {
  check_as_audit("independent set",
                 [&] { core::require_independent_set(g, r.chosen); });
  if (!std::is_sorted(r.chosen.begin(), r.chosen.end())) {
    fail("MIS output is sorted", "unsorted chosen list");
  }
  for (int v : r.chosen) {
    if (v < 0 || v >= g.num_vertices()) {
      fail("MIS vertices are in range", "vertex " + std::to_string(v));
    }
  }
  int alpha = baselines::independence_number_chordal(g);
  double scaled = (1.0 + eps) * static_cast<double>(r.chosen.size());
  if (scaled < static_cast<double>(alpha)) {
    fail("Theorem 7 size bound (1 + eps) * |I| >= alpha",
         "|I| = " + std::to_string(r.chosen.size()) + ", alpha = " +
             std::to_string(alpha) + ", eps = " + fmt_double(eps));
  }
}

bool is_maximal_independent_set(const Graph& g, std::span<const int> set) {
  if (!core::is_independent_set(g, set)) return false;
  std::vector<char> in_set(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int v : set) in_set[v] = 1;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (in_set[v]) continue;
    bool blocked = false;
    for (int u : g.neighbors(v)) blocked = blocked || in_set[u];
    if (!blocked) return false;  // v could be added
  }
  return true;
}

void audit_graph_csr(const Graph& g) {
  const int n = g.num_vertices();
  auto offsets = g.offsets_span();
  if (offsets.size() != static_cast<std::size_t>(n) + 1 || offsets[0] != 0) {
    fail("CSR offsets span [0..n] with offsets[0] == 0",
         "size " + std::to_string(offsets.size()));
  }
  long long slots = 0;
  for (int v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      fail("CSR offsets are monotone", "vertex " + std::to_string(v));
    }
    auto row = g.neighbors(v);
    slots += static_cast<long long>(row.size());
    VertexId prev = -1;
    for (VertexId u : row) {
      if (u < 0 || u >= static_cast<VertexId>(n)) {
        fail("CSR neighbors are in [0, n)", "vertex " + std::to_string(v) +
                                                " slot " + std::to_string(u));
      }
      if (u <= prev) {
        fail("CSR rows are strictly ascending",
             "vertex " + std::to_string(v));
      }
      if (static_cast<int>(u) == v) {
        fail("CSR rows are loop-free", "vertex " + std::to_string(v));
      }
      if (!g.has_edge(static_cast<int>(u), v)) {
        fail("CSR adjacency is symmetric", std::to_string(v) + " -> " +
                                               std::to_string(u) +
                                               " has no mirror");
      }
      prev = u;
    }
  }
  if (slots != 2 * static_cast<long long>(g.num_edges())) {
    fail("edge count equals half the adjacency volume",
         std::to_string(slots) + " slots vs m = " +
             std::to_string(g.num_edges()));
  }
}

void audit_clique_forest(const Graph& g, const CliqueForest& forest) {
  forest.verify(g);  // tree-decomposition axioms + acyclicity
  int nc = forest.num_cliques();
  // Every stored bag is a clique of g... (verify checks edge coverage, the
  // converse direction - no bag may contain a non-adjacent pair).
  for (int c = 0; c < nc; ++c) {
    const auto& bag = forest.clique(c);
    if (!std::is_sorted(bag.begin(), bag.end()) ||
        std::adjacent_find(bag.begin(), bag.end()) != bag.end()) {
      fail("bags are sorted duplicate-free vertex lists",
           "bag " + std::to_string(c));
    }
    for (std::size_t i = 0; i < bag.size(); ++i) {
      for (std::size_t j = i + 1; j < bag.size(); ++j) {
        if (!g.has_edge(bag[i], bag[j])) {
          fail("every bag is a clique of g",
               "bag " + std::to_string(c) + " holds non-adjacent pair (" +
                   std::to_string(bag[i]) + ", " + std::to_string(bag[j]) +
                   ")");
        }
      }
    }
    // ... and maximal: no outside vertex is adjacent to the whole bag.
    if (!bag.empty()) {
      for (int w : g.neighbors(bag[0])) {
        if (std::binary_search(bag.begin(), bag.end(), w)) continue;
        bool dominates = true;
        for (int u : bag) {
          if (u != w && !g.has_edge(u, w)) {
            dominates = false;
            break;
          }
        }
        if (dominates) {
          fail("every bag is a MAXIMAL clique",
               "vertex " + std::to_string(w) + " extends bag " +
                   std::to_string(c));
        }
      }
    }
  }
  // Membership lists are exactly the inverted bag contents.
  std::vector<std::vector<int>> inverted(
      static_cast<std::size_t>(g.num_vertices()));
  for (int c = 0; c < nc; ++c) {
    for (VertexId v : forest.clique(c)) {
      inverted[static_cast<std::size_t>(v)].push_back(c);
    }
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    auto phi = forest.cliques_of(v);
    if (inverted[v].size() != phi.size() ||
        !std::equal(phi.begin(), phi.end(), inverted[v].begin(),
                    [](CliqueId a, int b) { return static_cast<int>(a) == b; })) {
      fail("phi(v) matches bag contents", "vertex " + std::to_string(v));
    }
  }
  // The forest spans every component of the clique intersection graph:
  // cliques sharing a vertex are WCIG-adjacent, so per-vertex membership
  // chains generate exactly the WCIG connectivity.
  UnionFind uf(nc);
  int components = nc;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto family = forest.cliques_of(v);
    for (std::size_t i = 1; i < family.size(); ++i) {
      if (uf.unite(static_cast<int>(family[0]), static_cast<int>(family[i]))) {
        --components;
      }
    }
  }
  auto edges = forest.forest_edges();
  if (static_cast<int>(edges.size()) != nc - components) {
    fail("forest spans the clique intersection graph",
         std::to_string(edges.size()) + " edges for " + std::to_string(nc) +
             " cliques in " + std::to_string(components) + " components");
  }
}

void audit_forest_engine_parity(const CliqueFamily& cliques,
                                int num_graph_vertices) {
  ForestScratch scratch;
  std::vector<WcigEdge> fast;
  max_weight_spanning_forest(cliques, num_graph_vertices, scratch, fast);
  std::vector<WcigEdge> ref =
      max_weight_spanning_forest_oracle(cliques, num_graph_vertices);
  auto describe = [](const std::vector<WcigEdge>& edges) {
    std::ostringstream out;
    for (const auto& e : edges) {
      out << '(' << e.a << ',' << e.b << ',' << e.weight << ')';
    }
    return out.str();
  };
  if (fast.size() != ref.size() ||
      !std::equal(fast.begin(), fast.end(), ref.begin(),
                  [](const WcigEdge& x, const WcigEdge& y) {
                    return x.a == y.a && x.b == y.b && x.weight == y.weight;
                  })) {
    fail("Theorem 2 unique forest: engine == reference",
         "fast {" + describe(fast) + "} vs ref {" + describe(ref) + "}");
  }
}

void audit_family_forest_parity(const CliqueForest& forest) {
  ForestScratch scratch;
  std::vector<std::pair<int, int>> fast;
  for (int v = 0; v < forest.num_graph_vertices(); ++v) {
    const auto family = forest.cliques_of(v);
    if (family.size() < 2) continue;
    // The reference runs on a deep copy of the family cliques; family is
    // ascending and the cliques are sorted words, so e.a < e.b maps to an
    // ordered pair of global clique indices.
    std::vector<std::vector<int>> family_cliques;
    family_cliques.reserve(family.size());
    int bound = 0;
    for (CliqueId c : family) {
      family_cliques.push_back(word_vec(forest.clique(static_cast<int>(c))));
      bound = std::max(bound, family_cliques.back().back() + 1);
    }
    std::vector<std::pair<int, int>> ref;
    for (const auto& e :
         max_weight_spanning_forest_oracle(family_cliques, bound)) {
      ref.emplace_back(static_cast<int>(family[e.a]),
                       static_cast<int>(family[e.b]));
    }
    fast.clear();
    family_forest_edges(forest.cliques(), family, scratch, fast);
    if (fast != ref) {
      fail("Lemma 2 per-family forest: engine == reference",
           "phi(" + std::to_string(v) + ") of " +
               std::to_string(family.size()) + " cliques");
    }
  }
}

void audit_network_conservation(const obs::Registry& reg) {
  auto counter_value = [&reg](const char* name) -> std::int64_t {
    const obs::Counter* c = reg.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  const obs::Histogram* round_messages =
      reg.find_histogram("net.round_messages");
  const obs::Histogram* round_words =
      reg.find_histogram("net.round_payload_words");
  std::int64_t messages = counter_value("net.messages");
  std::int64_t words = counter_value("net.payload_words");
  std::int64_t rounds = counter_value("net.rounds");
  auto hist_sum = [](const obs::Histogram* h) -> std::int64_t {
    return h == nullptr ? 0 : static_cast<std::int64_t>(h->sum());
  };
  auto hist_count = [](const obs::Histogram* h) -> std::int64_t {
    return h == nullptr ? 0 : static_cast<std::int64_t>(h->count());
  };
  if (messages != hist_sum(round_messages)) {
    fail("conservation: sum of per-round message charges == net.messages",
         "counter " + std::to_string(messages) + ", round sum " +
             std::to_string(hist_sum(round_messages)));
  }
  if (words != hist_sum(round_words)) {
    fail("conservation: sum of per-round payload charges == "
         "net.payload_words",
         "counter " + std::to_string(words) + ", round sum " +
             std::to_string(hist_sum(round_words)));
  }
  if (rounds != hist_count(round_messages)) {
    fail("conservation: one round sample per deliver()",
         "counter " + std::to_string(rounds) + ", samples " +
             std::to_string(hist_count(round_messages)));
  }
}

void audit_rejects_non_chordal(const Graph& g) {
  auto expect_invalid = [](const char* what, auto&& fn) {
    try {
      fn();
    } catch (const std::invalid_argument&) {
      return;  // the contract: typed rejection
    } catch (const std::exception& e) {
      fail("non-chordal input rejected with std::invalid_argument",
           std::string(what) + " threw a different exception: " + e.what());
    }
    fail("non-chordal input rejected with std::invalid_argument",
         std::string(what) + " accepted the input");
  };
  expect_invalid("mvc_chordal", [&g] { core::mvc_chordal(g); });
  expect_invalid("mis_chordal", [&g] { core::mis_chordal(g); });
  expect_invalid("CliqueForest::build", [&g] { CliqueForest::build(g); });
  expect_invalid("chromatic_number_chordal",
                 [&g] { baselines::chromatic_number_chordal(g); });
  expect_invalid("maximum_independent_set_chordal",
                 [&g] { baselines::maximum_independent_set_chordal(g); });
}

std::string DriverAuditConfig::label() const {
  std::string out = "threads=" + std::to_string(threads);
  if (congest) {
    out += " model=congest(B=" +
           (congest_b > 0 ? std::to_string(congest_b) : std::string("auto")) +
           ")";
  }
  return out;
}

bool operator==(const DriverAuditResult& a, const DriverAuditResult& b) {
  return a.colors == b.colors && a.num_colors == b.num_colors &&
         a.mis == b.mis && a.mvc_rounds == b.mvc_rounds &&
         a.mis_rounds == b.mis_rounds && a.num_layers == b.num_layers &&
         a.telemetry == b.telemetry;
}

namespace {

bool is_effectiveness_metric(const std::string& name) {
  return name.rfind("engine.", 0) == 0;
}

void signature_spans(const obs::SpanNode& node, std::ostringstream& out,
                     int depth) {
  out << depth << '|' << node.name << "|r" << node.rounds << "|m"
      << node.messages << "|w" << node.payload_words;
  for (const auto& [key, value] : node.notes) {
    out << '|' << key << '=' << fmt_double(value);
  }
  out << '\n';
  for (const auto& child : node.children) {
    signature_spans(*child, out, depth + 1);
  }
}

/// Everything deterministic in the registry: counters, gauges, histogram
/// sample moments, and the span tree with LOCAL-model charges - excluding
/// wall times and engine.* effectiveness metrics, exactly the scrub rule
/// of scripts/bench_diff.py --parity.
std::string telemetry_signature(const obs::Registry& reg) {
  std::ostringstream out;
  for (const auto& [name, counter] : reg.counters()) {
    if (is_effectiveness_metric(name)) continue;
    out << "c|" << name << '|' << counter.value() << '\n';
  }
  for (const auto& [name, gauge] : reg.gauges()) {
    if (is_effectiveness_metric(name)) continue;
    out << "g|" << name << '|' << fmt_double(gauge.value()) << '\n';
  }
  for (const auto& [name, hist] : reg.histograms()) {
    if (is_effectiveness_metric(name)) continue;
    out << "h|" << name << '|' << hist.count();
    if (hist.count() > 0) {
      out << '|' << fmt_double(hist.sum()) << '|' << fmt_double(hist.min())
          << '|' << fmt_double(hist.max()) << '|' << fmt_double(hist.p50())
          << '|' << fmt_double(hist.p95());
    }
    out << '\n';
  }
  signature_spans(reg.span_root(), out, 0);
  return out.str();
}

/// Restores the pool's thread count on scope exit (environment-default
/// semantics, mirroring how the parity tests and benches toggle it).
struct KnobGuard {
  ~KnobGuard() { support::set_num_threads(0); }
};

}  // namespace

DriverAuditResult run_driver_audit(const Graph& g,
                                   const DriverAuditConfig& config) {
  KnobGuard restore;
  support::set_num_threads(config.threads);
  const local::BandwidthConfig net =
      config.congest ? local::congest(config.congest_b)
                     : local::BandwidthConfig{};

  audit_graph_csr(g);

  DriverAuditResult out;
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);

    core::MvcResult mvc =
        core::mvc_chordal(g, {.eps = config.eps_color, .net = net});
    audit_coloring(g, mvc);

    if (config.check_per_node_pruning) {
      // Lemma 12: every layer decision derived from the owning node's own
      // ball must reproduce the global peeling, hence the exact coloring.
      core::MvcResult per_node = core::mvc_chordal(
          g, {.eps = config.eps_color,
              .pruning = core::PruningMode::kPerNodeLocalViews,
              .net = net});
      if (per_node.colors != mvc.colors ||
          per_node.num_layers != mvc.num_layers) {
        fail("Lemma 12: per-node local decisions == global peeling",
             "colorings diverge on " + g.summary());
      }
    }

    core::MisResult mis =
        core::mis_chordal(g, {.eps = config.eps_mis, .net = net});
    audit_mis(g, mis, config.eps_mis);

    baselines::DPlusOneResult dp =
        baselines::dplus1_coloring(g, config.dplus1_seed, net);
    check_as_audit("(Delta+1) greedy is proper",
                   [&] { core::require_proper_coloring(g, dp.colors); });
    if (dp.num_colors > g.max_degree() + 1) {
      fail("(Delta+1) greedy stays within Delta + 1 colors",
           std::to_string(dp.num_colors) + " > " +
               std::to_string(g.max_degree() + 1));
    }

    CliqueForest forest = CliqueForest::build(g);
    audit_clique_forest(g, forest);
    audit_forest_engine_parity(forest.cliques(), g.num_vertices());
    audit_family_forest_parity(forest);

    std::vector<int> exact_coloring = baselines::optimal_coloring_chordal(g);
    check_as_audit("exact baseline coloring is proper", [&] {
      core::require_proper_coloring(g, exact_coloring);
    });
    if (core::count_colors(exact_coloring) != mvc.omega) {
      fail("exact baseline uses exactly omega colors",
           std::to_string(core::count_colors(exact_coloring)) + " != " +
               std::to_string(mvc.omega));
    }
    std::vector<int> exact_mis = baselines::maximum_independent_set_chordal(g);
    if (!is_maximal_independent_set(g, exact_mis)) {
      fail("exact MIS baseline is a maximal independent set", g.summary());
    }
    if (exact_mis.size() < mis.chosen.size()) {
      fail("approximate MIS never beats the exact optimum",
           std::to_string(mis.chosen.size()) + " > " +
               std::to_string(exact_mis.size()));
    }

    out.colors = std::move(mvc.colors);
    out.num_colors = mvc.num_colors;
    out.mis = std::move(mis.chosen);
    out.mvc_rounds = mvc.rounds;
    out.mis_rounds = mis.rounds;
    out.num_layers = mvc.num_layers;
  }
  audit_network_conservation(reg);
  out.telemetry = telemetry_signature(reg);

  // Bandwidth-model cross-check on a driver path that actually moves its
  // words through the Network: the flood-based ball collection's modeled
  // word tally (local/bandwidth.hpp edge_report_words) must equal the
  // Network's exact NetworkStats accounting, the learned knowledge must be
  // bit-identical across models, and CONGEST may only add rounds.
  if (g.num_vertices() > 0) {
    const local::BandwidthConfig other =
        config.congest ? local::BandwidthConfig{}
                       : local::congest(config.congest_b);
    local::FloodBallsResult flood = local::flood_balls(g, 2, net);
    if (flood.modeled_words != flood.stats.total_payload_words) {
      fail("modeled bandwidth words == NetworkStats payload words",
           std::to_string(flood.modeled_words) + " modeled != " +
               std::to_string(flood.stats.total_payload_words) +
               " transmitted on " + g.summary());
    }
    local::FloodBallsResult cross = local::flood_balls(g, 2, other);
    if (flood.known != cross.known) {
      fail("flooded ball knowledge is model-independent",
           "LOCAL and CONGEST floods learned different edge sets on " +
               g.summary());
    }
    const std::int64_t congest_rounds =
        config.congest ? flood.rounds : cross.rounds;
    const std::int64_t local_rounds =
        config.congest ? cross.rounds : flood.rounds;
    if (congest_rounds < local_rounds) {
      fail("CONGEST fragmentation never reduces rounds",
           std::to_string(congest_rounds) + " < " +
               std::to_string(local_rounds) + " on " + g.summary());
    }
  }
  return out;
}

int run_driver_audit_matrix(const Graph& g, double eps_color, double eps_mis,
                            bool check_per_node_pruning) {
  DriverAuditResult baseline;
  std::string baseline_label;
  int configs = 0;
  for (int threads : {1, 8}) {
    DriverAuditConfig config;
    config.threads = threads;
    config.eps_color = eps_color;
    config.eps_mis = eps_mis;
    config.check_per_node_pruning = check_per_node_pruning;
    DriverAuditResult result = run_driver_audit(g, config);
    if (configs == 0) {
      baseline = std::move(result);
      baseline_label = config.label();
    } else if (!(result == baseline)) {
      fail("differential parity across the execution matrix",
           config.label() + " diverges from " + baseline_label + " on " +
               g.summary());
    }
    ++configs;
  }
  // CONGEST leg: fragmented runs must produce bit-identical algorithm
  // outputs to the LOCAL baseline at every thread count; round counts may
  // only grow (transfer rounds are additive). The two congest signatures
  // must also agree with each other in full, telemetry included.
  DriverAuditResult congest_baseline;
  std::string congest_baseline_label;
  int congest_configs = 0;
  for (int threads : {1, 8}) {
    DriverAuditConfig config;
    config.threads = threads;
    config.congest = true;
    config.eps_color = eps_color;
    config.eps_mis = eps_mis;
    config.check_per_node_pruning = check_per_node_pruning;
    DriverAuditResult result = run_driver_audit(g, config);
    if (result.colors != baseline.colors ||
        result.num_colors != baseline.num_colors ||
        result.mis != baseline.mis ||
        result.num_layers != baseline.num_layers) {
      fail("CONGEST outputs bit-identical to LOCAL",
           config.label() + " diverges from " + baseline_label + " on " +
               g.summary());
    }
    if (result.mvc_rounds < baseline.mvc_rounds ||
        result.mis_rounds < baseline.mis_rounds) {
      fail("CONGEST round counts never drop below LOCAL",
           config.label() + " on " + g.summary());
    }
    if (congest_configs == 0) {
      congest_baseline = std::move(result);
      congest_baseline_label = config.label();
    } else if (!(result == congest_baseline)) {
      fail("differential parity across the CONGEST execution matrix",
           config.label() + " diverges from " + congest_baseline_label +
               " on " + g.summary());
    }
    ++congest_configs;
  }
  return configs + congest_configs;
}

}  // namespace chordal::audit
