// Update-schedule differential harness for the dynamic layer (PR 8).
//
// A schedule is replayed as a pure function of (base graph, seed, steps):
// every op is drawn from the schedule Rng against the *current* graph
// state, so two replays under different execution configs (thread counts)
// draw the identical op sequence and must land on the identical final
// signature. Three op classes:
//
//   * organic churn - random edge inserts/deletes, simplicial-biased vertex
//     inserts, vertex deletes. The certifier decides validity; both
//     outcomes are audited (applied ops via signature parity, rejected ops
//     via witness validation).
//   * guaranteed-valid moves - re-inserting a just-deleted edge into the
//     unchanged graph, inserting a vertex whose neighborhood is a greedily
//     extracted clique: keeps schedules from starving on dense bases.
//   * injected violations - a vertex insert whose neighborhood is a
//     non-adjacent pair {a, b} sharing a common neighbor w: the component
//     of G - {a, b} containing w attaches to both, so the certifier MUST
//     reject, and the witness must be a genuine chordless cycle.
//
// After every step, audit_dynamic_parity asserts the incrementally
// repaired state (colors, MIS, clique family, forest) is bit-identical to
// full recomputation on the alive-induced graph.
#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditors.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace chordal::audit {

namespace {

[[noreturn]] void fail(const std::string& claim, const std::string& witness) {
  throw AuditFailure("audit: " + claim + ": " + witness);
}

std::string cycle_str(const std::vector<int>& cycle) {
  std::string out = "[";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(cycle[i]);
  }
  return out + "]";
}

/// Asserts `cycle` is a chordless cycle of length >= 4 under `adj` (the
/// adjacency of the graph the rejected update would have produced).
template <typename Adj>
void check_witness_cycle(const std::vector<int>& cycle, Adj&& adj,
                         const char* op) {
  const std::string what = std::string("rejection witness of ") + op +
                           " is a chordless cycle";
  if (cycle.size() < 4) fail(what, "length " + std::to_string(cycle.size()));
  std::vector<int> sorted = cycle;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    fail(what, "repeated vertex in " + cycle_str(cycle));
  }
  const int k = static_cast<int>(cycle.size());
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      bool consecutive = (j == i + 1) || (i == 0 && j == k - 1);
      bool edge = adj(cycle[static_cast<std::size_t>(i)],
                      cycle[static_cast<std::size_t>(j)]);
      if (edge != consecutive) {
        fail(what, (consecutive ? "missing cycle edge (" : "chord (") +
                       std::to_string(cycle[static_cast<std::size_t>(i)]) +
                       ", " +
                       std::to_string(cycle[static_cast<std::size_t>(j)]) +
                       ") in " + cycle_str(cycle));
      }
    }
  }
}

int pick(const std::vector<int>& pool, Rng& rng) {
  return pool[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(pool.size())))];
}

/// Greedy clique inside u's closed neighborhood, randomized by start
/// offset: always a valid insert_vertex neighborhood.
std::vector<int> greedy_clique_around(const DynamicGraph& g, int u, Rng& rng) {
  std::vector<int> pool;
  pool.push_back(u);
  for (VertexId w : g.neighbors(u)) pool.push_back(static_cast<int>(w));
  std::vector<int> clique;
  std::size_t offset = static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(pool.size())));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    int cand = pool[(i + offset) % pool.size()];
    bool ok = true;
    for (int have : clique) {
      if (!g.has_edge(cand, have)) ok = false;
    }
    if (ok) clique.push_back(cand);
  }
  std::sort(clique.begin(), clique.end());
  return clique;
}

std::string dyn_summary(const DynamicChordal& dc) {
  const DynamicStats& s = dc.stats();
  return "alive " + std::to_string(dc.graph().num_alive()) + ", edges " +
         std::to_string(dc.graph().num_edges()) + ", after " +
         std::to_string(s.edge_inserts + s.edge_deletes + s.vertex_inserts +
                        s.vertex_deletes) +
         " applied updates";
}

struct KnobGuard {
  ~KnobGuard() {
    support::set_num_threads(0);
  }
};

}  // namespace

void audit_dynamic_parity(const DynamicChordal& dc) {
  DynamicChordal::Signature inc = dc.signature();
  DynamicChordal::Signature ref =
      DynamicChordal::recompute_signature(dc.graph());
  if (inc.colors != ref.colors) {
    fail("incremental colors == recomputed colors", dyn_summary(dc));
  }
  if (inc.mis != ref.mis) {
    fail("incremental MIS == recomputed MIS", dyn_summary(dc));
  }
  if (inc.family != ref.family) {
    fail("incremental clique family == recomputed family", dyn_summary(dc));
  }
  if (inc.forest != ref.forest) {
    fail("incremental clique forest == recomputed MWSF", dyn_summary(dc));
  }
}

UpdateScheduleStats run_update_schedule_audit(
    const Graph& base, std::uint64_t seed, int steps,
    const DriverAuditConfig& config, DynamicChordal::Signature* final_sig) {
  KnobGuard restore;
  support::set_num_threads(config.threads);

  DynamicChordal dc(base);
  audit_dynamic_parity(dc);

  Rng rng(seed ^ 0xdf11a1c5u);
  UpdateScheduleStats stats;
  // Recently deleted edges, re-insertable as guaranteed-interesting moves.
  std::deque<std::pair<int, int>> deleted_edges;

  for (int step = 0; step < steps; ++step) {
    ++stats.steps;
    std::vector<int> alive = dc.graph().alive_vertices();
    std::uint64_t roll = rng.next_below(100);

    if (roll < 20) {
      // Random edge insert: the certifier decides.
      if (alive.size() < 2) {
        ++stats.skipped;
      } else {
        int u = pick(alive, rng);
        int v = pick(alive, rng);
        if (u == v || dc.graph().has_edge(u, v)) {
          ++stats.skipped;
        } else {
          try {
            dc.insert_edge(u, v);
            ++stats.applied;
          } catch (const ChordalityViolation& e) {
            ++stats.rejected;
            check_witness_cycle(
                e.witness_cycle(),
                [&](int a, int b) {
                  if ((a == u && b == v) || (a == v && b == u)) return true;
                  return dc.graph().has_edge(a, b);
                },
                "edge insert");
          }
        }
      }
    } else if (roll < 32 && !deleted_edges.empty()) {
      // Re-insert a previously deleted edge (often valid, never trivial).
      auto [u, v] = deleted_edges.front();
      deleted_edges.pop_front();
      if (!dc.graph().alive(u) || !dc.graph().alive(v) ||
          dc.graph().has_edge(u, v)) {
        ++stats.skipped;
      } else {
        try {
          dc.insert_edge(u, v);
          ++stats.applied;
        } catch (const ChordalityViolation& e) {
          ++stats.rejected;
          check_witness_cycle(
              e.witness_cycle(),
              [&](int a, int b) {
                if ((a == u && b == v) || (a == v && b == u)) return true;
                return dc.graph().has_edge(a, b);
              },
              "edge re-insert");
        }
      }
    } else if (roll < 52) {
      // Random edge delete.
      int u = -1, v = -1;
      for (int attempt = 0; attempt < 4 && u < 0 && !alive.empty();
           ++attempt) {
        int cand = pick(alive, rng);
        int deg = dc.graph().degree(cand);
        if (deg == 0) continue;
        u = cand;
        v = static_cast<int>(dc.graph().neighbors(cand)[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(deg)))]);
      }
      if (u < 0) {
        ++stats.skipped;
      } else {
        try {
          dc.delete_edge(u, v);
          ++stats.applied;
          deleted_edges.emplace_back(u, v);
          if (deleted_edges.size() > 8) deleted_edges.pop_front();
        } catch (const ChordalityViolation& e) {
          ++stats.rejected;
          check_witness_cycle(
              e.witness_cycle(),
              [&](int a, int b) {
                if ((a == u && b == v) || (a == v && b == u)) return false;
                return dc.graph().has_edge(a, b);
              },
              "edge delete");
        }
      }
    } else if (roll < 70) {
      // Vertex insert: clique neighborhood (valid) or a raw random subset
      // of a closed neighborhood (certifier decides).
      std::vector<int> x;
      if (!alive.empty()) {
        int u = pick(alive, rng);
        x = greedy_clique_around(dc.graph(), u, rng);
        if (rng.chance(0.35)) {
          // Raw slice of N[u]: may span a non-clique attachment.
          x.clear();
          x.push_back(u);
          for (VertexId w : dc.graph().neighbors(u)) {
            if (rng.chance(0.6)) x.push_back(static_cast<int>(w));
          }
          std::sort(x.begin(), x.end());
        }
      }
      try {
        dc.insert_vertex(x);
        ++stats.applied;
      } catch (const ChordalityViolation& e) {
        ++stats.rejected;
        check_witness_cycle(
            e.witness_cycle(),
            [&](int a, int b) {
              if (a == ChordalityViolation::kNewVertex) std::swap(a, b);
              if (b == ChordalityViolation::kNewVertex) {
                return std::binary_search(x.begin(), x.end(), a);
              }
              return dc.graph().has_edge(a, b);
            },
            "vertex insert");
      }
    } else if (roll < 88) {
      // Vertex delete: always chordal (hereditary), must never throw.
      if (alive.empty()) {
        ++stats.skipped;
      } else {
        dc.delete_vertex(pick(alive, rng));
        ++stats.applied;
      }
    } else {
      // Injected violation: a vertex insert over a non-adjacent pair
      // {a, b} with a common neighbor w. The component of G - {a, b}
      // containing w attaches to both, so acceptance would be a certifier
      // bug.
      int a = -1, b = -1;
      for (int attempt = 0; attempt < 6 && a < 0 && !alive.empty();
           ++attempt) {
        int w = pick(alive, rng);
        auto nbrs = dc.graph().neighbors(w);
        if (nbrs.size() < 2) continue;
        for (std::size_t i = 0; i + 1 < nbrs.size() && a < 0; ++i) {
          for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
            int p = static_cast<int>(nbrs[i]);
            int q = static_cast<int>(nbrs[j]);
            if (!dc.graph().has_edge(p, q)) {
              a = p;
              b = q;
              break;
            }
          }
        }
      }
      if (a < 0) {
        ++stats.skipped;  // every neighborhood is a clique right now
      } else {
        std::vector<int> x = {std::min(a, b), std::max(a, b)};
        try {
          dc.insert_vertex(x);
          fail("injected violating vertex insert is rejected",
               "accepted X = {" + std::to_string(x[0]) + ", " +
                   std::to_string(x[1]) + "}");
        } catch (const ChordalityViolation& e) {
          ++stats.rejected;
          check_witness_cycle(
              e.witness_cycle(),
              [&](int p, int q) {
                if (p == ChordalityViolation::kNewVertex) std::swap(p, q);
                if (q == ChordalityViolation::kNewVertex) {
                  return p == x[0] || p == x[1];
                }
                return dc.graph().has_edge(p, q);
              },
              "injected vertex insert");
        }
      }
    }

    audit_dynamic_parity(dc);
  }

  if (final_sig != nullptr) *final_sig = dc.signature();
  return stats;
}

int run_update_schedule_matrix(const Graph& base, std::uint64_t seed,
                               int steps) {
  std::vector<DynamicChordal::Signature> sigs;
  std::vector<std::string> labels;
  int configs = 0;
  for (int threads : {1, 8}) {
    DriverAuditConfig config;
    config.threads = threads;
    DynamicChordal::Signature sig;
    run_update_schedule_audit(base, seed, steps, config, &sig);
    sigs.push_back(std::move(sig));
    labels.push_back(config.label());
    ++configs;
  }
  for (std::size_t i = 1; i < sigs.size(); ++i) {
    if (!(sigs[i] == sigs[0])) {
      fail("update schedule lands on one signature across the matrix",
           labels[i] + " diverges from " + labels[0]);
    }
  }
  return configs;
}

}  // namespace chordal::audit
