// CONGEST bandwidth model: PayloadRef null-slab regressions, fragmentation
// edge cases, logical-vs-wire stats, flood cross-checks, and driver parity
// between the LOCAL and CONGEST executions.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/mis.hpp"
#include "core/mvc.hpp"
#include "graph/generators.hpp"
#include "local/bandwidth.hpp"
#include "local/flood.hpp"
#include "local/network.hpp"
#include "audit/auditors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace chordal {
namespace {

using local::BandwidthConfig;
using local::congest;
using local::Network;
using local::NetworkModel;
using local::PayloadRef;

// ---------------------------------------------------------------------------
// Satellite 1: PayloadRef null-slab regressions. Before the guard,
// operator[] on a default-constructed ref dereferenced a null slab and
// begin()/end() returned nullptr-based iterators with mismatched arithmetic.
// ---------------------------------------------------------------------------

TEST(PayloadRefTest, DefaultConstructedIsValidEmptyRange) {
  PayloadRef ref;
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(ref.slab(), nullptr);
  // begin() == end() means range-for iterates zero times instead of
  // walking off a null pointer.
  EXPECT_EQ(ref.begin(), ref.end());
  std::int64_t sum = 0;
  for (std::int64_t w : ref) sum += w;
  EXPECT_EQ(sum, 0);
}

TEST(PayloadRefTest, NullSlabIndexThrowsInsteadOfDereferencingNull) {
  PayloadRef ref;
  EXPECT_THROW(ref[0], std::out_of_range);
}

TEST(PayloadRefTest, OutOfRangeIndexThrows) {
  PayloadRef ref(local::Payload{7, 8, 9});
  EXPECT_EQ(ref.size(), 3u);
  EXPECT_EQ(ref[0], 7);
  EXPECT_EQ(ref[2], 9);
  EXPECT_THROW(ref[3], std::out_of_range);
}

// ---------------------------------------------------------------------------
// Fragmentation mechanics on explicit Network(g, BandwidthConfig).
// ---------------------------------------------------------------------------

TEST(CongestNetworkTest, PayloadAtCapacityTakesOneRound) {
  Graph g = path_graph(2);
  Network net(g, congest(4));
  EXPECT_EQ(net.model(), NetworkModel::kCongest);
  EXPECT_EQ(net.capacity_words(), 4);
  net.send(0, 1, {1, 2, 3, 4});  // exactly B words
  net.deliver();
  EXPECT_EQ(net.rounds(), 1);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].data.size(), 4u);
  EXPECT_EQ(net.stats().total_fragments, 1);
  EXPECT_EQ(net.stats().max_wire_words, 4);
}

TEST(CongestNetworkTest, PayloadOneOverCapacityTakesTwoRounds) {
  Graph g = path_graph(2);
  Network net(g, congest(4));
  net.send(0, 1, {1, 2, 3, 4, 5});  // B + 1 words
  net.deliver();
  EXPECT_EQ(net.rounds(), 2);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  const local::Message& m = net.inbox(1)[0];
  ASSERT_EQ(m.data.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(m.data[i], static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(net.stats().total_fragments, 2);
  EXPECT_EQ(net.stats().max_wire_words, 4);  // 4-word chunk then 1-word chunk
}

TEST(CongestNetworkTest, EmptyPayloadCompletesInOneRound) {
  Graph g = path_graph(2);
  Network net(g, congest(3));
  net.send(0, 1, {});
  net.deliver();
  EXPECT_EQ(net.rounds(), 1);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_TRUE(net.inbox(1)[0].data.empty());
  // A zero-word frame still occupies one wire slot.
  EXPECT_EQ(net.stats().total_fragments, 1);
  EXPECT_EQ(net.stats().total_payload_words, 0);
}

TEST(CongestNetworkTest, SingleWordMessagesAreUnfragmented) {
  Graph g = path_graph(3);
  Network net(g, congest(1));
  net.send(0, 1, {10});
  net.send(2, 1, {20});
  net.deliver();
  EXPECT_EQ(net.rounds(), 1);
  ASSERT_EQ(net.inbox(1).size(), 2u);
  EXPECT_EQ(net.stats().total_fragments, 2);
  EXPECT_EQ(net.stats().max_wire_words, 1);
}

TEST(CongestNetworkTest, LogicalMaxSurvivesFragmentationWireMaxIsCapped) {
  Graph g = path_graph(2);
  Network net(g, congest(2));
  net.send(0, 1, {1, 2, 3, 4, 5, 6, 7});  // 7 words across B=2 edges
  net.deliver();
  // Satellite 3: max_message_words keeps its pre-fragmentation meaning;
  // the wire-level maximum is reported separately and capped at B.
  EXPECT_EQ(net.stats().max_message_words, 7);
  EXPECT_EQ(net.stats().max_wire_words, 2);
  EXPECT_EQ(net.stats().total_fragments, 4);  // ceil(7 / 2)
  EXPECT_EQ(net.rounds(), 4);
  EXPECT_EQ(net.stats().total_payload_words, 7);
}

TEST(CongestNetworkTest, InterleavedMultiSenderReassembly) {
  // Star center 0 with 4 leaves; every leaf ships a distinct 5-word payload
  // at B=2, so chunks from all senders interleave across 3 fragment rounds
  // and must reassemble per (sender, message) without crosstalk.
  Graph g = star_graph(4);
  Network net(g, congest(2));
  for (int leaf = 1; leaf <= 4; ++leaf) {
    local::Payload p;
    for (int w = 0; w < 5; ++w) p.push_back(100 * leaf + w);
    net.send(leaf, 0, std::move(p));
  }
  net.deliver();
  EXPECT_EQ(net.rounds(), 3);  // ceil(5 / 2) per edge, edges drain in parallel
  ASSERT_EQ(net.inbox(0).size(), 4u);
  // Completed messages surface in send order with intact payloads.
  for (int i = 0; i < 4; ++i) {
    const local::Message& m = net.inbox(0)[static_cast<std::size_t>(i)];
    EXPECT_EQ(m.from, i + 1);
    ASSERT_EQ(m.data.size(), 5u);
    for (std::size_t w = 0; w < 5; ++w) {
      EXPECT_EQ(m.data[w], 100 * (i + 1) + static_cast<std::int64_t>(w));
    }
  }
  EXPECT_EQ(net.stats().total_fragments, 4 * 3);
  EXPECT_EQ(net.stats().total_payload_words, 4 * 5);
  EXPECT_EQ(net.stats().max_message_words, 5);
  EXPECT_EQ(net.stats().max_wire_words, 2);
}

TEST(CongestNetworkTest, BroadcastSlabSharedAcrossFragmentedCopies) {
  Graph g = star_graph(3);
  Network net(g, congest(2));
  net.broadcast(0, {1, 2, 3, 4, 5});
  net.deliver();
  EXPECT_EQ(net.rounds(), 3);
  const local::Payload* slab = nullptr;
  for (int leaf = 1; leaf <= 3; ++leaf) {
    ASSERT_EQ(net.inbox(leaf).size(), 1u);
    const PayloadRef& data = net.inbox(leaf)[0].data;
    ASSERT_EQ(data.size(), 5u);
    // The simulator-level dedup survives fragmentation: all copies of a
    // broadcast still share one backing slab.
    if (slab == nullptr) {
      slab = data.slab();
    } else {
      EXPECT_EQ(data.slab(), slab);
    }
  }
  // Accounting still charges every copy in full.
  EXPECT_EQ(net.stats().total_payload_words, 3 * 5);
}

TEST(CongestNetworkTest, MultiDeliverRoundsAccumulate) {
  Graph g = path_graph(2);
  Network net(g, congest(2));
  net.send(0, 1, {1, 2, 3});  // 2 fragment rounds
  net.deliver();
  net.send(1, 0, {4});  // 1 fragment round
  net.deliver();
  net.deliver();  // quiet round still advances the clock, as under LOCAL
  EXPECT_EQ(net.rounds(), 4);
  EXPECT_EQ(net.stats().total_messages, 2);
}

TEST(CongestNetworkTest, LocalModeWireStatsCollapseToLogical) {
  Graph g = path_graph(3);
  Network net(g);  // default: LOCAL
  EXPECT_EQ(net.model(), NetworkModel::kLocal);
  EXPECT_EQ(net.capacity_words(), 0);
  net.send(0, 1, {1, 2, 3, 4, 5, 6, 7, 8});
  net.send(2, 1, {9});
  net.deliver();
  EXPECT_EQ(net.rounds(), 1);
  EXPECT_EQ(net.stats().total_fragments, net.stats().total_messages);
  EXPECT_EQ(net.stats().max_wire_words, net.stats().max_message_words);
}

TEST(CongestNetworkTest, ConservationHoldsAcrossFragmentRounds) {
  // Per-fragment-round histogram samples must still sum to the published
  // totals (the audit_network_conservation contract) even though completed
  // messages and wire words now land in different rounds.
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);
    Graph g = star_graph(3);
    Network net(g, congest(2));
    for (int leaf = 1; leaf <= 3; ++leaf) {
      net.send(leaf, 0, {leaf, leaf, leaf, leaf, leaf});
    }
    net.deliver();
    net.broadcast(0, {1, 2, 3});
    net.deliver();
  }
  audit::audit_network_conservation(reg);
}

TEST(CongestNetworkTest, FragmentTraceLineageChainsToSend) {
  obs::Tracer tracer;
  std::int64_t logical_messages = 0;
  {
    obs::ScopedTracer scope(tracer);
    Graph g = star_graph(4);
    Network net(g, congest(2));
    for (int leaf = 1; leaf <= 4; ++leaf) {
      net.send(leaf, 0, {leaf, leaf, leaf, leaf, leaf});
    }
    net.deliver();
    logical_messages = net.stats().total_messages;
  }
  obs::TraceQuery q(tracer.ordered_events());
  EXPECT_TRUE(q.lineage_intact());
  std::int64_t sends = 0, delivers = 0, fragments = 0, rounds = 0;
  for (const obs::TraceEvent& e : q.events()) {
    switch (e.kind) {
      case obs::TraceEventKind::kNetSend: ++sends; break;
      case obs::TraceEventKind::kNetDeliver: ++delivers; break;
      case obs::TraceEventKind::kNetFragment: ++fragments; break;
      case obs::TraceEventKind::kNetRound: ++rounds; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, logical_messages);
  EXPECT_EQ(delivers, logical_messages);  // one deliver per logical message
  EXPECT_EQ(fragments, 4 * 3);            // ceil(5/2) chunks per sender
  EXPECT_EQ(rounds, 3);
  // Every fragment's lineage id resolves to exactly one earlier send.
  for (const obs::TraceEvent& e : q.events()) {
    if (e.kind != obs::TraceEventKind::kNetFragment) continue;
    int matching_sends = 0;
    for (const obs::TraceEvent& s : q.lineage_chain(e.lineage)) {
      if (s.kind == obs::TraceEventKind::kNetSend) {
        ++matching_sends;
        EXPECT_LT(s.tick, e.tick);
      }
    }
    EXPECT_EQ(matching_sends, 1);
  }
}

// ---------------------------------------------------------------------------
// Pure round-model helpers.
// ---------------------------------------------------------------------------

TEST(BandwidthModelTest, CapacityResolutionAndFragmentRounds) {
  BandwidthConfig bw;  // LOCAL
  EXPECT_EQ(local::transfer_rounds(1000, bw, 64), 0);
  EXPECT_EQ(local::resolve_capacity_words(congest(5), 1024), 5);
  EXPECT_EQ(local::resolve_capacity_words(congest(0), 1024), 10);  // ceil lg n
  EXPECT_EQ(local::resolve_capacity_words(congest(0), 1025), 11);
  EXPECT_EQ(local::resolve_capacity_words(congest(0), 1), 1);
  EXPECT_EQ(local::fragment_rounds(0, 4), 1);  // empty frame occupies a round
  EXPECT_EQ(local::fragment_rounds(4, 4), 1);
  EXPECT_EQ(local::fragment_rounds(5, 4), 2);
  EXPECT_EQ(local::transfer_rounds(9, congest(4), 2), 3);
}

TEST(BandwidthModelTest, BallCollectionRoundsIsDrainLimitedUnderCongest) {
  BandwidthConfig lcl;  // LOCAL: the radius alone
  EXPECT_EQ(local::ball_collection_rounds(3, 100000, 2, lcl, 16), 3);
  // CONGEST, B=2, degree 2: 100 words drain at 4 words/round -> 25 rounds.
  EXPECT_EQ(local::ball_collection_rounds(3, 100, 2, congest(2), 16), 25);
  // Small volume: the r-hop distance still lower-bounds the rounds.
  EXPECT_EQ(local::ball_collection_rounds(3, 4, 2, congest(2), 16), 3);
}

// ---------------------------------------------------------------------------
// Flood cross-check: modeled words == Network words; knowledge and parity
// across models (satellite 2's executable telemetry cross-check).
// ---------------------------------------------------------------------------

TEST(FloodBallsTest, ModeledWordsMatchNetworkAndKnowledgeIsModelInvariant) {
  Graph g = testing::paper_figure1_graph();
  BandwidthConfig lcl;
  local::FloodBallsResult base = local::flood_balls(g, 2, lcl);
  EXPECT_EQ(base.rounds, 2);
  EXPECT_EQ(base.modeled_words, base.stats.total_payload_words);
  for (std::int64_t b : {1, 4}) {
    local::FloodBallsResult frag = local::flood_balls(g, 2, congest(b));
    EXPECT_EQ(frag.known, base.known) << "B=" << b;
    EXPECT_EQ(frag.modeled_words, base.modeled_words) << "B=" << b;
    EXPECT_EQ(frag.modeled_words, frag.stats.total_payload_words) << "B=" << b;
    EXPECT_GE(frag.rounds, base.rounds) << "B=" << b;
  }
  // B=1 on a graph whose nodes re-broadcast multi-edge reports must
  // genuinely blow up the round count, not just match it.
  local::FloodBallsResult tight = local::flood_balls(g, 2, congest(1));
  EXPECT_GT(tight.rounds, base.rounds);
}

// ---------------------------------------------------------------------------
// Driver parity: identical outputs, never-smaller round clocks.
// ---------------------------------------------------------------------------

TEST(CongestDriverTest, MvcAndMisOutputsIdenticalRoundsGrow) {
  RandomChordalConfig config;
  config.n = 120;
  config.max_clique = 5;
  config.seed = 0xC09Eu;
  Graph g = random_chordal(config);

  core::MvcResult mvc_local = core::mvc_chordal(g);
  core::MisResult mis_local = core::mis_chordal(g);

  for (std::int64_t b : {std::int64_t{0}, std::int64_t{4}}) {  // auto, fixed
    core::MvcResult mvc_congest = core::mvc_chordal(g, {.net = congest(b)});
    core::MisResult mis_congest = core::mis_chordal(g, {.net = congest(b)});
    EXPECT_EQ(mvc_congest.colors, mvc_local.colors) << "B=" << b;
    EXPECT_EQ(mvc_congest.num_colors, mvc_local.num_colors) << "B=" << b;
    EXPECT_EQ(mvc_congest.num_layers, mvc_local.num_layers) << "B=" << b;
    EXPECT_EQ(mis_congest.chosen, mis_local.chosen) << "B=" << b;
    EXPECT_GE(mvc_congest.rounds, mvc_local.rounds) << "B=" << b;
    EXPECT_GE(mis_congest.rounds, mis_local.rounds) << "B=" << b;
  }
  // A tight B must actually cost rounds on a nontrivial workload.
  EXPECT_GT(core::mvc_chordal(g, {.net = congest(1)}).rounds,
            mvc_local.rounds);
  EXPECT_GT(core::mis_chordal(g, {.net = congest(1)}).rounds,
            mis_local.rounds);
}

// The model is a per-call option, so a LOCAL run and a CONGEST run may
// share the process - and the thread pool - at the same time without
// either seeing the other's model.
TEST(CongestDriverTest, ConcurrentRunsUnderDifferentModelsMatchSerialRuns) {
  RandomChordalConfig config;
  config.n = 3000;
  config.max_clique = 6;
  config.seed = 0xC0C0u;
  Graph g = random_chordal(config);

  struct Outcome {
    core::MvcResult mvc;
    core::MisResult mis;
  };
  auto run = [&g](const BandwidthConfig& net) {
    return Outcome{core::mvc_chordal(g, {.net = net}),
                   core::mis_chordal(g, {.net = net})};
  };

  support::set_num_threads(4);
  const Outcome local_serial = run(BandwidthConfig{});
  const Outcome congest_serial = run(congest(4));
  EXPECT_GT(congest_serial.mvc.rounds, local_serial.mvc.rounds);

  Outcome local_concurrent, congest_concurrent;
  std::thread local_thread(
      [&] { local_concurrent = run(BandwidthConfig{}); });
  std::thread congest_thread(
      [&] { congest_concurrent = run(congest(4)); });
  local_thread.join();
  congest_thread.join();
  support::set_num_threads(0);

  auto expect_same = [](const Outcome& got, const Outcome& want) {
    EXPECT_EQ(got.mvc.colors, want.mvc.colors);
    EXPECT_EQ(got.mvc.rounds, want.mvc.rounds);
    EXPECT_EQ(got.mis.chosen, want.mis.chosen);
    EXPECT_EQ(got.mis.rounds, want.mis.rounds);
  };
  expect_same(local_concurrent, local_serial);
  expect_same(congest_concurrent, congest_serial);
}

TEST(CongestDriverTest, AuditMatrixRunsFourConfigs) {
  Graph g = testing::paper_figure1_graph();
  EXPECT_EQ(audit::run_driver_audit_matrix(g, 0.5, 0.25,
                                           /*check_per_node_pruning=*/true),
            4);
}

}  // namespace
}  // namespace chordal
