// Slot pipelining + adaptive batching (DESIGN_PERF.md "Slot pipelining &
// adaptive batching"): the two regressions the feature's riskiest seams
// need pinned.
//
//  - Forwarding under load: single-hop submission relay used to be disabled
//    while the chain was busy over a double-commit race between the origin's
//    fallback copy and the relayed copy. It is re-enabled behind the
//    commit-index + pending-candidate probes in build_batch plus the
//    delivery-layer dedup filter, so a loaded run with foreign-leader
//    submissions must both actually forward AND stay exactly-once.
//  - Pipelined leader crash: with a deep pipeline, a crashing leader takes a
//    whole suffix of proposed-but-unfinalized led slots down with it. The
//    chaos churn path must view-change across the in-flight stripe,
//    re-anchor the suffix, and drain with no double commits and no lost
//    admitted requests.
//  - Stripe pacing: inside a stripe a leader is its own next leader and its
//    own broadcast reaches it at once, so unpaced it proposes the whole
//    stripe in one instant and the proposal front drifts far ahead of
//    notarization. Paced, proposals stay one slot ahead (Fig. 2) and
//    low-load latency stays close to depth 1.
//  - Relay target: once the frontier stripe's proposals are all out, its
//    leader has no free slot until its next stripe; a relayed request must
//    go to the leader of a slot still awaiting its proposal -- one whose
//    proposal is still unsent when the relay lands, at every position of a
//    stripe. A burst fills one slot after another, each with the
//    submitter's share of a batch (the relay ledger).
//  - Stranded pool: work a leader admitted for itself reaches the next
//    leaders in time for their first slots, so no slot goes out as filler
//    and nothing waits for a view change.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "../bench/bench_alloc_count.hpp"
#include "chaos/engine.hpp"
#include "chaos/scenario.hpp"
#include "equivalence_helpers.hpp"
#include "ms_cluster_helpers.hpp"
#include "multishot/messages.hpp"
#include "workload/scenarios.hpp"

namespace tbft::test {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_pipelining_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(Pipelining, ForwardingUnderLoadStaysExactlyOnce) {
  // Sustained open-loop load onto every replica: most submissions land on a
  // node that does not lead the proposal frontier, so the chain is busy the
  // whole run and every relay exercises the forwarding-under-load path.
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.seed = 31;
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 1500;
  opts.clients = 2;

  workload::WorkloadRig rig = workload::make_rig(opts);
  rig.sim->start();
  const auto drained = [&] {
    return rig.sim->now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
           rig.tracker->all_admitted_committed();
  };
  rig.sim->run_until_pred(drained, opts.drain_deadline);
  rig.sim->run_until(rig.sim->now() + 2 * opts.delta_bound);

  // Forwarding fired under load (not just on an idle-resume edge)...
  EXPECT_GT(rig.sim->metrics().counter("multishot.forward.sent").value(), 0u);
  // ...and the accounting contract held anyway.
  const auto report = rig.tracker->report(rig.sim->now());
  EXPECT_GT(report.committed, 100u);
  EXPECT_TRUE(report.exactly_once())
      << "duplicates=" << report.duplicates << " foreign=" << report.foreign;
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.chains_consistent());
}

TEST(Pipelining, LeaderCrashMidPipelineReanchorsAndDrains) {
  // A hand-built plan (not drawn from a seed): depth-8 stripes on a 4-node
  // LAN, and the node leading the first stripe is crashed in the middle of
  // the load window -- mid-pipeline, with led slots proposed but not
  // finalized -- then restarted through the storage recovery path.
  chaos::ScenarioPlan plan;
  plan.seed = 4242;
  plan.n = 4;
  plan.f = 1;
  plan.wan = chaos::WanShape::kLan;
  sim::LinkProfile link;
  link.latency = sim::kMillisecond;
  plan.topology = sim::WanTopology::uniform(plan.n, link);
  plan.delta_bound = 2 * plan.topology.max_latency_plus_jitter() + 5 * sim::kMillisecond;
  plan.load = chaos::LoadShape::kOpenSteady;
  plan.clients = 2;
  plan.rate_per_sec = 1000.0;
  plan.load_duration = 400 * sim::kMillisecond;
  const sim::SimTime view_timeout = 9 * plan.delta_bound;
  plan.drain_deadline = plan.load_duration + 100 * view_timeout + 60 * sim::kSecond;
  plan.client_retry_timeout = 4 * view_timeout;
  plan.roles.assign(plan.n, chaos::ByzRole::kHonest);
  plan.pipeline_depth = 8;
  plan.adaptive_batch_txs = 128;
  // Stripe 1 (slots 1..8) is led by node (ceil(1/8) + 0) % 4 = 1 at view 0;
  // kill it while its stripe is in flight, restart before the drain phase.
  plan.churn.push_back(chaos::ChurnEvent{1, 100 * sim::kMillisecond,
                                         100 * sim::kMillisecond + 2 * view_timeout});

  TempDir dir("leader_crash");
  const chaos::ChaosVerdict v = chaos::run_plan(plan, dir.path);
  EXPECT_TRUE(v.ok()) << v.failure();
  EXPECT_EQ(v.crashes, 1u);
  EXPECT_EQ(v.restarts, 1u);
  EXPECT_EQ(v.report.duplicates, 0u);
  EXPECT_GT(v.report.committed, 100u);
  EXPECT_TRUE(v.drained);
}

struct TimelineRun {
  double p50_ms{0};
  std::size_t checked{0};    // (node, slot) pairs holding both stamps
  std::vector<Slot> early;   // slots some node saw proposed before s-2 notarized
};

/// Open loop at 2,000 tx/s over 1 ms links, every node recording when each
/// slot's first proposal arrived and when it notarized.
TimelineRun run_timeline(std::uint32_t depth) {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.seed = 12;
  opts.clients = 1;
  opts.rate_per_sec = 2000;
  opts.load_duration = 300 * sim::kMillisecond;
  opts.pipeline_depth = depth;

  workload::WorkloadRig rig = workload::make_rig(opts);
  for (auto* node : rig.nodes) node->set_record_timeline(true);
  rig.sim->start();
  rig.sim->run_until_pred(
      [&] {
        return rig.sim->now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
               rig.tracker->all_admitted_committed();
      },
      opts.drain_deadline);

  TimelineRun out;
  out.p50_ms = rig.tracker->report(rig.sim->now()).latency_p50_ms;
  for (const auto* node : rig.nodes) {
    const auto& notarized = node->notarized_at();
    for (const auto& [s, proposed] : node->first_proposal_at()) {
      if (s < 3) continue;
      const auto it = notarized.find(s - 2);
      if (it == notarized.end()) continue;
      ++out.checked;
      if (proposed < it->second) out.early.push_back(s);
    }
  }
  return out;
}

TEST(Pipelining, StripeRunAheadIsPaced) {
  const TimelineRun d1 = run_timeline(1);
  const TimelineRun d4 = run_timeline(4);
  ASSERT_GT(d4.checked, 100u);
  // Fig. 2's bound: slot s is proposed only once s-2 is notarized, so
  // proposals run at most one slot ahead of notarization.
  EXPECT_TRUE(d4.early.empty()) << d4.early.size() << " early proposals, first at slot "
                                << d4.early.front();
  // With the run-ahead gone and the relay aimed at the next free slot, a
  // stripe costs little latency at low load.
  ASSERT_GT(d1.p50_ms, 0.0);
  EXPECT_LE(d4.p50_ms, 1.5 * d1.p50_ms) << "depth-4 p50 " << d4.p50_ms << " ms vs depth-1 "
                                        << d1.p50_ms << " ms";
}

TEST(Pipelining, RelayGoesToTheLeaderOfTheFirstUnproposedSlot) {
  // Depth 4, n = 4: node 1 leads slots 1-4, node 2 slots 5-8 (view 0). A
  // transaction at node 1 keeps the chain busy through stripe 1; then a
  // client submits to node 3 the moment slot 4's proposal reaches it. The
  // frontier (slot 3 or 4) is still node 1's, but node 1 has no free slot
  // left in this stripe: the relay must go to node 2, which leads slot 5,
  // the first unproposed one, and slot 7, the first one the relay can
  // still catch.
  MsClusterOptions opts;
  opts.max_slots = 0;  // unbounded chain, the production shape
  opts.pipeline_depth = 4;
  RelayLog relays;
  opts.adversary = relays.hook();
  MsCluster c = make_ms_cluster(opts);
  ASSERT_TRUE(c.nodes[1]->submit_tx({0x01}));
  multishot::MultishotNode& submitter = *c.nodes[3];
  ASSERT_TRUE(c.sim->run_until_pred([&] { return submitter.probe_slot(4).proposal_seen; },
                                    sim::kSecond));
  ASSERT_LE(submitter.proposal_frontier(), 4u);

  const std::vector<std::uint8_t> tx = {0xCA, 0xFE};
  const sim::SimTime submitted_at = c.sim->now();
  ASSERT_TRUE(submitter.submit_tx(tx));
  const auto committed = [&] {
    for (const auto* node : c.nodes) {
      if (!node->tx_finalized(tx)) return false;
    }
    return true;
  };
  EXPECT_TRUE(c.sim->run_until_pred(committed, sim::kSecond));
  EXPECT_LE(c.sim->now() - submitted_at, 10 * opts.delta_actual);

  EXPECT_EQ(relays.from(3), std::vector<NodeId>{2});
}

/// Depth 4, n = 4 on a bounded chain, which proposes filler one slot per
/// delta, so the pipeline is already running when a request arrives.
MsCluster running_depth4_chain(sim::AdversaryHook adversary = {}) {
  MsClusterOptions opts;
  opts.max_slots = 200;
  opts.pipeline_depth = 4;
  opts.adversary = std::move(adversary);
  return make_ms_cluster(opts);
}

/// Runs until `node` sees slot s's proposal: from that instant until s+1's
/// proposal reaches it, s+1 is the first slot it has seen no proposal for.
bool run_until_proposal_seen(MsCluster& c, const multishot::MultishotNode& node, Slot s) {
  return c.sim->run_until_pred([&] { return node.probe_slot(s).proposal_seen; }, sim::kSecond);
}

TEST(Pipelining, RelayCatchesAProposalAtEveryStripePosition) {
  // Node 2 leads stripes 10, 18, 26 and 34 (slots 37-40, 69-72, 101-104,
  // 133-136). Node 0 takes one request half a delta after slot u-1's
  // proposal reaches it, with u at stripe position 1, 2, 3 and 4 in turn.
  // Slot u went out when u-1's proposal arrived and u+1 goes out one delta
  // later, before the relay lands: a relay to u's leader makes the last two
  // positions wait a whole 16-slot rotation for node 2's next stripe
  // (~17 delta).
  MsCluster c = running_depth4_chain();
  multishot::MultishotNode& submitter = *c.nodes[0];
  const sim::SimTime delta = c.opts.delta_actual;
  for (const Slot u : {Slot{37}, Slot{70}, Slot{103}, Slot{136}}) {
    ASSERT_TRUE(run_until_proposal_seen(c, submitter, u - 1)) << "slot " << u;
    c.sim->run_until(c.sim->now() + delta / 2);
    ASSERT_FALSE(submitter.probe_slot(u).proposal_seen) << "slot " << u;
    const std::vector<std::uint8_t> tx = {0x5A, static_cast<std::uint8_t>(u)};
    const sim::SimTime submitted_at = c.sim->now();
    ASSERT_TRUE(submitter.submit_tx(tx));
    const auto committed = [&] {
      for (const auto* node : c.nodes) {
        if (!node->tx_finalized(tx)) return false;
      }
      return true;
    };
    ASSERT_TRUE(c.sim->run_until_pred(committed, sim::kSecond)) << "slot " << u;
    EXPECT_LE(c.sim->now() - submitted_at, 8 * delta)
        << "stripe position " << (u - 1) % 4 + 1 << " took "
        << (c.sim->now() - submitted_at) / delta << " delta";
  }
  EXPECT_TRUE(c.chains_consistent());
}

TEST(Pipelining, RelayLedgerFillsEachSlotInTurn) {
  // Eight slots' worth of shares plus one, submitted at node 0 the instant
  // slot 102's proposal reaches it: slot 103 (node 2's) is the first it has
  // not seen, so slot 105 is the first foreign slot a relay can still
  // catch. No other node has relayed anything, so node 0 is the only
  // submitter it sees and its share is a whole batch, 16: slots 105-108
  // (node 3's) take 64 relays, node 0's own stripe 109-112 keeps 64
  // requests here, and the last one goes on to slot 113, node 1's.
  RelayLog relays;
  MsCluster c = running_depth4_chain(relays.hook());
  multishot::MultishotNode& submitter = *c.nodes[0];
  ASSERT_TRUE(run_until_proposal_seen(c, submitter, 102));
  ASSERT_FALSE(submitter.probe_slot(103).proposal_seen);
  const auto& cfg = submitter.config();
  const std::uint32_t share = std::max(cfg.max_batch_txs, cfg.adaptive_batch_txs);
  ASSERT_EQ(share, 16u);
  std::vector<std::vector<std::uint8_t>> txs;
  for (std::uint32_t i = 0; i < 8 * share + 1; ++i) {
    txs.push_back({0xB0, static_cast<std::uint8_t>(i)});
    ASSERT_TRUE(submitter.submit_tx(txs.back()));
  }
  const auto committed = [&] {
    for (const auto* node : c.nodes) {
      for (const auto& tx : txs) {
        if (!node->tx_finalized(tx)) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(c.sim->run_until_pred(committed, sim::kSecond));

  std::vector<NodeId> expected(4 * share, NodeId{3});
  expected.push_back(NodeId{1});
  EXPECT_EQ(relays.from(0), expected);
  const auto& chain = c.nodes[1]->chain();
  for (std::uint32_t i = 0; i < txs.size(); ++i) {
    const Slot first = i < 4 * share ? 105 : i < 8 * share ? 109 : 113;
    const Slot at = chain.commit_slot(txs[i]);
    EXPECT_GE(at, first) << "request " << i;
    EXPECT_LT(at, first + 4) << "request " << i;
  }
  EXPECT_TRUE(c.chains_consistent());
}

TEST(Pipelining, RelayLedgerSharesEachSlotAmongTheSubmittersItSees) {
  // Node 1 relays one request the instant slot 106's proposal reaches it;
  // slot 109, node 0's, is the first it can still catch. From then on node
  // 0 sees two submitters and aims half a batch, 8, at each slot. The
  // instant slot 114's proposal reaches node 0, slot 117 (node 2's) is the
  // first it can still catch: 4 x 8 + 1 requests fill node 2's stripe
  // 117-120 and the last goes to slot 121, node 3's. Had node 0 counted
  // itself alone, node 2 would have been handed all 33.
  RelayLog relays;
  MsCluster c = running_depth4_chain(relays.hook());
  multishot::MultishotNode& submitter = *c.nodes[0];
  multishot::MultishotNode& peer = *c.nodes[1];
  ASSERT_TRUE(run_until_proposal_seen(c, peer, 106));
  ASSERT_FALSE(peer.probe_slot(107).proposal_seen);
  ASSERT_TRUE(peer.submit_tx({0xC0}));
  EXPECT_EQ(relays.from(1), std::vector<NodeId>{0});

  ASSERT_TRUE(run_until_proposal_seen(c, submitter, 114));
  ASSERT_FALSE(submitter.probe_slot(115).proposal_seen);
  const std::uint32_t share = submitter.config().max_batch_txs / 2;
  std::vector<std::vector<std::uint8_t>> txs;
  for (std::uint32_t i = 0; i < 4 * share + 1; ++i) {
    txs.push_back({0xC1, static_cast<std::uint8_t>(i)});
    ASSERT_TRUE(submitter.submit_tx(txs.back()));
  }
  std::vector<NodeId> expected(4 * share, NodeId{2});
  expected.push_back(NodeId{3});
  EXPECT_EQ(relays.from(0), expected);
  const auto committed = [&] {
    for (const auto* node : c.nodes) {
      for (const auto& tx : txs) {
        if (!node->tx_finalized(tx)) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(c.sim->run_until_pred(committed, sim::kSecond));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(Pipelining, AimingARequestDoesNotAllocate) {
  // The relay ledger is a fixed ring over the window, so once the pool has
  // reached its high-water mark a submission aimed at a slot allocates
  // nothing. Node 0 leads slots 77-80 and 109-112. Its first stripe warms
  // the pool with 16 requests; the instant slot 107's proposal reaches it,
  // 16 more aim at its second stripe (a whole batch fits slot 109: no
  // other node relays, so node 0 counts itself the only submitter) and
  // stay here: no relay message, so the whole submit path is the aiming.
  RelayLog relays;
  MsCluster c = running_depth4_chain(relays.hook());
  multishot::MultishotNode& submitter = *c.nodes[0];
  const auto burst = [&](std::uint8_t tag) {
    std::vector<std::vector<std::uint8_t>> txs;
    for (std::uint8_t i = 0; i < 16; ++i) txs.push_back({tag, i});
    return txs;
  };
  const auto committed = [&](const std::vector<std::vector<std::uint8_t>>& txs) {
    return c.sim->run_until_pred(
        [&] {
          for (const auto* node : c.nodes) {
            for (const auto& tx : txs) {
              if (!node->tx_finalized(tx)) return false;
            }
          }
          return true;
        },
        sim::kSecond);
  };
  ASSERT_TRUE(run_until_proposal_seen(c, submitter, 76));
  const auto warm = burst(0xA0);
  for (auto tx : warm) ASSERT_TRUE(submitter.submit_tx(std::move(tx)));
  ASSERT_TRUE(committed(warm));

  ASSERT_TRUE(run_until_proposal_seen(c, submitter, 107));
  ASSERT_FALSE(submitter.probe_slot(109).proposed);
  const auto txs = burst(0xA1);
  auto moved = txs;
  const std::size_t relays_before = relays.from(0).size();
  std::uint32_t admitted = 0;
  const std::uint64_t before = bench::alloc_count().load();
  for (auto& tx : moved) admitted += submitter.submit_tx(std::move(tx)) ? 1 : 0;
  const std::uint64_t allocs = bench::alloc_count().load() - before;
  EXPECT_EQ(admitted, txs.size());
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(relays.from(0).size(), relays_before);
  ASSERT_TRUE(committed(txs));
  for (const auto& tx : txs) {
    const Slot at = c.nodes[1]->chain().commit_slot(tx);
    EXPECT_GE(at, 109u);
    EXPECT_LE(at, 112u);
  }
}

TEST(Pipelining, StrandedPoolLeavesNoFillerSlotAndNoViewChange) {
  // 24 one-transaction blocks seeded at node 1, the stripe-1 leader: its
  // stripe carries 4, and the other 20 have to reach the leaders after it,
  // which see nothing pending of their own. Unless node 1 hands the work
  // on in time, their first slots go out as filler, or they go idle and
  // each stripe costs a view change. The relay ledger aims each request at
  // a slot of its own: slots 1-24 carry one transaction each.
  auto cluster = equivalence_builder().pipelining(4).build_sim();
  ASSERT_TRUE(seed_eq_txs(*cluster));
  cluster->start();
  const auto committed = [&] {
    for (const auto* c : cluster->shard_instances()) {
      for (std::uint32_t j = 0; j < kEqTxs; ++j) {
        if (!c->tx_finalized(eq_tx(j))) return false;
      }
    }
    return true;
  };
  const multishot::MultishotNode& node = *cluster->shard_instances()[0];
  EXPECT_TRUE(cluster->wait_for(committed, node.config().view_timeout()));
  const auto& trace = cluster->simulation().trace();
  const auto by_type = trace.messages_by_type();
  EXPECT_EQ(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ViewChange)), 0u);
  EXPECT_GT(by_type.count(static_cast<std::uint8_t>(multishot::MsType::ForwardTx)), 0u);

  std::vector<Slot> filler;
  Slot last_bearing = 0;
  for (Slot s = 1; s <= node.finalized_count(); ++s) {
    const multishot::Block* b = node.block_at(s);
    ASSERT_NE(b, nullptr) << "slot " << s;
    const auto frames = multishot::payload_frames(b->payload);
    const bool bearing = std::any_of(frames.begin(), frames.end(),
                                     [](auto f) { return eq_tx_index(f).has_value(); });
    if (bearing) {
      last_bearing = s;
    } else {
      filler.push_back(s);
    }
  }
  EXPECT_EQ(last_bearing, Slot{kEqTxs});
  filler.erase(std::remove_if(filler.begin(), filler.end(),
                              [&](Slot s) { return s > last_bearing; }),
               filler.end());
  EXPECT_EQ(filler, std::vector<Slot>{}) << "filler slots before slot " << last_bearing;
}

}  // namespace
}  // namespace tbft::test
