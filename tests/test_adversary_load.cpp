// Adversary factories under sustained load (ISSUE satellite): the partition
// and selective-drop hooks have so far only been exercised incidentally.
// Here they run against live generators, wrapped so every verdict is
// counted as the network carries it out: the partition drops exactly the
// cross-group traffic before GST and delivers within Delta after it,
// selective-drop suppresses exactly the targeted (tag, victim) pairs, and
// in both cases the system commits every admitted request afterwards.

#include <gtest/gtest.h>

#include "sim/adversary.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace tbft::workload {
namespace {

TEST(AdversaryUnderLoad, PartitionDropsExactlyCrossGroupTrafficPreGst) {
  ScenarioOptions opts;
  opts.preset = Preset::kPartitionDuringLoad;
  opts.seed = 31;
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 800;

  WorkloadRig rig = make_rig(opts);
  const sim::SimTime gst = rig.gst;
  ASSERT_GT(gst, 0);
  // The preset's own partition hook, wrapped to count its verdicts: each
  // one is still what the network carries out.
  const auto in_group_a = [&](NodeId id) { return id < opts.n / 2; };
  std::uint64_t drops = 0;
  std::uint64_t cross_pre_gst = 0;
  std::uint64_t cross_pre_gst_survived = 0;
  std::uint64_t cross_post_gst = 0;
  std::uint64_t same_side_dropped = 0;
  sim::AdversaryHook partition = rig.sim->network().adversary();
  ASSERT_TRUE(partition);
  rig.sim->network().set_adversary(
      [&, partition = std::move(partition)](
          const sim::Envelope& env, sim::SimTime at) -> std::optional<sim::DeliveryDecision> {
        const auto verdict = partition(env, at);
        const bool dropped = verdict && verdict->drop;
        drops += dropped;
        if (env.src >= opts.n || env.dst >= opts.n) return verdict;  // client-side traffic
        if (in_group_a(env.src) == in_group_a(env.dst)) {
          same_side_dropped += dropped;
        } else if (at < gst) {
          ++cross_pre_gst;
          cross_pre_gst_survived += !dropped;
        } else {
          ++cross_post_gst;
        }
        return verdict;
      });
  rig.sim->start();
  rig.sim->run_until_pred(
      [&] { return rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed() &&
                   rig.sim->now() >= opts.load_duration; },
      60 * sim::kSecond);

  // The network dropped exactly what the partition dropped (pre-GST drop
  // probability is 0 in this scenario, and post-GST sends are never
  // dropped): every cross-group message before GST, and nothing else.
  EXPECT_EQ(rig.sim->trace().dropped_messages(), drops);
  EXPECT_EQ(same_side_dropped, 0u);
  EXPECT_EQ(cross_pre_gst_survived, 0u);
  EXPECT_GT(cross_pre_gst, 0u);
  EXPECT_GT(cross_post_gst, 0u);
  // Every delivered message landed within the 10 ms delta bound: the
  // post-GST cross-group ones (never dropped) and, since pre-GST delivery
  // here takes delta_actual, all the rest.
  EXPECT_GT(rig.sim->trace().max_delivery_delay(), 0);
  EXPECT_LE(rig.sim->trace().max_delivery_delay(), 10 * sim::kMillisecond);
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_TRUE(rig.chains_consistent());
}

TEST(AdversaryUnderLoad, SelectiveProposalDropStarvesVictimUntilGst) {
  // Drop every Proposal (tag 11) addressed to node 3 before GST while an
  // open-loop client keeps the system loaded; node 3 must stall behind the
  // others, then -- this is the range-sync contract -- catch all the way up
  // to the tip while traffic continues, instead of lagging permanently on
  // the 4-block crumbs of view-change replies.
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.seed = 32;
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 500;
  opts.clients = 1;

  const sim::SimTime gst = 100 * sim::kMillisecond;
  opts.gst = gst;  // benign pre-GST network; the hook below is the only fault
  WorkloadRig rig = make_rig(opts);
  const auto proposal_tag =
      static_cast<std::uint8_t>(multishot::MsType::Proposal);
  // Wrapped to count its verdicts; each one is still what the network
  // carries out.
  std::uint64_t drops = 0;
  std::uint64_t victim_proposals_survived = 0;
  rig.sim->network().set_adversary(
      [&, drop = sim::make_selective_drop({proposal_tag}, {NodeId{3}}, gst)](
          const sim::Envelope& env, sim::SimTime at) -> std::optional<sim::DeliveryDecision> {
        const auto verdict = drop(env, at);
        const bool dropped = verdict && verdict->drop;
        drops += dropped;
        if (!env.payload.empty() && env.payload.front() == proposal_tag && env.dst == 3 &&
            at < gst) {
          victim_proposals_survived += !dropped;
        }
        return verdict;
      });
  rig.sim->start();

  rig.sim->run_until(gst);
  // Mid-starvation probe: the victim is strictly behind (it never sees a
  // proposal, and votes alone cannot reconstruct block contents). The rest
  // still progress, though slower than the good case -- the victim is also a
  // rotating leader, so every 4th slot costs a view change.
  Slot longest = 0;
  for (const auto* node : rig.nodes) {
    if (node != nullptr) longest = std::max(longest, node->finalized_count());
  }
  EXPECT_GE(longest, 1u);
  EXPECT_LT(rig.nodes[3]->finalized_count(), longest);

  // Every proposal to the victim before GST was dropped, and nothing else
  // (pre-GST drop probability is 0 here).
  EXPECT_EQ(victim_proposals_survived, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(rig.sim->trace().dropped_messages(), drops);

  rig.sim->run_until_pred(
      [&] { return rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed(); },
      60 * sim::kSecond);
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_TRUE(rig.chains_consistent());
  // Let the victim's next view-change round discover the frontier and run
  // the ranged catch-up, then assert it healed THROUGH RANGE SYNC:
  // pipelined chunks, not one view-change round per handful of blocks.
  rig.sim->run_until(rig.sim->now() + 200 * sim::kMillisecond);
  const auto& by_type = rig.sim->trace().messages_by_type();
  const auto chunks = by_type.find(static_cast<std::uint8_t>(multishot::MsType::SyncChunk));
  ASSERT_NE(chunks, by_type.end()) << "no sync chunks flowed during catch-up";
  EXPECT_GT(chunks->second, 0u);
  // And it reaches the tip: the victim's chain ends within the pipeline's
  // finality depth of the longest one.
  longest = 0;
  for (const auto* node : rig.nodes) {
    if (node != nullptr) longest = std::max(longest, node->finalized_count());
  }
  const Slot victim = rig.nodes[3]->finalized_count();
  EXPECT_GT(victim, 0u);
  EXPECT_GE(victim + 8, longest) << "victim stuck " << (longest - victim)
                                 << " slots behind the tip";
  EXPECT_TRUE(rig.chains_consistent());
}

}  // namespace
}  // namespace tbft::workload
