// Finalized-chain storage engine (DESIGN_PERF.md "Finalized-chain
// storage"): the bounded tail + compaction checkpoint + commit index that
// replaced the unbounded finalized std::vector, and the behavior of the
// chain/protocol layers when compaction is actually exercised -- checkpoint
// exactly at the tail boundary, catch-up requests for slots older than the
// tail (refused with a frontier hint), and byte-identical traces with
// compaction enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "multishot/finalized_store.hpp"
#include "multishot/node.hpp"
#include "ms_cluster_helpers.hpp"
#include "sim/adversary.hpp"

namespace tbft::multishot {
namespace {

Block mk(Slot slot, std::uint64_t parent, std::vector<std::uint8_t> payload = {1, 2, 3}) {
  return Block{slot, parent, 0, std::move(payload)};
}

/// A payload carrying exactly the given transaction frames (view nonce 0).
std::vector<std::uint8_t> tx_payload(const std::vector<std::vector<std::uint8_t>>& txs) {
  serde::Writer w;
  w.varint(0);
  for (const auto& tx : txs) w.bytes(tx);
  return w.take();
}

TEST(CommitIndex, InsertFindAndGrowth) {
  CommitIndex idx;
  for (Slot s = 1; s <= 1000; ++s) idx.insert(s * 0x9E3779B97F4A7C15ULL, s);
  EXPECT_EQ(idx.size(), 1000u);
  for (Slot s = 1; s <= 1000; ++s) {
    EXPECT_EQ(idx.first_slot(s * 0x9E3779B97F4A7C15ULL), s) << s;
  }
  EXPECT_EQ(idx.first_slot(0xDEAD), 0u);
}

TEST(CommitIndex, DuplicateKeysCoexistAndProbeFully) {
  // Distinct transactions can collide on the 64-bit key; the probe walk
  // must surface every slot so a collision cannot mask a commit.
  CommitIndex idx;
  idx.insert(42, 7);
  idx.insert(42, 9);
  std::vector<Slot> seen;
  idx.find(42, [&](Slot s) {
    seen.push_back(s);
    return false;  // keep walking
  });
  EXPECT_EQ(seen, (std::vector<Slot>{7, 9}));
  EXPECT_EQ(idx.first_slot(42), 7u);
}

TEST(FinalizedStore, CheckpointExactlyAtTailBoundary) {
  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  std::vector<Block> blocks;
  for (Slot s = 1; s <= 8; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    blocks.push_back(b);
    store.append(Block{b});
  }
  // Exactly full: nothing compacted yet, every block resident.
  EXPECT_EQ(store.tip(), 8u);
  EXPECT_EQ(store.tail_first(), 1u);
  EXPECT_EQ(store.checkpoint().slot, 0u);
  EXPECT_EQ(store.checkpoint().chain_hash, kGenesisHash);
  for (Slot s = 1; s <= 8; ++s) ASSERT_NE(store.block_at(s), nullptr) << s;

  // One past the boundary: slot 1 folds into the checkpoint.
  Block b9 = mk(9, parent);
  store.append(Block{b9});
  EXPECT_EQ(store.tip(), 9u);
  EXPECT_EQ(store.tail_first(), 2u);
  EXPECT_EQ(store.checkpoint().slot, 1u);
  EXPECT_EQ(store.checkpoint().chain_hash, hash_combine(kGenesisHash, blocks[0].hash()));
  EXPECT_EQ(store.block_at(1), nullptr);
  ASSERT_NE(store.block_at(2), nullptr);
  EXPECT_EQ(*store.block_at(9), b9);
}

TEST(FinalizedStore, PrefixDigestMatchesFullFoldAcrossCompaction) {
  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  std::uint64_t full_fold = kGenesisHash;
  for (Slot s = 1; s <= 50; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    full_fold = hash_combine(full_fold, b.hash());
    store.append(std::move(b));
  }
  ASSERT_EQ(store.tip(), 50u);
  EXPECT_EQ(store.checkpoint().slot, 42u);
  const auto digest = store.prefix_digest(50);
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, full_fold);
  // Below the checkpoint the per-slot digest is gone.
  EXPECT_EQ(store.prefix_digest(41), std::nullopt);
  EXPECT_TRUE(store.prefix_digest(42).has_value());
  EXPECT_EQ(store.prefix_digest(51), std::nullopt);
}

TEST(FinalizedStore, CommitIndexSurvivesCompaction) {
  FinalizedStore store(8);
  const std::vector<std::uint8_t> early_tx = {0xAA, 0xBB, 0xCC};
  const std::vector<std::uint8_t> late_tx = {0x11, 0x22};
  const std::vector<std::uint8_t> never_tx = {0x99};
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 40; ++s) {
    std::vector<std::uint8_t> payload;
    if (s == 2) payload = tx_payload({early_tx});
    else if (s == 39) payload = tx_payload({late_tx});
    else payload = {0, 0, 0, 0};  // filler
    Block b = mk(s, parent, std::move(payload));
    parent = b.hash();
    store.append(std::move(b));
  }
  ASSERT_LT(Slot{2}, store.tail_first());  // the early block was compacted
  EXPECT_EQ(store.commit_slot(early_tx), 2u);   // answered from the digest set
  EXPECT_EQ(store.commit_slot(late_tx), 39u);   // answered byte-exact from the tail
  EXPECT_EQ(store.commit_slot(never_tx), 0u);
  // The checkpoint counted the compacted transaction.
  EXPECT_EQ(store.checkpoint().tx_count, 1u);
}

/// Append filler blocks to `store` through slot `upto`.
void append_filler_through(FinalizedStore& store, Slot upto) {
  for (Slot s = store.tip() + 1; s <= upto; ++s) {
    store.append(mk(s, store.tip_hash(), {0, 0, 0, 0}));
  }
}

TEST(FinalizedStore, DeliveryFilterWindowEdges) {
  // committed_before(tx, s) reads [s - H, s): a twin exactly H slots back
  // is still a duplicate, one slot further is a new transaction.
  constexpr Slot kFirst = 5;
  constexpr Slot H = kDedupHorizon;
  const std::vector<std::uint8_t> tx = {0x51, 0x52, 0x53};
  const std::uint64_t h = fnv1a64(tx);
  FinalizedStore store(8);
  append_filler_through(store, kFirst - 1);
  store.append(mk(kFirst, store.tip_hash(), tx_payload({tx})));
  append_filler_through(store, kFirst + H + 1);
  EXPECT_FALSE(store.committed_before(tx, h, kFirst));      // not strictly before
  EXPECT_TRUE(store.committed_before(tx, h, kFirst + 1));
  EXPECT_TRUE(store.committed_before(tx, h, kFirst + H));   // twin at s - H
  EXPECT_FALSE(store.committed_before(tx, h, kFirst + H + 1));  // at s - H - 1
}

TEST(FinalizedStore, CommitSlotForgetsCommitsPastTheHorizon) {
  constexpr Slot kFirst = 5;
  constexpr Slot H = kDedupHorizon;
  const std::vector<std::uint8_t> tx = {0x61, 0x62};
  FinalizedStore store(8);
  append_filler_through(store, kFirst - 1);
  store.append(mk(kFirst, store.tip_hash(), tx_payload({tx})));
  // Retained while slot > checkpoint.slot - H ...
  append_filler_through(store, kFirst + H + 8 - 1);
  ASSERT_EQ(store.checkpoint().slot, kFirst + H - 1);
  EXPECT_EQ(store.commit_slot(tx), kFirst);
  // ... and answered 0 from the next compaction on, before any rebuild has
  // physically dropped the entry: the answer never depends on eviction
  // timing.
  append_filler_through(store, kFirst + H + 8);
  ASSERT_EQ(store.checkpoint().slot, kFirst + H);
  EXPECT_EQ(store.commit_index().first_slot(fnv1a64(tx)), kFirst);  // still resident
  EXPECT_EQ(store.commit_slot(tx), 0u);
  // Once the floor is H/2 past the last rebuild, the entry is gone too.
  append_filler_through(store, H + H / 2 + 8);
  EXPECT_EQ(store.commit_index().first_slot(fnv1a64(tx)), 0u);
  EXPECT_EQ(store.commit_index().size(), 0u);
  EXPECT_EQ(store.commit_slot(tx), 0u);
}

TEST(FinalizedStore, ChainStoreTailAccessorsAcrossCompaction) {
  ChainStore c(8);
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 30; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    ASSERT_TRUE(c.add_block(b));
    ASSERT_TRUE(c.notarize(s, 0, b.hash()));
    c.try_finalize();
  }
  EXPECT_EQ(c.finalized_count(), 27u);  // depth-4 leaves a 3-slot suffix
  EXPECT_EQ(c.first_unfinalized(), 28u);
  EXPECT_EQ(c.tail_first(), 20u);
  EXPECT_TRUE(c.is_finalized(1));
  EXPECT_EQ(c.block_at(19), nullptr);             // compacted
  ASSERT_NE(c.block_at(20), nullptr);             // tail edge
  EXPECT_EQ(c.block_at(20)->slot, 20u);
  EXPECT_EQ(c.finalized_tip_hash(), c.block_at(27)->hash());
  // notarized() cites resident finalized blocks; compacted history is gone.
  EXPECT_TRUE(c.notarized(20).has_value());
  EXPECT_EQ(c.notarized(19), std::nullopt);
}

TEST(FinalizedStore, ForceFinalizeNotifiesHookInOrder) {
  ChainStore c(8);
  std::vector<Slot> notified;
  c.set_on_finalized([&](const Block& b, std::uint64_t) { notified.push_back(b.slot); });
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 20; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    ASSERT_TRUE(c.force_finalize(b));
  }
  ASSERT_EQ(notified.size(), 20u);
  for (Slot s = 1; s <= 20; ++s) EXPECT_EQ(notified[s - 1], s);
}

}  // namespace
}  // namespace tbft::multishot

namespace tbft::test {
namespace {

using multishot::MsType;
using multishot::MultishotConfig;
using multishot::MultishotNode;

/// Cluster whose nodes keep only a tiny finalized tail, so a modest run
/// compacts aggressively.
MsClusterOptions small_tail_opts(std::size_t tail, Slot max_slots) {
  MsClusterOptions opts;
  opts.max_slots = max_slots;
  opts.make_node = [tail](NodeId, const MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    MultishotConfig c = cfg;
    c.finalized_tail = tail;
    return std::make_unique<MultishotNode>(c);
  };
  return opts;
}

TEST(StorageCompaction, ClusterFinalizesFarPastTheTailConsistently) {
  auto c = make_ms_cluster(small_tail_opts(8, 40));
  ASSERT_TRUE(c.run_until_finalized(36, 30 * c.timeout()));
  // Every node compacted most of its chain; consistency still checks out
  // through the digest path of chains_prefix_consistent.
  for (const auto* node : c.nodes) {
    EXPECT_GT(node->chain().checkpoint().slot, 0u);
    EXPECT_EQ(node->chain().tail_first(), node->chain().checkpoint().slot + 1);
  }
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_TRUE(c.log->agreement_holds());
}

TEST(StorageCompaction, CatchUpOlderThanTailRecoversViaCheckpointTransfer) {
  // Node 3 is cut off from the start while the others finalize far past
  // their 8-block tails. Its catch-up request targets slot 1, which every
  // peer has compacted: range-sync is refused (frontier hint, counted by
  // multishot.sync.refused), and the refusal pivots the straggler straight
  // into checkpoint state transfer -- f+1 vouched checkpoint identities,
  // chunked commit-state download, install, then ordinary range-sync closes
  // the remaining gap up to the live frontier.
  MsClusterOptions opts = small_tail_opts(8, 60);
  opts.gst = 3600 * sim::kSecond;  // the adversary below decides every delivery
  auto cut_off = std::make_shared<bool>(true);
  opts.adversary = [cut_off](const sim::Envelope& env,
                             sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    if (*cut_off && (env.dst == 3 || env.src == 3)) {
      return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
    }
    return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + sim::kMillisecond};
  };
  auto c = make_ms_cluster(opts);
  const auto others_done = [&] {
    for (NodeId i = 0; i < 3; ++i) {
      if (c.nodes[i]->finalized_count() < 56) return false;
    }
    return true;
  };
  ASSERT_TRUE(c.sim->run_until_pred(others_done, 200 * c.timeout()));
  ASSERT_LT(c.nodes[3]->finalized_count() + 8, c.nodes[0]->finalized_count());

  // Heal the partition. The blocks the straggler asks for are compacted
  // everywhere, so recovery must go through the checkpoint path.
  *cut_off = false;
  const auto straggler_caught_up = [&] {
    return c.nodes[3]->finalized_count() + 8 >= c.nodes[0]->finalized_count();
  };
  ASSERT_TRUE(c.sim->run_until_pred(straggler_caught_up, 200 * c.timeout()));
  EXPECT_GT(c.sim->metrics().counter("multishot.sync.refused").value(), 0u);
  EXPECT_GE(c.sim->metrics().counter("multishot.ckpt.requests").value(), 1u);
  EXPECT_GE(c.sim->metrics().counter("multishot.ckpt.installed").value(), 1u);
  // The adopted checkpoint carries the commit history: the straggler now
  // holds a compacted prefix consistent with everyone else's.
  EXPECT_GT(c.nodes[3]->chain().checkpoint().slot, 8u);
  EXPECT_TRUE(c.chains_consistent());
}

// --- Checkpoint-fetch state machine -----------------------------------------
// The straggler (the highest id) is cut off while the others finalize past
// the small tails of the lowest `small_tail_nodes` replicas; after the heal
// Gate::route shapes every delivery that touches it.

std::uint8_t ms_type(const sim::Envelope& env) {
  const auto bytes = env.payload.bytes();
  return bytes.empty() ? 0 : bytes[0];
}
bool is(const sim::Envelope& env, MsType t) {
  return ms_type(env) == static_cast<std::uint8_t>(t);
}

struct Gate {
  bool healed{false};
  /// After the heal: extra delay over the 1 ms link, or nullopt to drop.
  std::function<std::optional<sim::SimTime>(const sim::Envelope&)> route;
  std::uint32_t ckpt_broadcasts{0};   // MsCheckpointRequest rounds the straggler sent
  std::uint32_t chunks_delivered{0};  // MsCheckpointChunks that reached it
};

MsClusterOptions straggler_opts(std::uint32_t n, Slot max_slots, std::uint32_t small_tail_nodes,
                                const std::shared_ptr<Gate>& gate) {
  MsClusterOptions opts;
  opts.n = n;
  opts.f = (n - 1) / 3;
  opts.max_slots = max_slots;
  opts.gst = 3600 * sim::kSecond;  // the adversary below decides every delivery
  opts.make_node = [small_tail_nodes](NodeId id, const MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    MultishotConfig c = cfg;
    if (id < small_tail_nodes) c.finalized_tail = 8;
    return std::make_unique<MultishotNode>(c);
  };
  const NodeId straggler = n - 1;
  opts.adversary = [gate, straggler](const sim::Envelope& env, sim::SimTime send_time)
      -> std::optional<sim::DeliveryDecision> {
    sim::SimTime extra = 0;
    if (env.src == straggler || env.dst == straggler) {
      if (!gate->healed) return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
      if (gate->route) {
        const auto delay = gate->route(env);
        if (!delay) return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        extra = *delay;
      }
      if (env.src == straggler && env.dst == 0 && is(env, MsType::CheckpointRequest)) {
        ++gate->ckpt_broadcasts;
      }
      if (env.dst == straggler && is(env, MsType::CheckpointChunk)) ++gate->chunks_delivered;
    }
    return sim::DeliveryDecision{.drop = false,
                                 .deliver_at = send_time + sim::kMillisecond + extra};
  };
  return opts;
}

/// Run until every replica but the straggler finalized `lead` slots, then
/// heal the straggler's links.
void lead_then_heal(MsCluster& c, Gate& gate, Slot lead) {
  const auto others_done = [&] {
    for (NodeId i = 0; i + 1 < c.opts.n; ++i) {
      if (c.nodes[i]->finalized_count() < lead) return false;
    }
    return true;
  };
  ASSERT_TRUE(c.sim->run_until_pred(others_done, 200 * c.timeout()));
  ASSERT_EQ(c.nodes.back()->finalized_count(), 0u);
  gate.healed = true;
}

std::uint64_t counter(MsCluster& c, const char* name) {
  return c.sim->metrics().counter(name).value();
}

TEST(CheckpointFetch, ProgressTimerAbandonsASilentFetchAndReRequestsAPartialOne) {
  auto gate = std::make_shared<Gate>();
  auto c = make_ms_cluster(straggler_opts(4, 60, 3, gate));
  lead_then_heal(c, *gate, 56);

  // No chunk arrives: the progress timer abandons the fetch, and the next
  // refusal round starts a fresh one. Every request round so far opened a
  // fetch.
  gate->route = [](const sim::Envelope& env) -> std::optional<sim::SimTime> {
    if (is(env, MsType::CheckpointChunk)) return std::nullopt;
    return 0;
  };
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.requests") >= 2; }, c.sim->now() + 100 * c.timeout()));
  EXPECT_EQ(gate->ckpt_broadcasts, counter(c, "multishot.ckpt.requests"));
  EXPECT_EQ(counter(c, "multishot.ckpt.installed"), 0u);

  // One responder's chunks arrive (one vouch, below f+1): the fetch made
  // progress, so the timer re-requests within the same fetch.
  gate->route = [](const sim::Envelope& env) -> std::optional<sim::SimTime> {
    if (is(env, MsType::CheckpointChunk) && env.src != 0) return std::nullopt;
    return 0;
  };
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return gate->ckpt_broadcasts > counter(c, "multishot.ckpt.requests"); },
      c.sim->now() + 100 * c.timeout()));
  EXPECT_EQ(counter(c, "multishot.ckpt.installed"), 0u);

  // Every responder: f+1 vouch for the state and the straggler installs it.
  gate->route = nullptr;
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.installed") >= 1; }, c.sim->now() + 100 * c.timeout()));
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[3]->finalized_count() + 8 >= c.nodes[0]->finalized_count(); },
      c.sim->now() + 100 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

/// Answers every checkpoint request with a forged one-chunk state for the
/// requested anchor: its identity is the first the requester sees, but no
/// other replica vouches for it.
class ForgingResponder : public MultishotNode {
 public:
  using MultishotNode::MultishotNode;

  void on_message(NodeId from, const Payload& payload) override {
    const auto m = multishot::decode_ms(payload.bytes());
    if (m && std::holds_alternative<multishot::MsCheckpointRequest>(*m)) {
      multishot::MsCheckpointChunk forged;
      forged.cp.slot = std::get<multishot::MsCheckpointRequest>(*m).at;
      forged.cp.chain_hash = 0xBAD;
      forged.cp.boundary_hash = 0xBAD;
      forged.data = {0xBA, 0xD0};
      forged.state_hash = fnv1a64(forged.data);
      forged.state_size = forged.data.size();
      send_ms(from, forged);
      return;
    }
    MultishotNode::on_message(from, payload);
  }
};

TEST(CheckpointFetch, SwitchesToTheIdentityThatReachesFPlusOneVouchesFirst) {
  auto gate = std::make_shared<Gate>();
  MsClusterOptions opts = straggler_opts(4, 60, 3, gate);
  const auto honest = opts.make_node;
  opts.make_node = [honest](NodeId id, const MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id != 0) return honest(id, cfg);
    MultishotConfig c = cfg;
    c.finalized_tail = 8;
    return std::make_unique<ForgingResponder>(c);
  };
  auto c = make_ms_cluster(opts);
  lead_then_heal(c, *gate, 56);
  // The honest chunks trail the forged one by a millisecond, so the forged
  // identity is the one the fetch chose first.
  gate->route = [](const sim::Envelope& env) -> std::optional<sim::SimTime> {
    return is(env, MsType::CheckpointChunk) && env.src != 0 ? sim::kMillisecond : 0;
  };
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.requests") >= 1; }, c.sim->now() + 100 * c.timeout()));
  // The honest identity reaches f+1 vouches, the fetch switches to it and
  // re-requests its bytes: installed well inside one progress-timer period
  // (3 Delta), not by a timer-driven retry.
  const sim::SimTime started = c.sim->now();
  ASSERT_TRUE(c.sim->run_until_pred([&] { return counter(c, "multishot.ckpt.installed") >= 1; },
                                    started + c.opts.delta_bound));
  EXPECT_EQ(counter(c, "multishot.ckpt.requests"), 1u);
  EXPECT_EQ(gate->ckpt_broadcasts, 2u);  // the fetch's request + the switch's
  EXPECT_EQ(c.nodes[3]->chain().checkpoint().chain_hash,
            c.nodes[1]->chain().finalized().checkpoint_at(c.nodes[3]->chain().checkpoint().slot)
                ->chain_hash);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[3]->finalized_count() + 8 >= c.nodes[1]->finalized_count(); },
      c.sim->now() + 100 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(CheckpointFetch, ViewChangeRefusalsOpenTheFetchWithoutARangeRequest) {
  // Every peer compacted the straggler's first slot, so each answers its
  // view-change probe with a refusal hint: f+1 of them open the checkpoint
  // fetch before any range request goes out to be refused.
  auto gate = std::make_shared<Gate>();
  auto c = make_ms_cluster(straggler_opts(4, 60, 3, gate));
  lead_then_heal(c, *gate, 56);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.requests") >= 1; }, c.sim->now() + 100 * c.timeout()));
  EXPECT_EQ(counter(c, "multishot.sync.refused"), 0u);
}

// n = 7: the three small-tail replicas refuse the straggler's view change
// and range request (f+1 hints open a fetch) while the three full-tail
// replicas serve them, so range sync finalizes the straggler up to the
// anchor while the fetch is still open. Their chunks trail the refusals by a
// millisecond so the fetch opens first, and the checkpoint chunks trail by
// 5 ms so the state arrives after range sync overtook the anchor.
std::shared_ptr<Gate> overtaking_gate(bool deliver_ckpt_from_all) {
  auto gate = std::make_shared<Gate>();
  gate->route = [deliver_ckpt_from_all](const sim::Envelope& env) -> std::optional<sim::SimTime> {
    if (is(env, MsType::SyncChunk) && env.src >= 3) return sim::kMillisecond;
    if (is(env, MsType::CheckpointChunk)) {
      if (!deliver_ckpt_from_all && env.src != 0) return std::nullopt;
      return 5 * sim::kMillisecond;
    }
    return 0;
  };
  return gate;
}

TEST(CheckpointFetch, InstallOvertakenByRangeSyncIsSkipped) {
  auto gate = overtaking_gate(/*deliver_ckpt_from_all=*/true);
  auto c = make_ms_cluster(straggler_opts(7, 40, 3, gate));
  lead_then_heal(c, *gate, 37);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[6]->finalized_count() >= c.nodes[0]->finalized_count(); },
      c.sim->now() + 100 * c.timeout()));
  c.sim->run_until(c.sim->now() + 10 * c.opts.delta_bound);
  // The fetch opened and its state arrived with f+1 vouches, but range sync
  // had already finalized past the anchor: nothing is installed over it.
  EXPECT_EQ(counter(c, "multishot.ckpt.requests"), 1u);
  EXPECT_GE(gate->chunks_delivered, 3u);
  EXPECT_EQ(counter(c, "multishot.ckpt.installed"), 0u);
  EXPECT_EQ(c.nodes[6]->chain().checkpoint().slot, 0u);  // nothing compacted or installed
  EXPECT_TRUE(c.chains_consistent());
}

TEST(CheckpointFetch, ProgressTimerEndsAFetchOvertakenByRangeSync) {
  // Only one responder's chunks arrive (progress, but one vouch): without
  // the overtaken check the timer would re-request a state no longer needed.
  auto gate = overtaking_gate(/*deliver_ckpt_from_all=*/false);
  auto c = make_ms_cluster(straggler_opts(7, 40, 3, gate));
  lead_then_heal(c, *gate, 37);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return c.nodes[6]->finalized_count() >= c.nodes[0]->finalized_count(); },
      c.sim->now() + 100 * c.timeout()));
  c.sim->run_until(c.sim->now() + 10 * c.opts.delta_bound);
  EXPECT_EQ(counter(c, "multishot.ckpt.requests"), 1u);
  EXPECT_GE(gate->chunks_delivered, 1u);
  EXPECT_EQ(gate->ckpt_broadcasts, 1u);
  EXPECT_EQ(counter(c, "multishot.ckpt.installed"), 0u);
  EXPECT_TRUE(c.chains_consistent());
}

TEST(CheckpointFetch, InstallReconcilesThePoolAgainstTheSkippedRange) {
  // The straggler holds two transactions while cut off: `committed` also
  // reaches node 0 and commits inside the range the checkpoint skips;
  // `pending` exists nowhere else. The installed digest set covers the
  // whole jump (well under the dedup horizon), so `committed` leaves the
  // pool at install and `pending` stays -- and later commits exactly once.
  auto gate = std::make_shared<Gate>();
  auto c = make_ms_cluster(straggler_opts(4, 160, 3, gate));
  const std::vector<std::uint8_t> committed = {'c', 'k', 'p', 't', 1};
  const std::vector<std::uint8_t> pending = {'c', 'k', 'p', 't', 2};
  ASSERT_TRUE(c.nodes[3]->submit_tx(committed));
  ASSERT_TRUE(c.nodes[3]->submit_tx(pending));
  ASSERT_TRUE(c.nodes[0]->submit_tx(committed));
  struct Deliveries final : runtime::CommitSink {
    void on_commit(const runtime::Commit& commit) override {
      if (commit.node != 0) return;
      for (const auto f : multishot::payload_frames(commit.payload)) {
        ++count[std::vector<std::uint8_t>(f.begin(), f.end())];
      }
    }
    std::map<std::vector<std::uint8_t>, std::uint32_t> count;
  } deliveries;
  c.sim->add_commit_sink(deliveries);

  lead_then_heal(c, *gate, 60);
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.installed") >= 1; }, c.sim->now() + 100 * c.timeout()));
  EXPECT_EQ(counter(c, "multishot.mempool.expired"), 0u);
  EXPECT_FALSE(c.nodes[3]->mempool().contains(fnv1a64(committed), committed));
  EXPECT_TRUE(c.nodes[3]->mempool().contains(fnv1a64(pending), pending));
  EXPECT_EQ(c.nodes[3]->mempool().size(), 1u);

  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        for (const auto* node : c.nodes) {
          if (!node->tx_finalized(pending)) return false;
        }
        return true;
      },
      c.sim->now() + 200 * c.timeout()));
  c.sim->run_until(c.sim->now() + 10 * c.opts.delta_bound);
  EXPECT_EQ(deliveries.count[committed], 1u);
  EXPECT_EQ(deliveries.count[pending], 1u);
  EXPECT_TRUE(c.nodes[3]->mempool().empty());
  EXPECT_TRUE(c.chains_consistent());
}

TEST(CheckpointFetch, SkippedNodeRelaysAgainOnceItsLostRelayLapses) {
  // Unbounded chain, the production shape. The straggler admits `pending`
  // while cut off: the relay to the frontier leader is dropped and its own
  // copy is held. Its view-0 leads fail meanwhile, so after the heal it
  // installs a checkpoint and is a skipped leader: it proposes nothing, and
  // only a second relay, once the lost one's hold lapses, commits `pending`.
  auto gate = std::make_shared<Gate>();
  auto c = make_ms_cluster(straggler_opts(4, /*max_slots=*/0, 3, gate));
  const std::vector<std::uint8_t> pending = {'s', 'k', 'i', 'p', 1};
  ASSERT_TRUE(c.nodes[3]->submit_tx(pending));
  ASSERT_EQ(counter(c, "multishot.forward.sent"), 1u);

  // An unbounded chain with an empty pool idles: a trickle of transactions
  // at node 0 carries the others far past the small tails.
  for (std::uint32_t load = 0; c.nodes[0]->finalized_count() < 60; ++load) {
    ASSERT_LT(load, 10'000u);
    ASSERT_TRUE(c.nodes[0]->submit_tx({'l', static_cast<std::uint8_t>(load >> 8),
                                       static_cast<std::uint8_t>(load)}));
    c.sim->run_until(c.sim->now() + c.opts.delta_bound);
  }
  ASSERT_EQ(c.nodes[3]->finalized_count(), 0u);
  gate->healed = true;

  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return counter(c, "multishot.ckpt.installed") >= 1; }, c.sim->now() + 100 * c.timeout()));
  const auto skipped = c.nodes[3]->skipped_leaders();
  ASSERT_TRUE(std::find(skipped.begin(), skipped.end(), NodeId{3}) != skipped.end());
  EXPECT_TRUE(c.nodes[3]->mempool().contains(fnv1a64(pending), pending));

  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        for (const auto* node : c.nodes) {
          if (!node->tx_finalized(pending)) return false;
        }
        return true;
      },
      c.sim->now() + 100 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(StorageCompaction, TracesAreByteIdenticalWithCompactionEnabled) {
  // Determinism: two identical small-tail runs produce byte-identical
  // traces, and compaction itself is invisible on the wire -- a tiny-tail
  // run and a default-tail run of the same seed also trace identically
  // (no catch-up traffic flows in the good case, so the tail size can only
  // affect local storage, never messages).
  const auto digest_of = [](std::size_t tail) {
    auto c = make_ms_cluster(small_tail_opts(tail, 30));
    EXPECT_TRUE(c.run_until_finalized(26, 30 * c.timeout()));
    c.sim->run_until(c.sim->now() + 50 * sim::kMillisecond);
    return c.sim->trace().digest();
  };
  const std::uint64_t small_a = digest_of(8);
  const std::uint64_t small_b = digest_of(8);
  const std::uint64_t large = digest_of(multishot::FinalizedStore::kDefaultTailCapacity);
  EXPECT_EQ(small_a, small_b);
  EXPECT_EQ(small_a, large);
}

}  // namespace
}  // namespace tbft::test
