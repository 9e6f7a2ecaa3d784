// Finalized-chain storage engine (DESIGN_PERF.md "Finalized-chain
// storage"): the bounded tail + compaction checkpoint + commit index that
// replaced the unbounded finalized std::vector, and the behavior of the
// chain/protocol layers when compaction is actually exercised -- checkpoint
// exactly at the tail boundary, catch-up requests for slots older than the
// tail (refused with a frontier hint), and byte-identical traces with
// compaction enabled.

#include <gtest/gtest.h>

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
  EXPECT_TRUE(c.sim->trace().agreement_holds());
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
