// Multi-shot liveness details (Definition 2): transactions submitted while
// the chain is running get included; the acceptance window bounds Byzantine
// far-future state; finalized chains survive long runs.

#include <gtest/gtest.h>

#include "ms_cluster_helpers.hpp"

namespace tbft::test {
namespace {

TEST(MultishotLiveness, MidRunTransactionGetsIncluded) {
  MsClusterOptions opts;
  opts.max_slots = 40;
  auto c = make_ms_cluster(opts);
  // Let the chain grow first, then submit to a single node.
  ASSERT_TRUE(c.run_until_finalized(5, 10 * c.timeout()));
  const std::vector<std::uint8_t> tx = {0xAB, 0xCD, 0xEF, 0x12, 0x34};
  for (auto* n : c.nodes) n->submit_tx(tx);
  ASSERT_TRUE(c.run_until_finalized(20, 30 * c.timeout()));
  for (auto* n : c.nodes) EXPECT_TRUE(n->tx_finalized(tx));
}

TEST(MultishotLiveness, TransactionIncludedDespiteFailedLeader) {
  MsClusterOptions opts;
  opts.max_slots = 30;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 2) {
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{2, 6});
    }
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  const std::vector<std::uint8_t> tx = {0x55, 0x66, 0x77, 0x88};
  for (auto* n : c.nodes) n->submit_tx(tx);
  ASSERT_TRUE(c.run_until_finalized(10, 60 * c.timeout()));
  for (auto* n : c.nodes) EXPECT_TRUE(n->tx_finalized(tx));
  EXPECT_TRUE(c.chains_consistent());
}

TEST(MultishotLiveness, LongRunStaysConsistentAndBounded) {
  MsClusterOptions opts;
  opts.max_slots = 100;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(90, 60 * c.timeout()));
  EXPECT_TRUE(c.chains_consistent());
  // Pending (unfinalized) protocol state stays within the pipeline window,
  // and so does the flat state layer's slab count: a 100-slot run must not
  // have allocated more slot slabs than the window admits -- state recycles
  // instead of accumulating (DESIGN_PERF.md "Consensus state layer").
  for (auto* n : c.nodes) {
    EXPECT_LT(n->chain().pending_entries(), 64u);
    EXPECT_LE(n->chain().window_slabs(), multishot::ChainStore::kWindow + 1);
    EXPECT_LE(n->slot_slabs(), multishot::ChainStore::kWindow + 1);
    // The good case keeps far fewer slots live than the Byzantine bound.
    EXPECT_LE(n->slot_slabs(), 16u);
  }
}

TEST(MultishotLiveness, ChainStoreWindowBoundsFarFutureBlocks) {
  // A Byzantine node spamming proposals for far-future slots cannot inflate
  // honest chain stores: the window rejects them at add_block.
  multishot::ChainStore store;
  multishot::Block far;
  far.slot = multishot::ChainStore::kWindow + 10;
  EXPECT_FALSE(store.add_block(far));
  EXPECT_EQ(store.pending_entries(), 0u);
}

TEST(MultishotLiveness, FinalityLagConstantUnderLoad) {
  // Every slot s finalizes exactly 4 notarizations after its own: the lag
  // between finalization times of consecutive slots stays 1 delta even for
  // long chains (no drift, no backlog).
  MsClusterOptions opts;
  opts.max_slots = 60;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(50, 60 * c.timeout()));
  for (Slot s = 10; s <= 49; ++s) {
    const auto a = c.log->decision_of(0, s);
    const auto b = c.log->decision_of(0, s + 1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(b->at - a->at, opts.delta_actual) << "slot " << s;
  }
}

}  // namespace
}  // namespace tbft::test
