#include "multishot/chain.hpp"

#include <gtest/gtest.h>

namespace tbft::multishot {
namespace {

Block mk(Slot slot, std::uint64_t parent, NodeId proposer = 0) {
  return Block{slot, parent, proposer, {1, 2, 3}};
}

TEST(Block, HashCommitsToAllFields) {
  const Block base = mk(1, kGenesisHash);
  Block other = base;
  other.slot = 2;
  EXPECT_NE(base.hash(), other.hash());
  other = base;
  other.parent_hash = 99;
  EXPECT_NE(base.hash(), other.hash());
  other = base;
  other.proposer = 3;
  EXPECT_NE(base.hash(), other.hash());
  other = base;
  other.payload.push_back(0);
  EXPECT_NE(base.hash(), other.hash());
}

TEST(Block, SerdeRoundtrip) {
  const Block b = mk(7, 12345, 2);
  serde::Writer w;
  b.encode(w);
  serde::Reader r(w.data());
  EXPECT_EQ(Block::decode(r), b);
  EXPECT_TRUE(r.done());
}

TEST(Chain, GenesisIsImplicitlyNotarized) {
  ChainStore c;
  const auto n = c.notarized(0);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->hash, kGenesisHash);
  EXPECT_EQ(c.required_parent(1), kGenesisHash);
  EXPECT_EQ(c.first_unfinalized(), 1u);
}

TEST(Chain, FinalizationNeedsFourConsecutiveNotarizations) {
  ChainStore c;
  std::uint64_t parent = kGenesisHash;
  std::vector<Block> blocks;
  for (Slot s = 1; s <= 4; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    c.add_block(b);
    blocks.push_back(b);
  }
  for (Slot s = 1; s <= 3; ++s) {
    c.notarize(s, 0, blocks[s - 1].hash());
    EXPECT_EQ(c.try_finalize(), 0u) << "premature finalization at slot " << s;
  }
  c.notarize(4, 0, blocks[3].hash());
  EXPECT_EQ(c.try_finalize(), 1u);
  ASSERT_EQ(c.finalized_count(), 1u);
  ASSERT_NE(c.block_at(1), nullptr);
  EXPECT_EQ(*c.block_at(1), blocks[0]);
  EXPECT_EQ(c.first_unfinalized(), 2u);
}

TEST(Chain, PrefixFinalizesTogether) {
  // Notarize slots 1..7; the finalization sweep commits 1..4 at once.
  ChainStore c;
  std::uint64_t parent = kGenesisHash;
  std::vector<Block> blocks;
  for (Slot s = 1; s <= 7; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    c.add_block(b);
    c.notarize(s, 0, b.hash());
    blocks.push_back(b);
  }
  EXPECT_EQ(c.try_finalize(), 4u);  // slots 1..4 (suffix 5,6,7 remains)
  EXPECT_EQ(c.first_unfinalized(), 5u);
}

TEST(Chain, BrokenParentLinkBlocksFinalization) {
  ChainStore c;
  Block b1 = mk(1, kGenesisHash);
  Block b2 = mk(2, b1.hash());
  Block b3 = mk(3, 0xBAD);  // does not extend b2
  Block b4 = mk(4, b3.hash());
  for (const auto& b : {b1, b2, b3, b4}) {
    c.add_block(b);
    c.notarize(b.slot, 0, b.hash());
  }
  EXPECT_EQ(c.try_finalize(), 0u);
  EXPECT_EQ(c.notarized_suffix_length(), 2u);  // only b1, b2 chain up
}

TEST(Chain, HigherViewNotarizationOverridesLower) {
  ChainStore c;
  Block v0 = mk(1, kGenesisHash, 0);
  Block v1 = mk(1, kGenesisHash, 1);
  c.add_block(v0);
  c.add_block(v1);
  EXPECT_TRUE(c.notarize(1, 0, v0.hash()));
  EXPECT_TRUE(c.notarize(1, 1, v1.hash()));
  EXPECT_EQ(c.notarized(1)->hash, v1.hash());
  // Lower view cannot roll it back; same view re-notarization is a no-op.
  EXPECT_FALSE(c.notarize(1, 0, v0.hash()));
  EXPECT_FALSE(c.notarize(1, 1, v1.hash()));
  EXPECT_EQ(c.notarized(1)->hash, v1.hash());
}

TEST(Chain, AdoptParentNotarizationHealsEqualViewSeam) {
  // An equivocator splits one view's votes: slot 1 notarizes twin A while
  // slot 2 notarizes a block built on twin B -- at the same view, so the
  // plain notarize() override never fires and the parent link stays broken.
  // adopt_parent_notarization (the pipelined-vote inference) accepts an
  // equal view and repairs the seam; a lower view still never rolls back.
  ChainStore c;
  Block twin_a = mk(1, kGenesisHash, 0);
  Block twin_b = mk(1, kGenesisHash, 1);
  Block child = mk(2, twin_b.hash(), 2);
  for (const auto& b : {twin_a, twin_b, child}) c.add_block(b);
  EXPECT_TRUE(c.notarize(1, 6, twin_a.hash()));
  EXPECT_TRUE(c.notarize(2, 6, child.hash()));
  EXPECT_EQ(c.notarized_suffix_length(), 1u);  // seam: child links to twin B

  EXPECT_FALSE(c.adopt_parent_notarization(1, 5, twin_b.hash()));  // lower view
  EXPECT_EQ(c.notarized(1)->hash, twin_a.hash());
  EXPECT_TRUE(c.adopt_parent_notarization(1, 6, twin_b.hash()));  // equal view
  EXPECT_EQ(c.notarized(1)->hash, twin_b.hash());
  EXPECT_EQ(c.notarized_suffix_length(), 2u);  // the chain links up again
  // Re-adoption of the same hash is a no-op (no flip-flop fuel).
  EXPECT_FALSE(c.adopt_parent_notarization(1, 6, twin_b.hash()));
}

TEST(Chain, MixedViewNotarizationsStillFinalize) {
  // Fig. 3: slots re-run at view 1 chain together with a view-0 slot.
  ChainStore c;
  Block b1 = mk(1, kGenesisHash, 1);
  Block b2 = mk(2, b1.hash(), 2);
  Block b3 = mk(3, b2.hash(), 3);
  Block b4 = mk(4, b3.hash(), 0);
  for (const auto& b : {b1, b2, b3}) {
    c.add_block(b);
    c.notarize(b.slot, 1, b.hash());
  }
  c.add_block(b4);
  c.notarize(4, 0, b4.hash());
  EXPECT_EQ(c.try_finalize(), 1u);
  ASSERT_NE(c.block_at(1), nullptr);
  EXPECT_EQ(*c.block_at(1), b1);
}

TEST(Chain, ForceFinalizeRequiresChainExtension) {
  ChainStore c;
  Block b1 = mk(1, kGenesisHash);
  Block bogus = mk(1, 0xBAD);
  EXPECT_FALSE(c.force_finalize(bogus));
  EXPECT_TRUE(c.force_finalize(b1));
  EXPECT_EQ(c.first_unfinalized(), 2u);
  Block b3 = mk(3, b1.hash());
  EXPECT_FALSE(c.force_finalize(b3));  // slot gap
  Block b2 = mk(2, b1.hash());
  EXPECT_TRUE(c.force_finalize(b2));
}

TEST(Chain, WindowRejectsFarFutureBlocks) {
  ChainStore c;
  EXPECT_FALSE(c.add_block(mk(ChainStore::kWindow + 2, 0)));
  EXPECT_TRUE(c.add_block(mk(2, 0)));
}

TEST(Chain, FinalizationPrunesPendingState) {
  ChainStore c;
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 5; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    c.add_block(b);
    c.notarize(s, 0, b.hash());
  }
  // A competing candidate for slot 1 should be pruned after finalization.
  c.add_block(mk(1, kGenesisHash, 3));
  const auto pending_before = c.pending_entries();
  c.try_finalize();
  EXPECT_LT(c.pending_entries(), pending_before);
  EXPECT_EQ(c.find_block(1, mk(1, kGenesisHash, 3).hash()), nullptr);
}

TEST(Chain, WindowEdgeSlotsAcceptedRejectedExactly) {
  // The acceptance window is [first_unfinalized, first_unfinalized+kWindow]:
  // both edges inclusive, one past the upper edge rejected, anything
  // finalized (below the lower edge) rejected.
  ChainStore c;
  EXPECT_TRUE(c.add_block(mk(1, kGenesisHash)));                       // lower edge
  EXPECT_TRUE(c.add_block(mk(ChainStore::kWindow + 1, 0xFA4)));       // upper edge
  EXPECT_FALSE(c.add_block(mk(ChainStore::kWindow + 2, 0xFA4)));      // past it
  EXPECT_FALSE(c.notarize(ChainStore::kWindow + 2, 0, 0xFA4));        // votes too

  Block b1 = mk(1, kGenesisHash);
  ASSERT_TRUE(c.force_finalize(b1));
  // Slot 1 is finalized: candidates for it are refused, and the window
  // slides so the new upper edge admits one more slot.
  EXPECT_FALSE(c.add_block(mk(1, kGenesisHash, 7)));
  EXPECT_FALSE(c.notarize(1, 5, 0xABC));
  EXPECT_TRUE(c.add_block(mk(ChainStore::kWindow + 2, 0xFA4)));
  EXPECT_FALSE(c.add_block(mk(ChainStore::kWindow + 3, 0xFA4)));
}

TEST(Chain, AdoptionExtendingTipSlidesWindowAndPrunes) {
  ChainStore c;
  // Stale candidates and a notarization for slot 1, plus a far-ahead
  // candidate that stays live after the slide.
  Block b1 = mk(1, kGenesisHash);
  Block rival = mk(1, kGenesisHash, 3);
  Block ahead = mk(5, 0xAAA);
  ASSERT_TRUE(c.add_block(b1));
  ASSERT_TRUE(c.add_block(rival));
  ASSERT_TRUE(c.add_block(ahead));
  ASSERT_TRUE(c.notarize(1, 0, b1.hash()));

  // Adoption at the first unfinalized slot (the claim path).
  ASSERT_TRUE(c.force_finalize(b1));
  EXPECT_EQ(c.first_unfinalized(), 2u);
  EXPECT_EQ(c.find_block(1, rival.hash()), nullptr);  // pruned with the slide
  EXPECT_NE(c.find_block(5, ahead.hash()), nullptr);  // still in the window
  EXPECT_EQ(c.pending_entries(), 1u);

  // Adoption must keep extending the tip exactly.
  Block gap = mk(4, b1.hash());
  EXPECT_FALSE(c.force_finalize(gap));            // slot gap
  EXPECT_FALSE(c.force_finalize(mk(2, 0xBAD)));   // wrong parent
  EXPECT_TRUE(c.force_finalize(mk(2, b1.hash())));
}

TEST(Chain, RequiredParentAtWindowBoundaries) {
  ChainStore c;
  // Slot 1 extends genesis; unknown slots have no required parent yet.
  EXPECT_EQ(c.required_parent(1), kGenesisHash);
  EXPECT_EQ(c.required_parent(2), std::nullopt);
  EXPECT_EQ(c.required_parent(ChainStore::kWindow + 5), std::nullopt);

  Block b1 = mk(1, kGenesisHash);
  ASSERT_TRUE(c.force_finalize(b1));
  // A finalized predecessor answers from the chain, not the window.
  EXPECT_EQ(c.required_parent(2), b1.hash());

  Block b2 = mk(2, b1.hash());
  ASSERT_TRUE(c.add_block(b2));
  ASSERT_TRUE(c.notarize(2, 0, b2.hash()));
  EXPECT_EQ(c.required_parent(3), b2.hash());
}

TEST(Chain, CandidateBoundDisplacesUnderEquivocationFlood) {
  ChainStore c;
  for (std::size_t i = 0; i < ChainStore::kMaxCandidatesPerSlot; ++i) {
    EXPECT_TRUE(c.add_block(mk(1, kGenesisHash, static_cast<NodeId>(i))));
  }
  c.notarize(1, 0, mk(1, kGenesisHash, 0).hash());
  // Past the bound new candidates are still accepted (a refusal would brick
  // the slot after enough failed views), displacing the oldest candidate --
  // but never the notarized block's content.
  const Block overflow =
      mk(1, kGenesisHash, static_cast<NodeId>(ChainStore::kMaxCandidatesPerSlot));
  EXPECT_TRUE(c.add_block(overflow));
  EXPECT_NE(c.find_block(1, overflow.hash()), nullptr);
  EXPECT_NE(c.find_block(1, mk(1, kGenesisHash, 0).hash()), nullptr);  // notarized, spared
  EXPECT_EQ(c.find_block(1, mk(1, kGenesisHash, 1).hash()), nullptr);  // displaced
  // Displacement rotates: the next overflow evicts a *different* victim,
  // leaving the block just admitted in place (spam cannot repeatedly evict
  // the most recent live candidate).
  const Block overflow2 =
      mk(1, kGenesisHash, static_cast<NodeId>(ChainStore::kMaxCandidatesPerSlot + 1));
  EXPECT_TRUE(c.add_block(overflow2));
  EXPECT_NE(c.find_block(1, overflow2.hash()), nullptr);
  EXPECT_NE(c.find_block(1, overflow.hash()), nullptr);                // still stored
  EXPECT_EQ(c.find_block(1, mk(1, kGenesisHash, 2).hash()), nullptr);  // next victim
  // Live state stays at the bound (+1 notarization).
  EXPECT_EQ(c.pending_entries(), ChainStore::kMaxCandidatesPerSlot + 1);
}

TEST(Chain, LongRunLiveStateStaysBoundedByWindow) {
  // Finalize a long chain through the ring; live state (pending entries and
  // slabs ever allocated) must stay bounded by the window, not the chain.
  ChainStore c;
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 2000; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    ASSERT_TRUE(c.add_block(b)) << "slot " << s;
    ASSERT_TRUE(c.notarize(s, 0, b.hash()));
    c.try_finalize();
    ASSERT_LE(c.pending_entries(), 8u) << "slot " << s;
  }
  EXPECT_EQ(c.finalized_count(), 1997u);  // depth-4 tail stays pending
  EXPECT_LE(c.window_slabs(), ChainStore::kWindow + 1);
  // The survivors are exactly the 3-slot notarized tail the depth-4 rule
  // cannot finalize yet.
  EXPECT_EQ(c.notarized_suffix_length(), 3u);
}

TEST(Chain, FillerVsTransactionBlocksReportPendingTxs) {
  ChainStore c;
  // A filler payload (nonce + zero padding) has no pending transactions.
  Block filler = mk(1, kGenesisHash);
  filler.payload = {0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(c.add_block(filler));
  ASSERT_TRUE(c.notarize(1, 0, filler.hash()));
  EXPECT_FALSE(c.slot_has_pending_txs(1));

  // A batched payload (nonce + one length-prefixed frame) is pending work.
  Block txful = mk(2, filler.hash());
  txful.payload = {0, 3, 0xAA, 0xBB, 0xCC};
  ASSERT_TRUE(c.add_block(txful));
  ASSERT_TRUE(c.notarize(2, 0, txful.hash()));
  EXPECT_TRUE(c.slot_has_pending_txs(2));

  // A notarization whose block content is unknown is conservatively pending.
  ASSERT_TRUE(c.notarize(3, 0, 0xDEAD));
  EXPECT_TRUE(c.slot_has_pending_txs(3));
  // Unnotarized or out-of-window slots are not.
  EXPECT_FALSE(c.slot_has_pending_txs(4));
  EXPECT_FALSE(c.slot_has_pending_txs(ChainStore::kWindow + 10));
}

TEST(Chain, NotarizedFinalizedSlotReportsChainHash) {
  ChainStore c;
  Block b1 = mk(1, kGenesisHash);
  ASSERT_TRUE(c.force_finalize(b1));
  const auto n = c.notarized(1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->hash, b1.hash());
  EXPECT_EQ(c.required_parent(2), b1.hash());
}

/// Every candidate's and every resident finalized block's stored hash
/// equals a fresh Block::hash(); returns how many were checked.
std::size_t expect_stored_hashes_exact(const ChainStore& c) {
  std::size_t checked = 0;
  c.for_each_candidate([&](Slot s, std::uint64_t stored, const Block& b) {
    EXPECT_EQ(stored, b.hash()) << "candidate at slot " << s;
    ++checked;
  });
  for (Slot s = c.tail_first(); s <= c.finalized_count(); ++s) {
    const Block* b = c.block_at(s);
    EXPECT_NE(b, nullptr) << "finalized slot " << s;
    if (b == nullptr) continue;
    EXPECT_EQ(c.hash_at(s), b->hash()) << "finalized slot " << s;
    ++checked;
  }
  return checked;
}

TEST(Chain, StoredHashesAlwaysEqualARecompute) {
  // The node hashes a block once where it enters and every holder reads the
  // stored copy: after add_block, finalization (rule and adoption, through
  // tail compaction) and restore, each stored hash must match a recompute.
  ChainStore c(8);
  std::uint64_t parent = kGenesisHash;
  std::vector<Block> chain;
  auto next_block = [&](Slot s) {
    Block b{s, parent, static_cast<NodeId>(s % 4), {0, 2, static_cast<std::uint8_t>(s), 7}};
    parent = b.hash();
    chain.push_back(b);
    return b;
  };
  for (Slot s = 1; s <= 24; ++s) {  // the depth-4 rule
    const Block b = next_block(s);
    ASSERT_TRUE(c.add_block(b));
    Block rival = b;  // a second candidate per slot, pruned at finalization
    rival.proposer = 99;
    ASSERT_TRUE(c.add_block(rival));
    EXPECT_GT(expect_stored_hashes_exact(c), 0u);
    ASSERT_TRUE(c.notarize(s, 0, b.hash()));
    c.try_finalize();
  }
  ASSERT_EQ(c.finalized_count(), 21u);
  // Adoption: the pending notarized tail, then fresh blocks.
  for (Slot s = 22; s <= 24; ++s) ASSERT_TRUE(c.force_finalize(chain[s - 1]));
  for (Slot s = 25; s <= 28; ++s) ASSERT_TRUE(c.force_finalize(next_block(s)));
  EXPECT_EQ(c.tail_first(), 21u);  // compaction ran
  EXPECT_EQ(expect_stored_hashes_exact(c), 8u);

  ChainStore restored(8);
  const Checkpoint cp = c.checkpoint();
  std::vector<Block> tail;
  for (Slot s = c.tail_first(); s <= c.finalized_count(); ++s) tail.push_back(*c.block_at(s));
  serde::Writer w;
  c.finalized().encode_commit_state(w);
  restored.restore_state(cp, w.data(), std::move(tail));
  EXPECT_EQ(restored.finalized_count(), c.finalized_count());
  EXPECT_EQ(expect_stored_hashes_exact(restored), c.finalized_count() - cp.slot);
  EXPECT_EQ(restored.prefix_digest(restored.finalized_count()),
            c.prefix_digest(c.finalized_count()));
}

TEST(Chain, EquivocatingTwinGetsItsOwnStoredHash) {
  // Equivocation copies a block and mutates the copy (EquivocatingProposer,
  // sim adversaries): the hash lives beside the stored block, never inside
  // Block, so the twin cannot inherit the original's.
  ChainStore c;
  const Block original = mk(1, kGenesisHash);
  Block twin = original;
  twin.payload.push_back(0xEE);
  ASSERT_TRUE(c.add_block(original));
  ASSERT_TRUE(c.add_block(twin));
  std::vector<std::uint64_t> stored;
  c.for_each_candidate([&](Slot, std::uint64_t h, const Block&) { stored.push_back(h); });
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_NE(stored[0], stored[1]);
  EXPECT_EQ(expect_stored_hashes_exact(c), 2u);
  EXPECT_EQ(*c.find_block(1, twin.hash()), twin);
  EXPECT_EQ(*c.find_block(1, original.hash()), original);
}

}  // namespace
}  // namespace tbft::multishot
