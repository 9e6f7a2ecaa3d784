// Large-committee coverage (ISSUE 10): the flat consensus-state containers
// and f-scaled Byzantine fan-out bounds at n = 64 and n = 128 (f = 21/42).
// The small-n suites exercise these structures within one 64-bit bitmap word
// and below every bound's floor; here the word boundaries, the eviction
// rules under view spam, the equivocation caps, and quorum counting are
// pinned at committee sizes where the f-scaled bounds actually scale.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "multishot/chain.hpp"
#include "multishot/node.hpp"
#include "multishot/slot_window.hpp"
#include "tetrabft.hpp"
#include "workload/request.hpp"

namespace tbft {
namespace {

using multishot::Block;
using multishot::ChainStore;
using multishot::NodeBitmap;
using multishot::ViewHashMap;
using multishot::VoteLedger;
using runtime::kMillisecond;
using runtime::kSecond;

TEST(LargeN, NodeBitmapSpansWordBoundaries) {
  // n = 64 fits exactly one word; n = 65 and n = 128 need two. The bits on
  // both sides of every boundary must be independent.
  for (const std::uint32_t n : {64u, 65u, 128u}) {
    NodeBitmap bm;
    bm.reset(n);
    for (NodeId id = 0; id < n; ++id) {
      EXPECT_FALSE(bm.contains(id)) << "n=" << n << " id=" << id;
      EXPECT_TRUE(bm.insert(id));
      EXPECT_FALSE(bm.insert(id)) << "duplicate insert must not recount";
      EXPECT_TRUE(bm.contains(id));
      EXPECT_EQ(bm.count(), id + 1u);
    }
    EXPECT_EQ(bm.count(), n);
    // reset() re-sizes and clears: boundary bits do not leak across runs.
    bm.reset(n);
    EXPECT_EQ(bm.count(), 0u);
    EXPECT_FALSE(bm.contains(63));
    EXPECT_FALSE(bm.contains(n - 1));
  }
}

TEST(LargeN, NodeBitmapBoundaryBitsAreIndependent) {
  NodeBitmap bm;
  bm.reset(128);
  EXPECT_TRUE(bm.insert(63));
  EXPECT_TRUE(bm.insert(64));
  EXPECT_TRUE(bm.insert(127));
  EXPECT_EQ(bm.count(), 3u);
  EXPECT_FALSE(bm.contains(62));
  EXPECT_FALSE(bm.contains(65));
  EXPECT_FALSE(bm.contains(126));
}

TEST(LargeN, ViewHashMapEvictionUnderViewSpam) {
  // kMaxTrackedViewsPerSlot-sized map (32): low-view Byzantine spam can
  // never displace a live higher-view entry, and the lowest view is the
  // evictee when a genuinely higher view arrives.
  ViewHashMap m(32);
  for (View v = 1; v <= 32; ++v) EXPECT_TRUE(m.try_emplace(v, 1000 + v));
  EXPECT_EQ(m.size(), 32u);
  EXPECT_FALSE(m.try_emplace(1, 9999)) << "first write wins per view";
  EXPECT_FALSE(m.try_emplace(0, 9999)) << "below-minimum spam is the evictee";
  ASSERT_NE(m.find(32), nullptr);

  EXPECT_TRUE(m.try_emplace(100, 7));  // evicts view 1, the minimum
  EXPECT_EQ(m.size(), 32u);
  EXPECT_EQ(m.find(1), nullptr);
  ASSERT_NE(m.find(100), nullptr);
  EXPECT_EQ(*m.find(100), 7u);
  ASSERT_NE(m.find(2), nullptr) << "live higher views survive the eviction";
}

TEST(LargeN, VoteLedgerCountsQuorumsAtBigCommittees) {
  // One (view, hash) bucket accumulating a 128-node committee: the quorum
  // and blocking thresholds must flip exactly at n - f and f + 1.
  for (const std::uint32_t n : {64u, 128u}) {
    const QuorumParams qp = QuorumParams::max_faults(n);
    EXPECT_EQ(qp.f(), (n - 1) / 3);
    VoteLedger ledger(128);
    NodeBitmap& voters = ledger.voters(/*view=*/3, /*hash=*/42, n);
    for (NodeId id = 0; id < n; ++id) {
      EXPECT_EQ(qp.is_quorum(voters.count()), voters.count() >= n - qp.f());
      EXPECT_EQ(qp.is_blocking(voters.count()), voters.count() >= qp.f() + 1);
      voters.insert(id);
      voters.insert(id);  // re-votes must not inflate the tally
    }
    EXPECT_EQ(voters.count(), n);
    EXPECT_TRUE(qp.is_quorum(voters.count()));
    // The same bucket is found again, not duplicated.
    EXPECT_EQ(&ledger.voters(3, 42, n), &voters);
    EXPECT_EQ(ledger.size(), 1u);
  }
}

TEST(LargeN, FanOutBoundsScaleWithF) {
  // Historical floors below them, f-scaled above: small committees keep
  // their recorded traces, n = 64/128 (f = 21/42) get room for the honest
  // entry past a full Byzantine flooder set.
  EXPECT_EQ(multishot::max_claims_per_slot(1), 32u);
  EXPECT_EQ(multishot::max_claims_per_slot(21), 32u);   // n = 64: floor holds
  EXPECT_EQ(multishot::max_claims_per_slot(30), 32u);   // last floor value
  EXPECT_EQ(multishot::max_claims_per_slot(31), 33u);   // first scaled value
  EXPECT_EQ(multishot::max_claims_per_slot(42), 44u);   // n = 128
  for (std::uint32_t f = 0; f <= 64; ++f) {
    EXPECT_GT(multishot::max_claims_per_slot(f), f + 1u)
        << "a flooder set must never exhaust a slot's claims, f=" << f;
  }

  EXPECT_EQ(multishot::max_ckpt_identities(1), 4u);
  EXPECT_EQ(multishot::max_ckpt_identities(3), 4u);     // last floor value
  EXPECT_EQ(multishot::max_ckpt_identities(4), 5u);     // first scaled value
  EXPECT_EQ(multishot::max_ckpt_identities(21), 22u);   // n = 64
  EXPECT_EQ(multishot::max_ckpt_identities(42), 43u);   // n = 128
  for (std::uint32_t f = 0; f <= 64; ++f) {
    EXPECT_GT(multishot::max_ckpt_identities(f), f)
        << "an honest identity must never be crowded out, f=" << f;
  }
}

TEST(LargeN, EquivocationCandidateCapSparesTheNotarizedBlock) {
  // A Byzantine leader of a 128-node committee can fan out one block per
  // victim; the per-slot candidate store stays at kMaxCandidatesPerSlot and
  // its displacement rotation never evicts the notarized content the
  // finalization rule still needs.
  ChainStore c;
  std::vector<Block> twins;
  for (std::uint8_t i = 0; i < 128; ++i) {
    Block b{/*slot=*/1, multishot::kGenesisHash, /*proposer=*/0, {i}};
    twins.push_back(b);
    EXPECT_TRUE(c.add_block(b));
  }
  EXPECT_LE(c.pending_entries(), ChainStore::kMaxCandidatesPerSlot + 1);

  // Re-add the displaced twin 0, notarize it, then keep spamming: the
  // notarized candidate must survive another 128 displacements.
  EXPECT_TRUE(c.add_block(twins[0]));
  EXPECT_TRUE(c.notarize(1, /*view=*/1, twins[0].hash()));
  for (std::uint8_t i = 0; i < 128; ++i) {
    Block b{/*slot=*/1, multishot::kGenesisHash, /*proposer=*/0, {0xAA, i}};
    EXPECT_TRUE(c.add_block(b));
  }
  EXPECT_NE(c.find_block(1, twins[0].hash()), nullptr)
      << "displacement rotation evicted the notarized block";
}

TEST(LargeN, HundredTwentyEightNodeCommitteeCommitsAndAgrees) {
  // End-to-end n = 128 (f = 42): quorum counting, bitmap sizing, and the
  // scaled bounds carry a full-size committee through real commits. Kept to
  // a handful of slots -- every broadcast round is a 128^2 fan-out.
  auto cluster = ClusterBuilder{}
                     .nodes(128)
                     .seed(31)
                     .delta_bound(50 * kMillisecond)
                     .batching(/*max_txs=*/4, /*max_bytes=*/4096)
                     .build_sim();
  constexpr std::uint32_t kTx = 4;
  for (std::uint32_t j = 0; j < kTx; ++j) {
    ASSERT_TRUE(cluster->submit(j % 128, workload::encode_request(9, j, 24)));
  }
  cluster->start();
  const bool done = cluster->simulation().run_until_pred(
      [&] {
        for (std::uint32_t j = 0; j < kTx; ++j) {
          if (!cluster->instance(0).tx_finalized(workload::encode_request(9, j, 24))) {
            return false;
          }
        }
        return true;
      },
      120 * kSecond);
  ASSERT_TRUE(done) << "n=128 committee did not commit the submitted load";
  EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances()));
}

}  // namespace
}  // namespace tbft
