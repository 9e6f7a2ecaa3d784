// Bounded mempool unit tests: capacity enforcement, inflight marks, the
// admission counters the node mirrors into metrics, and the membership
// index (exact under hash collisions, consistent with a reference multiset
// over random operation sequences, admission order kept across erasures).

#include "multishot/mempool.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace tbft::multishot {
namespace {

using Handle = BoundedMempool::Handle;

std::vector<std::uint8_t> tx(std::uint8_t label, std::size_t size = 4) {
  return std::vector<std::uint8_t>(size, label);
}

/// Every entry's bytes, oldest first.
std::vector<std::vector<std::uint8_t>> in_order(const BoundedMempool& pool) {
  std::vector<std::vector<std::uint8_t>> out;
  for (Handle h = pool.front(); h != BoundedMempool::kNone; h = pool.next(h)) {
    out.push_back(pool.at(h).tx);
  }
  return out;
}

TEST(BoundedMempool, RejectNewRefusesAtCapacity) {
  BoundedMempool pool(2);
  EXPECT_TRUE(pool.push(tx(1)));
  EXPECT_TRUE(pool.push(tx(2)));
  EXPECT_FALSE(pool.push(tx(3)));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.admitted(), 2u);
  EXPECT_EQ(pool.rejected(), 1u);
  // The survivors are the first two, untouched.
  EXPECT_EQ(pool.at(pool.front()).tx, tx(1));
  EXPECT_EQ(pool.at(pool.back()).tx, tx(2));
}

TEST(BoundedMempool, OversizedTransactionsAreRejectedOutright) {
  BoundedMempool pool(8);
  EXPECT_FALSE(pool.push(tx(1, 100), /*max_tx_bytes=*/32));
  EXPECT_TRUE(pool.push(tx(1, 32), /*max_tx_bytes=*/32));
  EXPECT_EQ(pool.rejected(), 1u);
}

TEST(BoundedMempool, EmptyTransactionsAreRejected) {
  // An empty transaction would be indistinguishable from the zero-byte
  // filler padding of blocks and could be falsely reconciled as committed.
  BoundedMempool pool(8);
  EXPECT_FALSE(pool.push({}));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.rejected(), 1u);
}

TEST(BoundedMempool, AvailableTracksInflightMarks) {
  BoundedMempool pool(4);
  (void)pool.push(tx(1));
  (void)pool.push(tx(2));
  EXPECT_EQ(pool.available(), 2u);
  const Handle first = pool.front();
  pool.mark_inflight(first, 3);
  EXPECT_EQ(pool.available(), 1u);
  pool.mark_inflight(first, 3);  // idempotent
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(pool.at(first).slot, 3u);
  pool.release(first);
  EXPECT_EQ(pool.available(), 2u);
  pool.mark_inflight(first, 5);
  pool.erase(first);  // erasing an inflight entry rebalances
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.available(), 1u);
}

TEST(BoundedMempool, ReleaseThroughSettlesOnlyMarksAtOrBelowTheSlot) {
  BoundedMempool pool(8);
  for (std::uint8_t i = 1; i <= 4; ++i) (void)pool.push(tx(i));
  Handle h = pool.front();
  for (const Slot s : {Slot{3}, Slot{4}, Slot{4}, Slot{6}}) {
    pool.mark_inflight(h, s);
    h = pool.next(h);
  }
  EXPECT_EQ(pool.available(), 0u);
  pool.release_through(4);
  EXPECT_EQ(pool.available(), 3u);
  EXPECT_TRUE(pool.at(pool.back()).inflight);
  EXPECT_EQ(pool.at(pool.back()).slot, 6u);
  // A stale mark for an erased entry whose cell was reused by a later
  // proposal does not release the newcomer early.
  const Handle victim = pool.front();
  pool.mark_inflight(victim, 7);
  pool.erase(victim);
  ASSERT_TRUE(pool.push(tx(9)));
  const Handle reused = pool.back();
  ASSERT_EQ(reused, victim);  // freed cells are reused
  pool.mark_inflight(reused, 9);
  pool.release_through(7);
  EXPECT_TRUE(pool.at(reused).inflight);
  pool.release_through(9);
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(BoundedMempool, IndexIsByteExactUnderForcedHashCollisions) {
  // Two distinct transactions forced onto one hash: the index pre-filters by
  // hash only, so each must still be found exactly, and erasing one must
  // leave the other findable.
  constexpr std::uint64_t kSameHash = 0x1234;
  BoundedMempool pool(8);
  ASSERT_TRUE(pool.push(tx(1), 0, kSameHash));
  ASSERT_TRUE(pool.push(tx(2), 0, kSameHash));
  EXPECT_TRUE(pool.contains(kSameHash, tx(1)));
  EXPECT_TRUE(pool.contains(kSameHash, tx(2)));
  EXPECT_FALSE(pool.contains(kSameHash, tx(3)));
  EXPECT_FALSE(pool.contains(kSameHash, tx(1, 5)));  // same prefix, longer
  EXPECT_FALSE(pool.contains(fnv1a64(tx(1)), tx(1)));  // right bytes, other hash
  pool.erase(pool.find(kSameHash, tx(1)));
  EXPECT_FALSE(pool.contains(kSameHash, tx(1)));
  EXPECT_TRUE(pool.contains(kSameHash, tx(2)));
  pool.erase_tx(kSameHash, tx(2));
  EXPECT_TRUE(pool.empty());
}

TEST(BoundedMempool, RandomOperationsMatchAReferenceMultiset) {
  // Seeded push/erase/contains/mark_inflight/release sequence against a
  // std::multiset. Small labels force duplicates and index clustering; a
  // hash narrowed to 3 bits forces collisions through precomputed_hash.
  constexpr std::size_t kCapacity = 64;
  BoundedMempool pool(kCapacity);
  std::multiset<std::vector<std::uint8_t>> ref;
  Rng rng(0x6d656d706f6f6cULL);
  auto bytes_of = [](std::uint64_t label) {
    return tx(static_cast<std::uint8_t>(label % 200 + 1), 1 + label % 3);
  };
  auto hash_of = [](const std::vector<std::uint8_t>& b) { return 1 + fnv1a64(b) % 8; };
  std::size_t inflight = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto b = bytes_of(rng.uniform(0, 90));
    switch (rng.uniform(0, 4)) {
      case 0:
      case 1: {
        const bool admitted = pool.push(b, 0, hash_of(b));
        EXPECT_EQ(admitted, ref.size() < kCapacity);
        if (admitted) ref.insert(b);
        break;
      }
      case 2: {
        const Handle h = pool.find(hash_of(b), b);
        ASSERT_EQ(h != BoundedMempool::kNone, ref.count(b) > 0);
        if (h != BoundedMempool::kNone) {
          EXPECT_EQ(pool.at(h).tx, b);
          inflight -= pool.at(h).inflight ? 1 : 0;
          pool.erase(h);
          ref.erase(ref.find(b));
        }
        break;
      }
      case 3: {
        const Handle h = pool.find(hash_of(b), b);
        if (h != BoundedMempool::kNone && !pool.at(h).inflight) {
          pool.mark_inflight(h, 1 + rng.uniform(0, 7));
          ++inflight;
        }
        break;
      }
      default: {
        const Slot through = rng.uniform(0, 8);
        if (through == 0) break;
        pool.release_through(through);
        inflight = 0;
        for (Handle h = pool.front(); h != BoundedMempool::kNone; h = pool.next(h)) {
          if (!pool.at(h).inflight) continue;
          EXPECT_GT(pool.at(h).slot, through);  // every settled mark went
          ++inflight;
        }
        break;
      }
    }
    ASSERT_EQ(pool.size(), ref.size());
    ASSERT_EQ(pool.size() - pool.available(), inflight);
    EXPECT_EQ(pool.contains(hash_of(b), b), ref.count(b) > 0);
  }
  auto all = in_order(pool);
  std::multiset<std::vector<std::uint8_t>> walked(all.begin(), all.end());
  EXPECT_EQ(walked, ref);
  pool.clear();
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.front(), BoundedMempool::kNone);
}

TEST(BoundedMempool, MiddleErasuresKeepAdmissionOrder) {
  BoundedMempool pool(16);
  for (std::uint8_t i = 1; i <= 10; ++i) ASSERT_TRUE(pool.push(tx(i)));
  for (const std::uint8_t gone : {5, 1, 10, 7}) pool.erase_tx(fnv1a64(tx(gone)), tx(gone));
  // Freed cells are reused by later admissions, which still walk last.
  ASSERT_TRUE(pool.push(tx(11)));
  ASSERT_TRUE(pool.push(tx(12)));
  const std::vector<std::vector<std::uint8_t>> want{tx(2), tx(3),  tx(4), tx(6),
                                                    tx(8), tx(9), tx(11), tx(12)};
  EXPECT_EQ(in_order(pool), want);
  EXPECT_EQ(pool.at(pool.back()).tx, tx(12));
}

}  // namespace
}  // namespace tbft::multishot
