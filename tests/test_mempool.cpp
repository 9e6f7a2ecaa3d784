// Bounded mempool unit tests: capacity enforcement, inflight marks, and the
// admission counters the node mirrors into metrics.

#include "multishot/mempool.hpp"

#include <gtest/gtest.h>

namespace tbft::multishot {
namespace {

std::vector<std::uint8_t> tx(std::uint8_t label, std::size_t size = 4) {
  return std::vector<std::uint8_t>(size, label);
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
  EXPECT_EQ(pool.entries().front().tx, tx(1));
  EXPECT_EQ(pool.entries().back().tx, tx(2));
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
  auto& first = pool.entries().front();
  pool.mark_inflight(first, 3);
  EXPECT_EQ(pool.available(), 1u);
  pool.mark_inflight(first, 3);  // idempotent
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(first.slot, 3u);
  pool.release(first);
  EXPECT_EQ(pool.available(), 2u);
  pool.mark_inflight(first, 5);
  pool.erase(pool.entries().begin());  // erasing an inflight entry rebalances
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.available(), 1u);
}

}  // namespace
}  // namespace tbft::multishot
