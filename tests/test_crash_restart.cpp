// Crash-restart recovery through the facade (DESIGN_PERF.md "Durability"):
// a cluster built with ClusterBuilder::data_dir persists every finalized
// block, is torn down mid-life, and a second cluster built over the same
// directories resumes with identical chains and exactly-once commit
// accounting -- then keeps finalizing. Plus the builder's storage-config
// validation (inconsistent tail/window/sync combinations fail eagerly).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/adversary.hpp"
#include "tetrabft.hpp"

namespace tbft {
namespace {

namespace fs = std::filesystem;
using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kPhase1Txs = 90;
constexpr std::uint32_t kPhase2Txs = 10;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_crash_restart_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return {'c', 'r', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          0x3C, static_cast<std::uint8_t>(j * 11)};
}

/// Deterministic one-tx-per-block shape (see equivalence_helpers.hpp) with
/// a small finalized tail, fast checkpoint cadence, per-record WAL flushing
/// and tiny WAL segments -- every durability knob exercised.
ClusterBuilder restart_builder(const std::string& dir) {
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(7)
      .delta_bound(1 * kSecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .storage_tail(64)
      .data_dir(dir)
      .checkpoint_every(8)
      .wal_flush_every(1)
      .wal_segment_bytes(512);  // tiny segments: rotation + reclaim exercised
  return b;
}

TEST(CrashRestart, SimResumesFromDiskWithExactlyOnceCommits) {
  TempDir dir("sim_churn");
  std::vector<Slot> counts(kNodes, 0);
  std::vector<Slot> commit_slots(kPhase1Txs, 0);

  // --- First life: finalize far past the tail, then tear down. -------------
  {
    auto cluster = restart_builder(dir.path.string()).build_sim();
    // Seeded at node 1, the slot-1 leader (it never relays); the other
    // leaders propose filler in between, so wait for the transactions
    // themselves, not a finalized count.
    for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
      ASSERT_TRUE(cluster->submit(1, tx_bytes(j)));
    }
    cluster->start();
    const auto all_committed = [&] {
      for (NodeId i = 0; i < kNodes; ++i) {
        for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
          if (!cluster->instance(i).tx_finalized(tx_bytes(j))) return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(cluster->simulation().run_until_pred(all_committed, 300 * kSecond));
    for (NodeId i = 0; i < kNodes; ++i) counts[i] = cluster->instance(i).finalized_count();
    for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
      commit_slots[j] = cluster->instance(0).chain().commit_slot(tx_bytes(j));
      ASSERT_NE(commit_slots[j], 0u) << "tx " << j << " not committed in first life";
    }
    // The run compacted (tail 64 < 90 finalized) and checkpointed durably.
    EXPECT_GT(cluster->instance(0).chain().checkpoint().slot, 0u);
    ASSERT_NE(cluster->durable(0), nullptr);
    EXPECT_GE(cluster->durable(0)->checkpoints_stored(), 1u);
    EXPECT_GT(cluster->durable(0)->wal_stats().segments_reclaimed, 0u);
  }

  // Simulate node 0 dying mid-write: torn garbage at the end of its newest
  // WAL segment. Recovery must drop exactly the garbage, no real records
  // (wal_flush_every(1) made every append durable).
  {
    fs::path newest;
    for (const auto& entry : fs::directory_iterator(dir.path / "node-0")) {
      if (entry.path().extension() != ".seg") continue;
      if (newest.empty() || entry.path().filename() > newest.filename()) {
        newest = entry.path();
      }
    }
    ASSERT_FALSE(newest.empty());
    std::ofstream f(newest, std::ios::binary | std::ios::app);
    f.write("\x13\x37", 2);
  }

  // --- Second life: recover from the same directories. ---------------------
  auto cluster = restart_builder(dir.path.string()).build_sim();
  for (NodeId i = 0; i < kNodes; ++i) {
    ASSERT_NE(cluster->durable(i), nullptr);
    // Nothing finalized was lost: each replica resumes at its exact tip.
    EXPECT_EQ(cluster->instance(i).finalized_count(), counts[i]) << "node " << i;
  }
  // Exactly-once accounting: every first-life commit answers from the
  // recovered digest set with its original slot, before any new progress.
  for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
    EXPECT_EQ(cluster->instance(0).chain().commit_slot(tx_bytes(j)), commit_slots[j])
        << "tx " << j;
  }
  EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances()));

  // The restored cluster is live: it finalizes fresh transactions on top of
  // the recovered chains.
  cluster->start();
  for (std::uint32_t j = 0; j < kPhase2Txs; ++j) {
    ASSERT_TRUE(cluster->submit(j % kNodes, tx_bytes(kPhase1Txs + j)));
  }
  const auto fresh_committed = [&] {
    for (NodeId i = 0; i < kNodes; ++i) {
      for (std::uint32_t j = 0; j < kPhase2Txs; ++j) {
        if (!cluster->instance(i).tx_finalized(tx_bytes(kPhase1Txs + j))) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(cluster->simulation().run_until_pred(fresh_committed, 300 * kSecond));
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_GT(cluster->instance(i).finalized_count(), counts[i]) << "node " << i;
  }
}

/// Distinct 16-byte transaction j of the dedup probes.
std::vector<std::uint8_t> probe_tx(std::uint32_t j) {
  std::vector<std::uint8_t> tx(16, 0x5D);
  tx[0] = 'd';
  tx[1] = 'h';
  for (int b = 0; b < 4; ++b) tx[2 + b] = static_cast<std::uint8_t>(j >> (8 * b));
  return tx;
}

/// Probe index of a delivered frame, or -1 for a foreign frame.
long probe_index(std::span<const std::uint8_t> f) {
  if (f.size() != 16 || f[0] != 'd' || f[1] != 'h') return -1;
  std::uint32_t j = 0;
  for (int b = 0; b < 4; ++b) j |= static_cast<std::uint32_t>(f[2 + b]) << (8 * b);
  return static_cast<long>(j);
}

/// Per-probe-tx delivery counts as published by replica `node`'s commits.
struct DeliveryCounter {
  std::vector<std::uint32_t> counts;
  void attach(Cluster& c, NodeId node, std::uint32_t txs) {
    counts.assign(txs, 0);
    c.on_commit([this, node](const runtime::Commit& commit) {
      if (commit.node != node) return;
      for (const auto f : multishot::payload_frames(commit.payload)) {
        const long j = probe_index(f);
        if (j >= 0 && static_cast<std::size_t>(j) < counts.size()) ++counts[j];
      }
    });
  }
  [[nodiscard]] std::size_t delivered() const {
    return static_cast<std::size_t>(
        std::count_if(counts.begin(), counts.end(), [](std::uint32_t n) { return n > 0; }));
  }
  [[nodiscard]] std::uint32_t max_count() const {
    return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  }
};

TEST(CrashRestart, DedupProbeDeliversEveryTxExactlyOnce) {
  // 100,000 distinct transactions at 64 per block behind a 64-block tail:
  // the commit index must stay exact while the chain compacts, or fresh
  // submissions are acknowledged as "deduped" and never delivered. Counted
  // through node 0's published commits, not tx_finalized (which consults
  // the same index that would be lying).
  constexpr std::uint32_t kTxs = 100'000;
  constexpr std::uint32_t kChunk = 2'000;
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(7)
      .batching(/*max_txs=*/64, /*max_bytes=*/8192)
      .storage_tail(64);
  auto cluster = b.build_sim();
  DeliveryCounter node0;
  node0.attach(*cluster, 0, kTxs);
  cluster->start();
  std::uint32_t accepted = 0;
  for (std::uint32_t j = 0; j < kTxs; ++j) {
    accepted += cluster->submit(j % kNodes, probe_tx(j)) ? 1 : 0;
    if ((j + 1) % kChunk == 0) {
      cluster->simulation().run_until(cluster->simulation().now() + 200 * kMillisecond);
    }
  }
  ASSERT_EQ(accepted, kTxs);
  ASSERT_TRUE(cluster->wait_for([&] { return node0.delivered() == kTxs; }, 60 * kSecond))
      << "node 0 delivered " << node0.delivered() << " of " << kTxs;
  EXPECT_EQ(node0.max_count(), 1u);
  EXPECT_GT(cluster->instance(0).chain().checkpoint().slot, 1000u);  // compacted far
}

TEST(CrashRestart, CheckpointJumpPastTheHorizonExpiresStalePool) {
  // Node 3 is cut off holding copies of transactions whose twins commit at
  // node 0 right away. The others finalize more than H slots past a
  // 64-block tail, so node 3 can only catch up by checkpoint transfer, and
  // the installed window (at - H, at] cannot tell it the twins committed.
  // Its whole pre-install pool must expire: proposing those copies now
  // would commit them again more than H slots after their twins, beyond
  // the delivery filter's reach.
  constexpr std::uint32_t kTwins = 8;
  constexpr std::uint32_t kLoad = multishot::kDedupHorizon + 400;
  constexpr std::uint32_t kAfter = 64;
  constexpr std::uint32_t kTxs = kTwins + kLoad + kAfter;
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(11)
      .delta_bound(5 * kMillisecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .storage_tail(64);
  auto cluster = b.build_sim();
  auto& sim = cluster->simulation();
  sim.network().set_gst(3600 * kSecond);  // the hook decides every delivery
  auto cut_off = std::make_shared<bool>(true);
  sim.network().set_adversary(
      [cut_off](const sim::Envelope& env,
                sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
        if (*cut_off && (env.dst == 3 || env.src == 3)) {
          return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        }
        return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + kMillisecond};
      });
  DeliveryCounter node0;
  node0.attach(*cluster, 0, kTxs);
  for (std::uint32_t j = 0; j < kTwins; ++j) {
    ASSERT_TRUE(cluster->submit(3, probe_tx(j)));
    ASSERT_TRUE(cluster->submit(0, probe_tx(j)));
  }
  for (std::uint32_t j = kTwins; j < kTwins + kLoad; ++j) {
    ASSERT_TRUE(cluster->submit(j % 3, probe_tx(j)));
  }
  cluster->start();
  const Slot jump = multishot::kDedupHorizon + 200;
  ASSERT_TRUE(cluster->wait_for(
      [&] { return cluster->instance(0).finalized_count() >= jump; }, 3600 * kSecond));
  ASSERT_EQ(cluster->instance(3).finalized_count(), 0u);
  ASSERT_EQ(cluster->instance(3).mempool().size(), kTwins);

  // Heal and let node 3 catch up; then more load, so that node 3 leads
  // slots again with whatever its pool still holds.
  *cut_off = false;
  ASSERT_TRUE(cluster->wait_for([&] {
    return cluster->instance(3).finalized_count() >= cluster->instance(0).finalized_count();
  }, 3600 * kSecond));
  for (std::uint32_t j = kTwins + kLoad; j < kTxs; ++j) {
    ASSERT_TRUE(cluster->submit(j % 3, probe_tx(j)));
  }
  ASSERT_TRUE(cluster->wait_for([&] { return node0.delivered() == kTxs; }, 3600 * kSecond))
      << "node 0 delivered " << node0.delivered() << " of " << kTxs;
  sim.run_until(sim.now() + 1 * kSecond);

  auto& metrics = sim.metrics();
  EXPECT_GE(metrics.counter("multishot.ckpt.installed").value(), 1u);
  EXPECT_EQ(metrics.counter("multishot.mempool.expired").value(), kTwins);
  EXPECT_TRUE(cluster->instance(3).mempool().empty());
  EXPECT_GE(cluster->instance(3).finalized_count(), jump);
  EXPECT_EQ(node0.max_count(), 1u);  // no transaction delivered twice
  EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances()));
}

TEST(CrashRestart, BuilderRejectsInconsistentStorageConfigs) {
  // Tail below the FinalizedStore floor.
  EXPECT_THROW((void)ClusterBuilder{}.storage_tail(4).node_config(), std::logic_error);
  // Tail smaller than the unfinalized window: range-sync peers could compact
  // blocks a straggler still needs.
  EXPECT_THROW((void)ClusterBuilder{}.storage_tail(32).node_config(), std::logic_error);
  // ... and the error tells the user the way out.
  try {
    (void)ClusterBuilder{}.storage_tail(32).node_config();
    FAIL() << "storage_tail(32) below the window must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("raise storage_tail to at least " +
                        std::to_string(multishot::ChainStore::kWindow)),
              std::string::npos)
        << what;
  }
  // A window-sized tail is legal.
  EXPECT_NO_THROW((void)ClusterBuilder{}.storage_tail(multishot::ChainStore::kWindow).node_config());
  // Durability knobs validate eagerly at the setter.
  EXPECT_THROW(ClusterBuilder{}.data_dir(""), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.checkpoint_every(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.wal_flush_every(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.wal_segment_bytes(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.storage_tail(0), std::invalid_argument);
}

}  // namespace
}  // namespace tbft
