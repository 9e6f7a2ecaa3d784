// Sharded multi-chain clusters (ISSUE 10): S independent TetraBFT instances
// behind one key-routed front end. Covers the router's determinism and
// stream keying, the S=4 cross-backend equivalence suite (the same routed
// workload committed through the deterministic Simulation, the threaded
// LocalRunner and loopback TCP -- the route in the frame header -- yields
// identical per-shard chains), cross-shard exactly-once accounting under
// generated load and under forced misrouted / cross-shard / foreign
// commits, the facade's range guards, and the n=64-per-shard
// configuration the large-n sizing fixes enable.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/serde.hpp"
#include "tetrabft.hpp"
#include "workload/request.hpp"
#include "workload/scenarios.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kTxCount = 24;

/// Deterministic routed transactions: real workload requests, so the tag
/// (client 9, seq j) picks the home shard exactly as generated load would.
std::vector<std::uint8_t> routed_tx(std::uint32_t j) {
  return workload::encode_request(/*client=*/9, /*seq=*/j, /*total_bytes=*/24);
}

/// Same shape as the single-chain equivalence rig (equivalence_helpers.hpp):
/// one tx per block, every tx seeded pre-start at node 1 -- the view-0
/// leader of slot 1 in every shard, which never relays -- keeps each
/// shard's tx -> slot map a pure function of the seeding order under any
/// host.
constexpr NodeId kSeedNode = 1;

ClusterBuilder sharded_builder() {
  ClusterBuilder b;
  b.nodes(kNodes)
      .shards(kShards)
      .seed(7)
      .delta_bound(1 * kSecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096);
  return b;
}

TEST(ShardRouter, StreamKeyingRoundTripsAndRoutingIsDeterministic) {
  const shard::ShardRouter router(kShards);
  std::set<std::uint32_t> hit;
  for (std::uint32_t j = 0; j < 256; ++j) {
    const std::uint64_t tag = workload::request_tag(9, j);
    const std::uint32_t s = router.shard_of(tag);
    EXPECT_LT(s, kShards);
    EXPECT_EQ(s, shard::ShardRouter(kShards).shard_of(tag)) << "routing must be stateless";
    hit.insert(s);

    const std::uint64_t stream = shard::shard_stream(s, j + 1);
    EXPECT_EQ(shard::stream_shard(stream), s);
    EXPECT_EQ(shard::stream_slot(stream), j + 1u);
  }
  // mix64 spreads one client's consecutive seqs over every shard.
  EXPECT_EQ(hit.size(), kShards);
  // Shard 0 streams are plain slots: an unsharded consumer reads them as-is.
  EXPECT_EQ(shard::shard_stream(0, 42), 42u);
}

TEST(Sharding, SimVsLocalRunnerCommitIdenticalChainsPerShard) {
  const shard::ShardRouter router(kShards);
  std::vector<std::uint32_t> txs_in_shard(kShards, 0);
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ++txs_in_shard[router.shard_of(workload::request_tag(9, j))];
  }

  // Only node 1 holds transactions, so the other leaders of each shard
  // propose FILLER in between. Slot counts are therefore NOT a drain signal;
  // every backend waits until every routed tx is finalized in its home
  // shard on every replica.

  // --- Simulation side -----------------------------------------------------
  auto sim_cluster = sharded_builder().build_sim();
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ASSERT_TRUE(sim_cluster->submit(kSeedNode, routed_tx(j)));
  }
  sim_cluster->start();
  const bool sim_done = sim_cluster->wait_for(
      [&] {
        for (std::uint32_t j = 0; j < kTxCount; ++j) {
          const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
          for (NodeId i = 0; i < kNodes; ++i) {
            if (!sim_cluster->instance(i, home).tx_finalized(routed_tx(j))) return false;
          }
        }
        return true;
      },
      120 * kSecond);
  ASSERT_TRUE(sim_done) << "sim shards did not finalize every routed tx";

  // --- Real hosts: the LocalRunner and loopback TCP --------------------------
  const auto run_real = [&](std::unique_ptr<Cluster> cluster, const char* name) {
    // Committed request tags per (node, shard), recovered from the commit
    // payloads on the composite stream; guarded by the cluster's commit
    // lock (on_commit callbacks and wait_for predicates both run under it).
    std::map<std::pair<NodeId, std::uint32_t>, std::set<std::uint64_t>> committed_tags;
    cluster->on_commit([&](const runtime::Commit& c) {
      auto& tags = committed_tags[{c.node, shard::stream_shard(c.stream)}];
      for (const std::uint64_t tag : workload::extract_request_tags(c.payload)) {
        tags.insert(tag);
      }
    });
    for (std::uint32_t j = 0; j < kTxCount; ++j) {
      cluster->submit(kSeedNode, routed_tx(j));  // pre-start: seeds mempools
    }
    cluster->start();
    const bool all_done = cluster->wait_for(
        [&] {
          for (std::uint32_t j = 0; j < kTxCount; ++j) {
            const std::uint64_t tag = workload::request_tag(9, j);
            const std::uint32_t home = router.shard_of(tag);
            for (NodeId i = 0; i < kNodes; ++i) {
              const auto it = committed_tags.find({i, home});
              if (it == committed_tags.end() || it->second.count(tag) == 0) return false;
            }
          }
          return true;
        },
        120 * kSecond);
    cluster->stop();
    EXPECT_TRUE(all_done) << name << " shards did not finalize every routed tx in time";
    return cluster;
  };
  std::vector<std::pair<const char*, std::unique_ptr<Cluster>>> real;
  real.emplace_back("threads", run_real(sharded_builder().build_local(), "threads"));
  real.emplace_back("sockets", run_real(sharded_builder().build_socket(), "sockets"));
  ASSERT_FALSE(::testing::Test::HasFailure());

  // --- Identical per-shard chains across all three backends -----------------
  // The number of trailing filler slots can differ across hosts (it depends
  // on when each chain went quiescent), so equality is asserted over the
  // common finalized prefix; prefix consistency covers the full chains.
  for (const auto& [name, cluster] : real) {
    for (std::uint32_t k = 0; k < kShards; ++k) {
      std::vector<multishot::MultishotNode*> chains = sim_cluster->shard_instances(k);
      for (auto* node : cluster->shard_instances(k)) chains.push_back(node);
      EXPECT_TRUE(multishot::chains_prefix_consistent(chains)) << name << " shard " << k;
      const Slot common = std::min(sim_cluster->instance(0, k).finalized_count(),
                                   cluster->instance(0, k).finalized_count());
      if (txs_in_shard[k] > 0) {
        EXPECT_GE(common, txs_in_shard[k]) << name << " shard " << k;
      }
      for (Slot s = 1; s <= common; ++s) {
        const multishot::Block* a = sim_cluster->instance(0, k).block_at(s);
        const multishot::Block* b = cluster->instance(0, k).block_at(s);
        ASSERT_NE(a, nullptr) << "shard " << k << " slot " << s;
        ASSERT_NE(b, nullptr) << name << " shard " << k << " slot " << s;
        EXPECT_EQ(a->hash(), b->hash())
            << name << " shard " << k << " slot " << s << " diverged from the sim";
      }
    }
    // Every tx landed exactly on its home shard, under every host.
    for (std::uint32_t j = 0; j < kTxCount; ++j) {
      const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
      for (std::uint32_t k = 0; k < kShards; ++k) {
        EXPECT_EQ(sim_cluster->instance(0, k).tx_finalized(routed_tx(j)), k == home)
            << "sim tx " << j << " shard " << k;
        EXPECT_EQ(cluster->instance(0, k).tx_finalized(routed_tx(j)), k == home)
            << name << " tx " << j << " shard " << k;
      }
    }
  }
}

TEST(Sharding, GeneratedLoadIsExactlyOnceAcrossShards) {
  auto cluster = ClusterBuilder{}
                     .nodes(kNodes)
                     .shards(kShards)
                     .seed(11)
                     .delta_bound(10 * kMillisecond)
                     .batching(16, 4096)
                     .build_sim();
  workload::WorkloadTracker tracker(cluster->simulation().metrics(), kShards);
  for (NodeId i = 0; i < kNodes; ++i) {
    for (std::uint32_t k = 0; k < kShards; ++k) {
      tracker.observe(cluster->instance(i, k), k);
    }
  }
  std::vector<workload::SubmitPort*> targets;
  for (NodeId i = 0; i < kNodes; ++i) targets.push_back(&cluster->port(i));

  constexpr runtime::Duration kLoad = 300 * kMillisecond;
  workload::ClientLoad load;  // two staggered open-loop clients
  load.rate_per_sec = 800.0;
  load.request_bytes = 48;
  load.stop = kLoad;
  load.retry_timeout = 200 * kMillisecond;  // retries stay in the home shard
  workload::add_clients(cluster->simulation(), load, targets, tracker);
  cluster->start();
  const bool drained = cluster->wait_for(
      [&] {
        return cluster->simulation().now() >= kLoad && tracker.submitted() > 0 &&
               tracker.all_admitted_committed();
      },
      60 * kSecond);
  ASSERT_TRUE(drained) << "sharded load did not drain";

  EXPECT_GT(tracker.committed(), 0u);
  EXPECT_TRUE(tracker.exactly_once())
      << "dups=" << tracker.duplicates() << " foreign=" << tracker.foreign()
      << " cross=" << tracker.cross_shard_commits()
      << " misrouted=" << tracker.misrouted_commits();
  // Every shard saw traffic (mix64 spreads two clients' seqs), and the
  // per-shard counts sum to the total.
  std::uint64_t committed_sum = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_GT(tracker.committed_on(k), 0u) << "idle shard " << k;
    committed_sum += tracker.committed_on(k);
  }
  EXPECT_EQ(committed_sum, tracker.committed());
  const workload::WorkloadReport report = tracker.report(cluster->simulation().now());
  EXPECT_EQ(report.committed, tracker.committed());
  EXPECT_TRUE(report.exactly_once());
  // Per-shard chains stay prefix-consistent.
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(k)))
        << "shard " << k;
  }
}

/// A finalized block carrying the given requests (client 3), as a chain
/// instance would hand it to the tracker's commit hook.
multishot::Block block_of(const std::vector<std::uint32_t>& seqs) {
  serde::Writer w;
  w.varint(0);  // view nonce
  for (const std::uint32_t seq : seqs) w.bytes(workload::encode_request(3, seq, 32));
  multishot::Block b;
  b.payload = w.take();
  return b;
}

TEST(Sharding, TrackerRoutesSubmissionsToHomeShardBooks) {
  MetricsRegistry metrics;
  workload::WorkloadTracker tracker(metrics, kShards);
  std::vector<std::size_t> observer;
  for (std::uint32_t k = 0; k < kShards; ++k) observer.push_back(tracker.add_observer(k));
  std::vector<std::uint64_t> expected(kShards, 0);
  for (std::uint32_t j = 0; j < 64; ++j) {
    const std::uint64_t tag = workload::request_tag(3, j);
    tracker.on_submitted(tag, /*at=*/j, /*admitted=*/true);
    ++expected[tracker.router().shard_of(tag)];
  }
  EXPECT_EQ(tracker.submitted(), 64u);
  EXPECT_EQ(tracker.admitted(), 64u);
  EXPECT_EQ(tracker.outstanding(), 64u);
  // Each request finalizes on its home shard: the per-shard counts follow
  // the router, sum to the total, and exactly-once holds.
  for (std::uint32_t j = 0; j < 64; ++j) {
    const std::uint32_t home = tracker.router().shard_of(workload::request_tag(3, j));
    tracker.on_finalized(observer[home], block_of({j}), /*at=*/100 + j);
  }
  std::uint64_t per_shard = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(tracker.committed_on(k), expected[k]) << "shard " << k;
    EXPECT_GT(expected[k], 0u) << "64 tags leave shard " << k << " idle";
    per_shard += tracker.committed_on(k);
  }
  EXPECT_EQ(per_shard, 64u);
  EXPECT_EQ(tracker.committed(), 64u);
  EXPECT_TRUE(tracker.exactly_once());
  // A rejected retry of a known tag is absorbed.
  tracker.on_retry(workload::request_tag(3, 0), /*at=*/200, /*admitted=*/false);
  EXPECT_EQ(tracker.retried(), 1u);
  EXPECT_EQ(tracker.admitted(), 64u);
}

TEST(Sharding, TrackerFlagsMisroutedCrossShardAndForeignCommits) {
  // Shard of seq j's tag, and some other shard.
  const shard::ShardRouter router(kShards);
  const auto home = [&](std::uint32_t j) { return router.shard_of(workload::request_tag(3, j)); };
  const auto away = [&](std::uint32_t j) { return (home(j) + 1) % kShards; };
  struct Books {
    MetricsRegistry metrics;
    workload::WorkloadTracker tracker{metrics, kShards};
    std::vector<std::size_t> observer;
    Books() {
      for (std::uint32_t k = 0; k < kShards; ++k) observer.push_back(tracker.add_observer(k));
      for (std::uint32_t j = 0; j < 2; ++j) {
        tracker.on_submitted(workload::request_tag(3, j), /*at=*/0, /*admitted=*/true);
      }
    }
    void finalize(std::uint32_t shard, std::uint32_t seq) {
      tracker.on_finalized(observer[shard], block_of({seq}), /*at=*/10);
    }
  };

  {  // Control: both requests on their home shards.
    Books b;
    b.finalize(home(0), 0);
    b.finalize(home(1), 1);
    EXPECT_TRUE(b.tracker.exactly_once());
    EXPECT_TRUE(b.tracker.all_admitted_committed());
  }
  {  // A first commit on a non-home shard is misrouted.
    Books b;
    b.finalize(away(0), 0);
    EXPECT_EQ(b.tracker.misrouted_commits(), 1u);
    EXPECT_EQ(b.tracker.cross_shard_commits(), 0u);
    EXPECT_EQ(b.tracker.foreign(), 0u);
    EXPECT_EQ(b.tracker.committed_on(away(0)), 1u);
    EXPECT_FALSE(b.tracker.exactly_once());
  }
  {  // One tag committed on two shards: the second is cross-shard, though
     // each shard's chain holds it once.
    Books b;
    b.finalize(home(0), 0);
    b.finalize(away(0), 0);
    EXPECT_EQ(b.tracker.cross_shard_commits(), 1u);
    EXPECT_EQ(b.tracker.misrouted_commits(), 0u);
    EXPECT_EQ(b.tracker.duplicates(), 0u);
    EXPECT_EQ(b.tracker.committed(), 1u);
    EXPECT_FALSE(b.tracker.exactly_once());
  }
  {  // A never-submitted tag is foreign, and only foreign: it never enters
     // the first-commit ledger, whichever shard it lands on.
    Books b;
    b.finalize(away(7), 7);
    EXPECT_EQ(b.tracker.foreign(), 1u);
    EXPECT_EQ(b.tracker.misrouted_commits(), 0u);
    EXPECT_EQ(b.tracker.cross_shard_commits(), 0u);
    EXPECT_EQ(b.tracker.committed(), 0u);
    EXPECT_FALSE(b.tracker.exactly_once());
  }
}

TEST(Sharding, NonRequestBytesRouteToShardZero) {
  auto cluster = sharded_builder().build_sim();
  // Raw (non-request) bytes have no tag: the routed port parks them on
  // shard 0, so legacy byte-blob workloads keep working unsharded.
  EXPECT_TRUE(cluster->port(1).submit({'r', 'a', 'w', 0x01}));
  EXPECT_EQ(cluster->instance(1, 0).mempool().size(), 1u);
  for (std::uint32_t k = 1; k < kShards; ++k) {
    EXPECT_EQ(cluster->instance(1, k).mempool().size(), 0u);
  }
}

TEST(Sharding, BuilderGuardsShardCountAndBackendMismatch) {
  EXPECT_THROW(ClusterBuilder{}.shards(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.shards(2000), std::invalid_argument);
  // S = 1 is one mux-wrapped chain per replica...
  auto single = ClusterBuilder{}.shards(1).build_sim();
  EXPECT_EQ(single->shards(), 1u);
  EXPECT_TRUE(single->submit(0, routed_tx(0)));
  // ...and out-of-range ids and shards throw instead of reading past the
  // replica or instance arrays (release builds compile asserts out).
  auto sharded = ClusterBuilder{}.shards(2).build_sim();
  EXPECT_THROW((void)sharded->instance(0, 7), std::out_of_range);
  EXPECT_THROW((void)sharded->instance(99, 0), std::out_of_range);
  EXPECT_THROW((void)sharded->shard_instances(2), std::out_of_range);
  EXPECT_THROW((void)sharded->durable(0, 2), std::out_of_range);
  EXPECT_THROW(sharded->submit(99, routed_tx(0)), std::out_of_range);
  EXPECT_THROW((void)ClusterBuilder{}.shards(2).build_local()->instance(1, 2),
               std::out_of_range);
  // Backend-specific access on another backend is a usage error.
  EXPECT_THROW((void)sharded->runner(), std::logic_error);
  EXPECT_THROW((void)sharded->host(0), std::logic_error);
  EXPECT_THROW((void)ClusterBuilder{}.build_local()->simulation(), std::logic_error);
}

// The n = 64-per-shard configuration (f = 21): the f-scaled claim and
// checkpoint-identity bounds plus the flat voter containers carry a big
// committee through a routed commit. Kept to a couple of slots per shard so
// the O(n^2) simulated fan-out stays test-sized.
TEST(Sharding, LargeCommitteePerShardCommitsRoutedLoad) {
  auto cluster = ClusterBuilder{}
                     .nodes(64)
                     .shards(2)
                     .seed(13)
                     .delta_bound(50 * kMillisecond)
                     .batching(4, 4096)
                     .build_sim();
  const shard::ShardRouter router(2);
  std::vector<std::uint32_t> txs_in_shard(2, 0);
  constexpr std::uint32_t kBigTx = 8;
  for (std::uint32_t j = 0; j < kBigTx; ++j) {
    ASSERT_TRUE(cluster->submit(j % 64, routed_tx(j)));
    ++txs_in_shard[router.shard_of(workload::request_tag(9, j))];
  }
  cluster->start();
  const bool done = cluster->wait_for(
      [&] {
        for (std::uint32_t j = 0; j < kBigTx; ++j) {
          const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
          if (!cluster->instance(0, home).tx_finalized(routed_tx(j))) return false;
        }
        return true;
      },
      120 * kSecond);
  ASSERT_TRUE(done) << "n=64-per-shard cluster did not commit the routed load";
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(k)))
        << "shard " << k;
  }
}

}  // namespace
}  // namespace tbft
