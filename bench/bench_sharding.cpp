// Sharding bench: committed-tx/s scaling of S independent TetraBFT chain
// instances behind one key-routed front end (shard::ShardMux over a
// LocalRunner cluster), plus the cross-shard exactly-once contract under
// generated load on the deterministic backend.
//
// Load model (LocalRunner section): open loop at a FIXED per-shard rate --
// the aggregate offered load is `rate * S`, so the sweep over S in
// {1, 2, 4, 8} measures how much key-routed load the cluster absorbs in
// near-real-time, not how many threads the host has. Each request is a
// tagged workload request (client 0, seq = id); mix64 key routing spreads
// consecutive seqs across every shard. The committed rate is
// `txs / (last first-commit - first submit)`: a cluster that absorbs its
// offered load scores ~rate*S, one that falls behind scores its capacity.
//
// Exit code gates:
//  - near-linear scaling: committed tx/s at S=8 >= 6x the S=1 rate
//    (>= 0.75 of linear);
//  - exactly-once across shards at every S: every tx commits on EVERY
//    replica exactly once, in exactly its home shard (no duplicates, no
//    foreign bytes, no misroutes), with straggler retries absorbed;
//  - every shard's chains are prefix-consistent across replicas;
//  - sim section: a WorkloadTracker-audited generated load on the S=4
//    deterministic backend drains exactly-once with every shard active.
//
// Run: bench_sharding [--seed S] [--n N] [--rate R] [--window-ms W]
//                     [--tx-bytes B] [--batch-txs X] [--batch-bytes Y]
// Emits BENCH_sharding.json for trajectory tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_cli.hpp"
#include "bench_json.hpp"
#include "tetrabft.hpp"
#include "workload/request.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace tbft;
using Clock = std::chrono::steady_clock;

struct SweepResult {
  std::uint32_t shards{0};
  std::uint32_t txs{0};
  double tx_per_sec{0.0};
  double drain_s{0.0};
  std::uint64_t retried{0};
  std::uint64_t duplicates{0};
  std::uint64_t misrouted{0};
  std::uint64_t foreign{0};
  bool all_committed{false};
  bool consistent{false};

  [[nodiscard]] bool exactly_once() const {
    return all_committed && duplicates == 0 && misrouted == 0 && foreign == 0;
  }
};

struct SweepConfig {
  std::uint64_t seed{1};
  std::uint32_t n{4};
  double rate_per_shard{1000.0};
  std::uint32_t window_ms{1200};
  std::uint32_t tx_bytes{48};
  std::uint32_t batch_txs{64};
  std::uint32_t batch_bytes{8192};
};

/// One open-loop run against a sharded LocalRunner cluster at `shards`.
SweepResult run_local_sweep(const SweepConfig& cfg, std::uint32_t shards) {
  SweepResult r;
  r.shards = shards;
  const double total_rate = cfg.rate_per_shard * shards;
  r.txs = static_cast<std::uint32_t>(total_rate * cfg.window_ms / 1000.0);

  ClusterBuilder b;
  b.nodes(cfg.n)
      .shards(shards)
      .seed(cfg.seed + shards)  // distinct streams per sweep point
      .delta_bound(1 * runtime::kSecond)  // in-process: never view-change
      .batching(cfg.batch_txs, cfg.batch_bytes)
      .mempool(8192);
  auto cluster = b.build_local();
  const shard::ShardRouter& router = cluster->router();

  const auto tx_for = [&cfg](std::uint32_t id) {
    return workload::encode_request(/*client=*/0, /*seq=*/id, cfg.tx_bytes);
  };

  const auto epoch = Clock::now();
  const auto now_us = [&epoch] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch)
        .count();
  };

  // All commit accounting runs under the hub lock (callbacks serialized).
  std::vector<std::int64_t> first_commit_us(r.txs, -1);
  std::vector<std::vector<std::uint32_t>> per_node_seen(
      cfg.n, std::vector<std::uint32_t>(r.txs, 0));
  std::uint64_t foreign = 0;
  std::uint64_t misrouted = 0;
  std::uint32_t fully_committed = 0;  // txs committed on ALL replicas
  std::int64_t last_first_commit_us = 0;

  cluster->on_commit([&](const runtime::Commit& c) {
    const std::int64_t at = now_us();
    const std::uint32_t commit_shard = shard::stream_shard(c.stream);
    for (const std::uint64_t tag : workload::extract_request_tags(c.payload)) {
      if (workload::tag_client(tag) != 0 || workload::tag_seq(tag) >= r.txs) {
        ++foreign;
        continue;
      }
      const std::uint32_t id = workload::tag_seq(tag);
      if (commit_shard != router.shard_of(tag)) ++misrouted;
      if (++per_node_seen[c.node][id] == 1) {
        if (first_commit_us[id] < 0) {
          first_commit_us[id] = at;
          last_first_commit_us = std::max(last_first_commit_us, at);
        }
        bool everywhere = true;
        for (std::uint32_t i = 0; i < cfg.n; ++i) {
          everywhere = everywhere && per_node_seen[i][id] > 0;
        }
        if (everywhere) ++fully_committed;
      }
    }
  });

  cluster->start();
  // Open loop: tx `id` is due at t0 + id/total_rate, regardless of commit
  // progress. Round-robin over replicas; key routing picks the shard.
  const auto t0 = Clock::now();
  const std::int64_t t_start_us = now_us();
  for (std::uint32_t id = 0; id < r.txs; ++id) {
    const auto due =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(id * 1e6 / total_rate));
    std::this_thread::sleep_until(due);
    cluster->submit(id % cfg.n, tx_for(id));
  }

  bool all_committed = cluster->wait_for(
      [&] { return fully_committed >= r.txs; }, 20 * runtime::kSecond);
  if (!all_committed) {
    // One straggler retry pass: re-submit whatever never reached a first
    // commit (lost to a full mempool); the mempool's commit-aware dedup
    // absorbs re-submissions of anything actually in flight.
    std::vector<std::uint32_t> missing;
    cluster->wait_for(
        [&] {
          for (std::uint32_t id = 0; id < r.txs; ++id) {
            if (first_commit_us[id] < 0) missing.push_back(id);
          }
          return true;
        },
        runtime::Duration{0});
    for (const std::uint32_t id : missing) {
      cluster->submit(id % cfg.n, tx_for(id));
    }
    r.retried = missing.size();
    all_committed = cluster->wait_for(
        [&] { return fully_committed >= r.txs; }, 20 * runtime::kSecond);
  }
  cluster->stop();

  r.all_committed = all_committed;
  r.foreign = foreign;
  r.misrouted = misrouted;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    for (std::uint32_t id = 0; id < r.txs; ++id) {
      if (per_node_seen[i][id] > 1) ++r.duplicates;
    }
  }
  r.drain_s = static_cast<double>(last_first_commit_us - t_start_us) / 1e6;
  r.tx_per_sec = r.drain_s > 0 ? static_cast<double>(r.txs) / r.drain_s : 0.0;

  r.consistent = true;
  for (std::uint32_t k = 0; k < shards; ++k) {
    r.consistent =
        r.consistent && multishot::chains_prefix_consistent(cluster->shard_instances(k));
  }
  return r;
}

struct SimResult {
  bool drained{false};
  bool exactly_once{false};
  bool all_shards_active{false};
  bool consistent{false};
  std::uint64_t committed{0};
  std::uint64_t retried{0};

  [[nodiscard]] bool ok() const {
    return drained && exactly_once && all_shards_active && consistent;
  }
};

/// WorkloadTracker-audited generated load on the S=4 deterministic backend.
SimResult run_sim_audit(std::uint64_t seed) {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kShards = 4;
  SimResult r;
  auto cluster = ClusterBuilder{}
                     .nodes(kN)
                     .shards(kShards)
                     .seed(seed)
                     .delta_bound(10 * runtime::kMillisecond)
                     .batching(16, 4096)
                     .build_sim();
  workload::WorkloadTracker tracker(cluster->simulation().metrics(), kShards);
  for (NodeId i = 0; i < kN; ++i) {
    for (std::uint32_t k = 0; k < kShards; ++k) tracker.observe(cluster->instance(i, k), k);
  }
  std::vector<workload::SubmitPort*> targets;
  for (NodeId i = 0; i < kN; ++i) targets.push_back(&cluster->port(i));

  constexpr runtime::Duration kLoad = 400 * runtime::kMillisecond;
  workload::ClientLoad load;
  load.rate_per_sec = 1000.0;
  load.request_bytes = 48;
  load.stop = kLoad;
  load.retry_timeout = 200 * runtime::kMillisecond;
  workload::add_clients(cluster->simulation(), load, targets, tracker);
  cluster->start();
  r.drained = cluster->simulation().run_until_pred(
      [&] {
        return cluster->simulation().now() >= kLoad && tracker.submitted() > 0 &&
               tracker.all_admitted_committed();
      },
      60 * runtime::kSecond);
  r.exactly_once = tracker.exactly_once();
  r.committed = tracker.committed();
  r.retried = tracker.retried();
  r.all_shards_active = true;
  r.consistent = true;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    r.all_shards_active = r.all_shards_active && tracker.committed_on(k) > 0;
    r.consistent =
        r.consistent && multishot::chains_prefix_consistent(cluster->shard_instances(k));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig cfg;
  bench::Cli cli("bench_sharding");
  cli.flag("seed", &cfg.seed, "deterministic run seed");
  cli.flag("n", &cfg.n, "replicas per shard committee");
  cli.flag("rate", &cfg.rate_per_shard, "offered tx/s PER SHARD (aggregate = rate*S)");
  cli.flag("window-ms", &cfg.window_ms, "open-loop load window");
  cli.flag("tx-bytes", &cfg.tx_bytes, "encoded request size");
  cli.flag("batch-txs", &cfg.batch_txs, "leader batch transaction cap");
  cli.flag("batch-bytes", &cfg.batch_bytes, "leader batch byte budget");
  if (!cli.parse(argc, argv)) return 2;

  const std::vector<std::uint32_t> sweep = {1, 2, 4, 8};
  std::vector<SweepResult> results;
  std::printf("sharding bench: n=%u per shard, %.0f tx/s per shard over %ums, S in {1,2,4,8}\n",
              cfg.n, cfg.rate_per_shard, cfg.window_ms);
  for (const std::uint32_t s : sweep) {
    results.push_back(run_local_sweep(cfg, s));
    const SweepResult& r = results.back();
    std::printf(
        "  S=%u: %u txs -> %.0f committed tx/s (drained in %.3fs)  "
        "retried=%llu dups=%llu misrouted=%llu foreign=%llu  "
        "exactly-once %s, chains consistent %s\n",
        r.shards, r.txs, r.tx_per_sec, r.drain_s,
        static_cast<unsigned long long>(r.retried),
        static_cast<unsigned long long>(r.duplicates),
        static_cast<unsigned long long>(r.misrouted),
        static_cast<unsigned long long>(r.foreign), r.exactly_once() ? "yes" : "NO",
        r.consistent ? "yes" : "NO");
  }

  const double base_rate = results.front().tx_per_sec;
  const double top_rate = results.back().tx_per_sec;
  const double scaling = base_rate > 0 ? top_rate / base_rate : 0.0;
  const bool scales = scaling >= 6.0;  // >= 0.75 of linear at S=8
  bool accounting_ok = true;
  bool consistent_ok = true;
  for (const SweepResult& r : results) {
    accounting_ok = accounting_ok && r.exactly_once();
    consistent_ok = consistent_ok && r.consistent;
  }

  const SimResult sim = run_sim_audit(cfg.seed);
  std::printf(
      "  sim audit (S=4): committed=%llu retried=%llu  drained %s, exactly-once %s, "
      "all shards active %s, chains consistent %s\n",
      static_cast<unsigned long long>(sim.committed),
      static_cast<unsigned long long>(sim.retried), sim.drained ? "yes" : "NO",
      sim.exactly_once ? "yes" : "NO", sim.all_shards_active ? "yes" : "NO",
      sim.consistent ? "yes" : "NO");
  std::printf(
      "  scaling: S=8 at %.0f tx/s vs S=1 at %.0f tx/s -> %.2fx (gate >= 6x)\n"
      "  gates: scaling %s, exactly-once %s, chains consistent %s, sim audit %s\n",
      top_rate, base_rate, scaling, scales ? "yes" : "NO", accounting_ok ? "yes" : "NO",
      consistent_ok ? "yes" : "NO", sim.ok() ? "yes" : "NO");

  bench::JsonReport report("sharding");
  report.field("n", cfg.n)
      .field("seed", cfg.seed)
      .field("rate_per_shard", cfg.rate_per_shard)
      .field("window_ms", cfg.window_ms)
      .field("tx_bytes", cfg.tx_bytes)
      .field("batch_txs", cfg.batch_txs)
      .field("batch_bytes", cfg.batch_bytes);
  for (const SweepResult& r : results) {
    const std::string p = "s" + std::to_string(r.shards) + "_";
    report.field(p + "txs", static_cast<std::uint64_t>(r.txs))
        .field(p + "tx_per_sec", r.tx_per_sec)
        .field(p + "drain_s", r.drain_s)
        .field(p + "retried", r.retried);
  }
  report.field("scaling_s8_over_s1", scaling)
      .field("sim_committed", sim.committed)
      .field("sim_retried", sim.retried)
      .field("exactly_once", accounting_ok ? "yes" : "no")
      .field("chains_consistent", consistent_ok ? "yes" : "no")
      .field("sim_audit", sim.ok() ? "yes" : "no");
  report.write();

  const bool ok = scales && accounting_ok && consistent_ok && sim.ok();
  if (!ok) {
    std::printf("sharding bench: GATE FAILURE\n");
    return 1;
  }
  return 0;
}
