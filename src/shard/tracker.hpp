#pragma once
// Cross-shard exactly-once accounting (DESIGN_PERF.md "Sharding").
//
// One WorkloadTracker owns one chain's books. A sharded cluster runs S
// chains, so the ShardedTracker owns S of them -- all over ONE shared
// MetricsRegistry, so run-wide histograms (commit latency, batch sizes,
// mempool depth) aggregate across shards for free -- and adds the ledger no
// per-shard tracker can keep:
//
//  - every submission/retry is routed to its tag's home-shard tracker
//    through the same ShardRouter the submit ports use, so the books agree
//    with placement by construction;
//  - every observed commit is first recorded in a cross-shard first-commit
//    ledger: a tag committing on two *different* shards
//    (cross_shard_commits) or on any shard other than its home
//    (misrouted_commits) is an exactly-once violation even when each
//    per-shard chain looks clean in isolation;
//  - completion listeners fan out to every shard tracker, so closed-loop
//    clients replenish no matter which shard committed their request.
//
// Same threading contract as WorkloadTracker: NOT thread-safe, sim-side
// accounting only. Threaded benches (bench_sharding over LocalRunner) do
// their own accounting under the commit-hub lock, as bench_socket does.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "multishot/node.hpp"
#include "shard/router.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"
#include "workload/tracker.hpp"

namespace tbft::shard {

class ShardedTracker final : public workload::TrackerSink {
 public:
  ShardedTracker(MetricsRegistry& metrics, std::uint32_t shards);

  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] std::uint32_t shards() const noexcept { return router_.shards(); }

  /// Observe `node` as a replica of `shard`: installs a commit hook that
  /// feeds the cross-shard ledger and then the shard's own tracker.
  /// Re-observe after a restart, exactly like WorkloadTracker::observe.
  void observe(std::uint32_t shard, multishot::MultishotNode& node);

  // TrackerSink: generators route by tag through the shared router.
  void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) override;
  void on_retry(std::uint64_t tag, runtime::Time at, bool admitted) override;
  void set_completion_listener(std::uint32_t client,
                               std::function<void(std::uint64_t)> listener) override;

  [[nodiscard]] workload::WorkloadTracker& shard_tracker(std::uint32_t shard) {
    return *trackers_[shard];
  }
  [[nodiscard]] const workload::WorkloadTracker& shard_tracker(std::uint32_t shard) const {
    return *trackers_[shard];
  }

  // Aggregates across every shard tracker.
  [[nodiscard]] std::uint64_t submitted() const noexcept;
  [[nodiscard]] std::uint64_t admitted() const noexcept;
  [[nodiscard]] std::uint64_t rejected() const noexcept;
  [[nodiscard]] std::uint64_t committed() const noexcept;
  [[nodiscard]] std::uint64_t duplicates() const noexcept;
  [[nodiscard]] std::uint64_t foreign() const noexcept;
  [[nodiscard]] std::uint64_t retried() const noexcept;
  [[nodiscard]] std::uint64_t retry_duplicates() const noexcept;
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return admitted() - committed(); }
  [[nodiscard]] bool all_admitted_committed() const noexcept {
    return committed() == admitted();
  }

  /// Commits of one tag on two different shards (each shard's chain may be
  /// individually clean; only this ledger sees the pair).
  [[nodiscard]] std::uint64_t cross_shard_commits() const noexcept {
    return cross_shard_commits_;
  }
  /// Tags whose first commit landed on a shard other than their home.
  [[nodiscard]] std::uint64_t misrouted_commits() const noexcept { return misrouted_commits_; }

  /// Exactly-once across the whole cluster: no per-shard duplicates or
  /// foreign tags, and no cross-shard or misrouted commits.
  [[nodiscard]] bool exactly_once() const noexcept {
    return duplicates() == 0 && foreign() == 0 && cross_shard_commits_ == 0 &&
           misrouted_commits_ == 0;
  }

  /// Aggregate report: summed counters, cluster-wide committed-tx/s,
  /// latency percentiles over every shard's samples, and the
  /// shared-registry histograms (latency/batch/mempool span all shards).
  [[nodiscard]] workload::WorkloadReport report(runtime::Time elapsed) const;

 private:
  void note_commit(std::uint32_t shard, std::uint64_t tag);

  MetricsRegistry& metrics_;
  ShardRouter router_;
  std::vector<std::unique_ptr<workload::WorkloadTracker>> trackers_;
  std::map<std::uint64_t, std::uint32_t> first_commit_shard_;  // tag -> shard
  std::uint64_t cross_shard_commits_{0};
  std::uint64_t misrouted_commits_{0};
};

/// SubmitPort that dispatches each request to its tag's home shard -- the
/// front half of key routing. One RoutedPort stands in front of one
/// replica; `dispatch(shard, tx)` delivers into that replica's shard
/// instance (tbft::Cluster::port on every host, the chaos engine's live
/// muxes). Client retries walk replicas, not shards: a retried tag hashes to
/// the same home shard at every replica, so retry stays within the key's
/// shard by construction. A non-request transaction (no parseable tag)
/// goes to shard 0.
class RoutedPort final : public workload::SubmitPort {
 public:
  using Dispatch = std::function<bool(std::uint32_t shard, std::vector<std::uint8_t>)>;

  RoutedPort(ShardRouter router, Dispatch dispatch)
      : router_(router), dispatch_(std::move(dispatch)) {}

  bool submit(std::vector<std::uint8_t> tx) override {
    const auto tag = workload::parse_request_tag(tx);
    const std::uint32_t shard = tag ? router_.shard_of(*tag) : 0;
    return dispatch_(shard, std::move(tx));
  }

 private:
  ShardRouter router_;
  Dispatch dispatch_;
};

}  // namespace tbft::shard
