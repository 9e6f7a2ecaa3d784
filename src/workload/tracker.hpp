#pragma once
// End-to-end commit accounting for the workload engine: every request is
// tracked from submission (generator -> replica mempool) through commit (the
// block carrying it finalizes at an observed chain instance), feeding the
// run's MetricsRegistry and a WorkloadReport summary. One tracker serves any
// shard count: each observed chain instance is registered with its shard.
//
// Accounting rules:
//  - a request "commits" the first time any observed chain finalizes a
//    block containing it; its latency is commit time minus submit time;
//  - per observer, a tag appearing twice in the finalized chain is a
//    double-commit (duplicates); a tag never submitted is foreign -- both
//    break the exactly-once contract bench_workload enforces by exit code;
//  - one first-commit ledger (tag -> time and shard) catches what no single
//    chain can: a first commit on a shard other than the tag's home
//    (misrouted_commits) and a later commit of the tag on a different shard
//    (cross_shard_commits). Both break exactly-once even when every
//    per-shard chain looks clean in isolation;
//  - client-side retries re-submit an existing tag (on_retry): the
//    duplicate *submission* is absorbed -- submitted/admitted stay keyed by
//    tag, latency runs from the first admission -- and a double-commit of a
//    retried tag is reported as retry_duplicates (the known at-least-once
//    window retries open), not as an exactly-once violation;
//  - closed-loop generators learn about completions through per-client
//    listeners, called once per committed request of that client.
//
// NOT thread-safe: sim-side accounting only. Threaded benches (over
// LocalRunner or sockets) do their own accounting under the commit-hub lock.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "multishot/node.hpp"
#include "runtime/time.hpp"
#include "shard/router.hpp"

namespace tbft::workload {

/// Flat summary of one loaded run. Deterministic for a fixed seed/config
/// (compared wholesale in the determinism regression).
struct WorkloadReport {
  std::uint64_t submitted{0};
  std::uint64_t admitted{0};
  std::uint64_t rejected{0};
  std::uint64_t committed{0};
  std::uint64_t duplicates{0};  // double-commits seen by any observer
  std::uint64_t foreign{0};     // committed tags never submitted
  std::uint64_t retried{0};     // client-side re-submissions (same tag)
  std::uint64_t retry_duplicates{0};  // double-commits attributable to retries
  double committed_tx_per_sec{0};
  double latency_mean_ms{0};
  double latency_p50_ms{0};
  double latency_p95_ms{0};
  double latency_p99_ms{0};
  double latency_max_ms{0};
  double batch_txs_mean{0};
  double batch_txs_max{0};
  double mempool_depth_mean{0};
  double mempool_depth_max{0};
  std::uint64_t mempool_rejected{0};

  [[nodiscard]] std::uint64_t outstanding() const noexcept { return admitted - committed; }
  [[nodiscard]] bool exactly_once() const noexcept { return duplicates == 0 && foreign == 0; }

  /// Fill latency_p50/p95/p99_ms from raw commit-latency samples (ms).
  void set_latency_percentiles(const std::vector<double>& samples_ms);

  friend bool operator==(const WorkloadReport&, const WorkloadReport&) = default;

  void print(const char* title) const;
};

/// Exact percentile `p` (clamped to [0, 100]) of `samples`, interpolating
/// linearly between closest ranks; 0 when there are no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

class WorkloadTracker final {
 public:
  /// `shards` is the cluster's shard count S; requests' home shards come
  /// from shard::ShardRouter(S), the function the submit ports route by.
  explicit WorkloadTracker(MetricsRegistry& metrics, std::uint32_t shards = 1);

  [[nodiscard]] const shard::ShardRouter& router() const noexcept { return router_; }

  /// Install this tracker as the commit hook of `node`, the chain instance
  /// of `shard`. Observe every honest instance so per-chain double-commits
  /// are caught wherever they surface; re-observe a restarted replica.
  void observe(multishot::MultishotNode& node, std::uint32_t shard = 0);

  /// Observer registration without installing a hook, for callers that
  /// feed finalized blocks through on_finalized themselves.
  std::size_t add_observer(std::uint32_t shard = 0);

  /// Account one finalized block as seen by `observer` (a slot from
  /// add_observer / observe).
  void on_finalized(std::size_t observer, const multishot::Block& b, runtime::Time at);

  /// Generators report every submission attempt here.
  void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted);

  /// Generators report client-side re-submissions of an existing tag here.
  /// Absorbed into the exactly-once books: an already-admitted tag keeps
  /// its original submit time (latency is end-to-end from first admission);
  /// a retry that admits a previously rejected tag becomes its admission.
  void on_retry(std::uint64_t tag, runtime::Time at, bool admitted);

  /// `listener(tag)` fires once per committed request of `client`
  /// (closed-loop replenishment).
  void set_completion_listener(std::uint32_t client,
                               std::function<void(std::uint64_t)> listener) {
    listeners_[client] = std::move(listener);
  }

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] std::uint64_t foreign() const noexcept { return foreign_; }
  [[nodiscard]] std::uint64_t retried() const noexcept { return retried_; }
  [[nodiscard]] std::uint64_t retry_duplicates() const noexcept { return retry_duplicates_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return admitted_ - committed_; }
  [[nodiscard]] bool all_admitted_committed() const noexcept {
    return committed_ == admitted_;
  }
  /// Requests whose first commit was on shard `shard`.
  [[nodiscard]] std::uint64_t committed_on(std::uint32_t shard) const {
    return committed_on_.at(shard);
  }
  /// First commits on a shard other than the tag's home.
  [[nodiscard]] std::uint64_t misrouted_commits() const noexcept { return misrouted_commits_; }
  /// Commits of an already committed tag on a different shard.
  [[nodiscard]] std::uint64_t cross_shard_commits() const noexcept {
    return cross_shard_commits_;
  }
  [[nodiscard]] bool exactly_once() const noexcept {
    return duplicates_ == 0 && foreign_ == 0 && misrouted_commits_ == 0 &&
           cross_shard_commits_ == 0;
  }
  /// Submit-to-first-commit latency (ms) of every committed request, in
  /// commit order: the exact percentiles the report needs, kept here because
  /// the registry's histograms are constant-memory summaries.
  [[nodiscard]] const std::vector<double>& latency_samples() const noexcept {
    return latency_ms_;
  }

  /// Summarize the run; `elapsed` is the wall (simulated) time the
  /// throughput figure is normalized by.
  [[nodiscard]] WorkloadReport report(runtime::Time elapsed) const;

 private:
  struct FirstCommit {
    runtime::Time at;
    std::uint32_t shard;
  };

  MetricsRegistry& metrics_;
  shard::ShardRouter router_;
  std::map<std::uint64_t, runtime::Time> submit_time_;  // admitted requests
  std::map<std::uint64_t, FirstCommit> first_commit_;   // first commit anywhere
  std::vector<std::uint32_t> observer_shard_;          // per observer
  std::vector<std::set<std::uint64_t>> seen_;          // per observer
  std::set<std::uint64_t> retried_tags_;               // tags ever re-submitted
  std::map<std::uint32_t, std::function<void(std::uint64_t)>> listeners_;
  std::vector<double> latency_ms_;
  std::uint64_t submitted_{0};
  std::uint64_t admitted_{0};
  std::uint64_t rejected_{0};
  std::uint64_t committed_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t foreign_{0};
  std::uint64_t retried_{0};
  std::uint64_t retry_duplicates_{0};
  std::uint64_t misrouted_commits_{0};
  std::uint64_t cross_shard_commits_{0};
  std::vector<std::uint64_t> committed_on_;  // per shard
};

}  // namespace tbft::workload
