#pragma once
// End-to-end commit accounting for the workload engine: every request is
// tracked from submission (generator -> node mempool) through commit (the
// block carrying it finalizes at an observed node), feeding the run's
// MetricsRegistry and a WorkloadReport summary.
//
// Accounting rules:
//  - a request "commits" the first time any observed node finalizes a block
//    containing it; its latency is commit time minus submit time;
//  - per observer, a tag appearing twice in the finalized chain is a
//    double-commit (duplicates); a tag never submitted is foreign -- both
//    break the exactly-once contract bench_workload enforces by exit code;
//  - client-side retries re-submit an existing tag (on_retry): the
//    duplicate *submission* is absorbed -- submitted/admitted stay keyed by
//    tag, latency runs from the first admission -- and a double-commit of a
//    retried tag is reported as retry_duplicates (the known at-least-once
//    window retries open), not as an exactly-once violation;
//  - closed-loop generators learn about completions through per-client
//    listeners, called once per committed request of that client.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "multishot/node.hpp"
#include "runtime/time.hpp"

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

/// The accounting surface generators talk to. One chain has one
/// WorkloadTracker behind it; a sharded cluster has a shard::ShardedTracker
/// that routes each tag to its home shard's tracker and keeps the
/// cross-shard exactly-once ledger. Generators cannot tell the difference.
class TrackerSink {
 public:
  virtual ~TrackerSink() = default;
  virtual void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) = 0;
  virtual void on_retry(std::uint64_t tag, runtime::Time at, bool admitted) = 0;
  virtual void set_completion_listener(std::uint32_t client,
                                       std::function<void(std::uint64_t)> listener) = 0;
};

class WorkloadTracker final : public TrackerSink {
 public:
  explicit WorkloadTracker(MetricsRegistry& metrics) : metrics_(metrics) {}

  /// Install this tracker as `node`'s commit hook. Observe every honest node
  /// so per-chain double-commits are caught wherever they surface.
  void observe(multishot::MultishotNode& node);

  /// Observer registration without installing a hook: callers that need to
  /// wrap the commit hook themselves (shard::ShardedTracker chains a
  /// cross-shard ledger in front) allocate a slot here and feed finalized
  /// blocks through on_finalized with it.
  std::size_t add_observer() {
    seen_.emplace_back();
    return observers_++;
  }

  /// Account one finalized block as seen by `observer` (a slot from
  /// add_observer / observe). Public for hook-wrapping callers; ordinary
  /// users go through observe().
  void on_finalized(std::size_t observer, const multishot::Block& b, runtime::Time at);

  /// Generators report every submission attempt here.
  void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) override;

  /// Generators report client-side re-submissions of an existing tag here.
  /// Absorbed into the exactly-once books: an already-admitted tag keeps
  /// its original submit time (latency is end-to-end from first admission);
  /// a retry that admits a previously rejected tag becomes its admission.
  void on_retry(std::uint64_t tag, runtime::Time at, bool admitted) override;

  /// `listener(tag)` fires once per committed request of `client`
  /// (closed-loop replenishment).
  void set_completion_listener(std::uint32_t client,
                               std::function<void(std::uint64_t)> listener) override {
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
  [[nodiscard]] bool exactly_once() const noexcept {
    return duplicates_ == 0 && foreign_ == 0;
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
  MetricsRegistry& metrics_;
  std::size_t observers_{0};
  std::map<std::uint64_t, runtime::Time> submit_time_;  // admitted requests
  std::map<std::uint64_t, runtime::Time> commit_time_;  // first commit anywhere
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
};

}  // namespace tbft::workload
