#include "shard/tracker.hpp"

namespace tbft::shard {

ShardedTracker::ShardedTracker(MetricsRegistry& metrics, std::uint32_t shards)
    : metrics_(metrics), router_(shards) {
  trackers_.reserve(shards);
  for (std::uint32_t k = 0; k < shards; ++k) {
    trackers_.push_back(std::make_unique<workload::WorkloadTracker>(metrics));
  }
}

void ShardedTracker::observe(std::uint32_t shard, multishot::MultishotNode& node) {
  workload::WorkloadTracker& tracker = *trackers_[shard];
  const std::size_t observer = tracker.add_observer();
  node.set_commit_hook(
      [this, &tracker, observer, shard](const multishot::Block& b, runtime::Time at) {
        for (const std::uint64_t tag : workload::extract_request_tags(b.payload)) {
          note_commit(shard, tag);
        }
        tracker.on_finalized(observer, b, at);
      });
}

void ShardedTracker::note_commit(std::uint32_t shard, std::uint64_t tag) {
  const auto [it, first] = first_commit_shard_.emplace(tag, shard);
  if (first) {
    if (shard != router_.shard_of(tag)) {
      ++misrouted_commits_;
      metrics_.counter("shard.misrouted_commits").add();
    }
    return;
  }
  if (it->second != shard) {
    ++cross_shard_commits_;
    metrics_.counter("shard.cross_shard_commits").add();
  }
}

void ShardedTracker::on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) {
  trackers_[router_.shard_of(tag)]->on_submitted(tag, at, admitted);
}

void ShardedTracker::on_retry(std::uint64_t tag, runtime::Time at, bool admitted) {
  trackers_[router_.shard_of(tag)]->on_retry(tag, at, admitted);
}

void ShardedTracker::set_completion_listener(std::uint32_t client,
                                             std::function<void(std::uint64_t)> listener) {
  // Every shard tracker gets the listener: a client's tags spread across
  // all shards, and each tag completes in exactly one tracker (its first
  // commit's shard), so the client still hears each completion once.
  for (auto& tracker : trackers_) tracker->set_completion_listener(client, listener);
}

#define TBFT_SHARD_SUM(field)                                     \
  std::uint64_t ShardedTracker::field() const noexcept {          \
    std::uint64_t sum = 0;                                        \
    for (const auto& tracker : trackers_) sum += tracker->field(); \
    return sum;                                                   \
  }

TBFT_SHARD_SUM(submitted)
TBFT_SHARD_SUM(admitted)
TBFT_SHARD_SUM(rejected)
TBFT_SHARD_SUM(committed)
TBFT_SHARD_SUM(duplicates)
TBFT_SHARD_SUM(foreign)
TBFT_SHARD_SUM(retried)
TBFT_SHARD_SUM(retry_duplicates)

#undef TBFT_SHARD_SUM

workload::WorkloadReport ShardedTracker::report(runtime::Time elapsed) const {
  // The histogram-derived fields already span every shard (shared
  // registry); overwrite the per-tracker counters with cluster sums and the
  // percentiles with ones over every shard's latency samples.
  workload::WorkloadReport r = trackers_.front()->report(elapsed);
  std::vector<double> latency_ms;
  for (const auto& tracker : trackers_) {
    latency_ms.insert(latency_ms.end(), tracker->latency_samples().begin(),
                      tracker->latency_samples().end());
  }
  r.set_latency_percentiles(latency_ms);
  r.submitted = submitted();
  r.admitted = admitted();
  r.rejected = rejected();
  r.committed = committed();
  r.duplicates = duplicates();
  r.foreign = foreign();
  r.retried = retried();
  r.retry_duplicates = retry_duplicates();
  r.committed_tx_per_sec = 0;
  if (elapsed > 0) {
    r.committed_tx_per_sec = static_cast<double>(r.committed) * runtime::kSecond /
                             static_cast<double>(elapsed);
  }
  return r;
}

}  // namespace tbft::shard
