#include "workload/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

#include "workload/request.hpp"

namespace tbft::workload {

void WorkloadReport::print(const char* title) const {
  std::printf("%-28s %8llu sub %8llu adm %8llu rej %8llu com  %9.0f tx/s\n", title,
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(committed), committed_tx_per_sec);
  std::printf("%-28s latency ms p50=%.2f p95=%.2f p99=%.2f max=%.2f  batch=%.1f/%.0f "
              "pool=%.0f/%.0f%s%s\n",
              "", latency_p50_ms, latency_p95_ms, latency_p99_ms, latency_max_ms,
              batch_txs_mean, batch_txs_max, mempool_depth_mean, mempool_depth_max,
              duplicates != 0 ? "  DUPLICATES" : "", foreign != 0 ? "  FOREIGN" : "");
}

void WorkloadReport::set_latency_percentiles(const std::vector<double>& samples_ms) {
  latency_p50_ms = percentile(samples_ms, 50);
  latency_p95_ms = percentile(samples_ms, 95);
  latency_p99_ms = percentile(samples_ms, 99);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Clamp: p outside [0, 100] would index out of range (negative rank floors
  // below zero and wraps on the size_t cast).
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) return samples[lo];
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

WorkloadTracker::WorkloadTracker(MetricsRegistry& metrics, std::uint32_t shards)
    : metrics_(metrics), router_(shards), committed_on_(shards, 0) {}

void WorkloadTracker::observe(multishot::MultishotNode& node, std::uint32_t shard) {
  const std::size_t observer = add_observer(shard);
  node.set_commit_hook([this, observer](const multishot::Block& b, runtime::Time at) {
    on_finalized(observer, b, at);
  });
}

std::size_t WorkloadTracker::add_observer(std::uint32_t shard) {
  TBFT_ASSERT_MSG(shard < router_.shards(), "observed shard out of range");
  observer_shard_.push_back(shard);
  seen_.emplace_back();
  return seen_.size() - 1;
}

void WorkloadTracker::on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) {
  ++submitted_;
  metrics_.counter("workload.submitted").add();
  if (!admitted) {
    ++rejected_;
    metrics_.counter("workload.rejected").add();
    return;
  }
  ++admitted_;
  metrics_.counter("workload.admitted").add();
  submit_time_.emplace(tag, at);
}

void WorkloadTracker::on_retry(std::uint64_t tag, runtime::Time at, bool admitted) {
  ++retried_;
  retried_tags_.insert(tag);
  metrics_.counter("workload.retried").add();
  if (!admitted) return;
  // First successful admission of a tag whose original submission was
  // rejected becomes *the* admission; an already-admitted tag is absorbed
  // (latency keeps running from the original admission).
  if (submit_time_.emplace(tag, at).second) {
    ++admitted_;
    metrics_.counter("workload.admitted").add();
  }
}

void WorkloadTracker::on_finalized(std::size_t observer, const multishot::Block& b,
                                   runtime::Time at) {
  const std::uint32_t shard = observer_shard_[observer];
  for (const std::uint64_t tag : extract_request_tags(b.payload)) {
    if (!seen_[observer].insert(tag).second) {
      // A retried tag landing twice in one chain is the at-least-once
      // window the retry knowingly opened (both copies were in flight);
      // report it separately instead of as an exactly-once violation.
      if (retried_tags_.count(tag) != 0) {
        ++retry_duplicates_;
        metrics_.counter("workload.retry_duplicates").add();
      } else {
        ++duplicates_;
        metrics_.counter("workload.duplicates").add();
      }
      continue;
    }
    const auto sit = submit_time_.find(tag);
    if (sit == submit_time_.end()) {
      ++foreign_;
      metrics_.counter("workload.foreign").add();
      continue;
    }
    const auto [cit, first] = first_commit_.emplace(tag, FirstCommit{at, shard});
    if (!first) {
      // An earlier observer already committed it: fine on the same shard
      // (another replica of that chain), a violation on any other.
      if (cit->second.shard != shard) {
        ++cross_shard_commits_;
        metrics_.counter("workload.cross_shard_commits").add();
      }
      continue;
    }
    if (shard != router_.shard_of(tag)) {
      ++misrouted_commits_;
      metrics_.counter("workload.misrouted_commits").add();
    }
    ++committed_;
    ++committed_on_[shard];
    metrics_.counter("workload.committed").add();
    const double latency_ms = static_cast<double>(at - sit->second) / runtime::kMillisecond;
    latency_ms_.push_back(latency_ms);
    metrics_.histogram("workload.commit_latency_ms").record(latency_ms);
    if (const auto lit = listeners_.find(tag_client(tag)); lit != listeners_.end()) {
      lit->second(tag);
    }
  }
}

WorkloadReport WorkloadTracker::report(runtime::Time elapsed) const {
  WorkloadReport r;
  r.submitted = submitted_;
  r.admitted = admitted_;
  r.rejected = rejected_;
  r.committed = committed_;
  r.duplicates = duplicates_;
  r.foreign = foreign_;
  r.retried = retried_;
  r.retry_duplicates = retry_duplicates_;
  if (elapsed > 0) {
    r.committed_tx_per_sec =
        static_cast<double>(committed_) * runtime::kSecond / static_cast<double>(elapsed);
  }
  const Histogram& lat = metrics_.histogram("workload.commit_latency_ms");
  r.latency_mean_ms = lat.mean();
  r.set_latency_percentiles(latency_ms_);
  r.latency_max_ms = lat.max();
  const Histogram& batch = metrics_.histogram("multishot.batch.txs");
  r.batch_txs_mean = batch.mean();
  r.batch_txs_max = batch.max();
  const Histogram& depth = metrics_.histogram("multishot.mempool.depth");
  r.mempool_depth_mean = depth.mean();
  r.mempool_depth_max = depth.max();
  r.mempool_rejected = metrics_.counter("multishot.mempool.rejected").value();
  return r;
}

}  // namespace tbft::workload
