#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "workload/request.hpp"
#include "workload/tracker.hpp"

namespace tbft::workload {

LoadClient::LoadClient(ClientConfig cfg, std::vector<SubmitPort*> targets,
                       WorkloadTracker& tracker)
    : cfg_(cfg), tracker_(tracker), targets_(std::move(targets)) {
  TBFT_ASSERT_MSG(!targets_.empty(), "a load client needs at least one target port");
  // One listener per client: commits settle the retry book first, then the
  // subclass hook (closed-loop replenishment).
  tracker_.set_completion_listener(cfg_.client_id,
                                   [this](std::uint64_t tag) { on_committed(tag); });
}

bool LoadClient::submit_one() {
  const std::size_t target = next_target_;
  next_target_ = (next_target_ + 1) % targets_.size();
  const std::uint32_t seq = seq_++;
  const std::uint64_t tag = request_tag(cfg_.client_id, seq);
  const bool admitted =
      targets_[target]->submit(encode_request(cfg_.client_id, seq, cfg_.request_bytes));
  tracker_.on_submitted(tag, ctx().now(), admitted);
  if (admitted && cfg_.retry_timeout > 0) {
    outstanding_.emplace(tag, PendingRetry{seq, target, ctx().now() + cfg_.retry_timeout});
    arm_retry_timer();
  }
  return admitted;
}

void LoadClient::on_committed(std::uint64_t tag) { outstanding_.erase(tag); }

void LoadClient::on_timer(runtime::TimerId id) {
  if (id != 0 && id == retry_timer_) {
    retry_timer_ = 0;
    run_retries();
    arm_retry_timer();
    return;
  }
  on_client_timer(id);
}

void LoadClient::arm_retry_timer() {
  if (retry_timer_ != 0 || outstanding_.empty()) return;
  runtime::Time earliest = outstanding_.begin()->second.deadline;
  for (const auto& [tag, pr] : outstanding_) earliest = std::min(earliest, pr.deadline);
  retry_timer_ = ctx().set_timer(std::max<runtime::Duration>(1, earliest - ctx().now()));
}

void LoadClient::run_retries() {
  const runtime::Time now = ctx().now();
  for (auto& [tag, pr] : outstanding_) {
    if (pr.deadline > now) continue;
    // The original replica sat on this request past the timeout (crashed or
    // isolated before relaying): hand the identical bytes to the next
    // replica. Same seq => same tag, so the tracker keys both copies to one
    // logical request.
    pr.target = (pr.target + 1) % targets_.size();
    const bool admitted = targets_[pr.target]->submit(
        encode_request(cfg_.client_id, pr.seq, cfg_.request_bytes));
    tracker_.on_retry(tag, now, admitted);
    ++retries_;
    pr.deadline = now + cfg_.retry_timeout;
  }
}

// ---- Open loop -------------------------------------------------------------

OpenLoopClient::OpenLoopClient(OpenLoopConfig cfg, std::vector<SubmitPort*> targets,
                               WorkloadTracker& tracker)
    : LoadClient(cfg.base, std::move(targets), tracker), ol_(cfg) {
  TBFT_ASSERT(ol_.rate_per_sec > 0);
}

double OpenLoopClient::current_rate() const {
  double rate = ol_.rate_per_sec;
  if (ol_.burst_period > 0 && ol_.burst_multiplier != 1.0) {
    const auto phase = static_cast<double>(ctx().now() % ol_.burst_period) /
                       static_cast<double>(ol_.burst_period);
    if (phase < ol_.burst_duty) rate *= ol_.burst_multiplier;
  }
  return rate;
}

runtime::Duration OpenLoopClient::interarrival() {
  const double mean_us = static_cast<double>(runtime::kSecond) / current_rate();
  double gap = mean_us;
  if (ol_.poisson) {
    // Exponential interarrival; 1 - u avoids log(0).
    gap = -std::log(1.0 - ctx().rng().uniform01()) * mean_us;
  }
  return std::max<runtime::Duration>(1, static_cast<runtime::Duration>(std::llround(gap)));
}

void OpenLoopClient::on_start() {
  const runtime::Duration lead = std::max<runtime::Duration>(0, cfg_.start - ctx().now());
  ctx().set_timer(lead + interarrival());
}

void OpenLoopClient::on_client_timer(runtime::TimerId) {
  if (ctx().now() >= cfg_.stop) return;  // window closed; generator done
  submit_one();
  ctx().set_timer(interarrival());
}

// ---- Closed loop -----------------------------------------------------------

ClosedLoopClient::ClosedLoopClient(ClosedLoopConfig cfg, std::vector<SubmitPort*> targets,
                                   WorkloadTracker& tracker)
    : LoadClient(cfg.base, std::move(targets), tracker), cl_(cfg) {
  TBFT_ASSERT(cl_.outstanding > 0);
}

void ClosedLoopClient::on_committed(std::uint64_t tag) {
  LoadClient::on_committed(tag);
  // A commit funds the replacement request. Submission is deferred to a
  // zero-delay timer so it runs as its own event, outside the finalizing
  // node's call stack.
  if (ctx().now() >= cfg_.stop) return;
  ++pending_;
  ctx().set_timer(0);
}

void ClosedLoopClient::on_start() {
  pending_ = cl_.outstanding;
  ctx().set_timer(std::max<runtime::Duration>(0, cfg_.start - ctx().now()));
}

void ClosedLoopClient::on_client_timer(runtime::TimerId) {
  if (ctx().now() >= cfg_.stop) return;
  while (pending_ > 0) {
    if (!submit_one()) {
      // Mempool backpressure: keep the slot and retry after a backoff.
      ctx().set_timer(cl_.retry_delay);
      return;
    }
    --pending_;
  }
}

}  // namespace tbft::workload
