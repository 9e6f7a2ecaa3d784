#include "multishot/leader_schedule.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace tbft::multishot {

Slot LeaderSchedule::lag_point(Slot s) const noexcept {
  const Slot y = s > kScheduleLag ? s - kScheduleLag : 0;
  return std::clamp(y, floor(), tip_);
}

bool LeaderSchedule::skipped_at(Slot y, NodeId j) const noexcept {
  bool in = std::binary_search(skipped_.begin(), skipped_.end(), j);
  for (auto it = toggles_.rbegin(); it != toggles_.rend() && it->slot > y; ++it) {
    if (it->node == j) in = !in;
  }
  return in;
}

std::uint32_t LeaderSchedule::skip_count_at(Slot y) const noexcept {
  // Undo the toggles newer than y, newest first: each flips its node's
  // membership as it stood right after the toggle.
  auto count = static_cast<std::uint32_t>(skipped_.size());
  for (auto it = toggles_.rbegin(); it != toggles_.rend() && it->slot > y; ++it) {
    if (skipped_at(it->slot, it->node)) {
      --count;
    } else {
      ++count;
    }
  }
  return count;
}

NodeId LeaderSchedule::next_candidate(Slot y, NodeId from) const noexcept {
  // At most f nodes are skipped at any lag point (read() and apply() keep
  // it so), so the walk ends within f + 1 steps.
  NodeId x = from;
  while (skipped_at(y, x)) x = (x + 1) % n_;
  return x;
}

bool LeaderSchedule::probe_stripe(Slot s) const noexcept {
  // A node leads every n-th stripe; the first of its stripes in each run of
  // kProbePeriod / (n * depth) is its probe.
  const std::uint64_t stripe = (s + depth_ - 1) / depth_;
  const std::uint64_t per_period =
      std::max<std::uint64_t>(1, kProbePeriod / (static_cast<std::uint64_t>(n_) * depth_));
  return (stripe / n_) % per_period == 0;
}

NodeId LeaderSchedule::leader_at(Slot y, Slot s, View v) const {
  TBFT_ASSERT(n_ > 0);
  NodeId x = rotation_leader(s, 0, n_, depth_);
  auto steps = static_cast<std::uint64_t>(v);
  if (skipped_at(y, x)) {
    if (probe_stripe(s)) {
      if (steps == 0) return x;
      --steps;  // views past the probe walk the candidates after it
    }
    x = next_candidate(y, x);
  }
  if (steps == 0) return x;
  const std::uint32_t candidates = n_ - skip_count_at(y);
  for (steps %= candidates; steps > 0; --steps) x = next_candidate(y, (x + 1) % n_);
  return x;
}

void LeaderSchedule::toggle(Slot x, NodeId j) {
  const auto it = std::lower_bound(skipped_.begin(), skipped_.end(), j);
  if (it != skipped_.end() && *it == j) {
    skipped_.erase(it);
  } else {
    skipped_.insert(it, j);
  }
  toggles_.push_back({x, j});
}

LeaderSchedule::Outcome LeaderSchedule::apply(Slot x, NodeId proposer) {
  if (n_ == 0) return Outcome::kLed;
  TBFT_ASSERT(x == tip_ + 1);
  // The view-0 leader of x as every replica computed it: from the lag
  // point of x, which is this state's floor.
  const Slot y = lag_point(x);
  const NodeId leader = leader_at(y, x, 0);
  const bool probe = skipped_at(y, leader);
  const bool skipped_now = std::binary_search(skipped_.begin(), skipped_.end(), leader);
  const bool collateral = tip_failed_;
  tip_ = x;
  tip_failed_ = proposer != leader;
  Outcome out = Outcome::kLed;
  if (probe) {
    // A probe that finalized readmits its node (an earlier slot of the same
    // probe stripe may have done so already).
    out = Outcome::kProbe;
    if (proposer == leader && skipped_now) {
      toggle(x, leader);
      out = Outcome::kReadmitted;
    }
  } else if (proposer != leader) {
    out = Outcome::kFailed;
    if (!collateral && !skipped_now && skipped_.size() < f_) {
      toggle(x, leader);
      out = Outcome::kSkipped;
    }
  }
  const Slot lo = floor();
  const auto keep = std::find_if(toggles_.begin(), toggles_.end(),
                                 [lo](const Toggle& t) { return t.slot > lo; });
  toggles_.erase(toggles_.begin(), keep);
  return out;
}

void LeaderSchedule::encode(serde::Writer& w) const {
  w.varint(skipped_.size());
  for (const NodeId j : skipped_) w.varint(j);
  w.varint(toggles_.size());
  for (const Toggle& t : toggles_) {
    w.varint(tip_ - t.slot);
    w.varint(t.node);
  }
  w.u8(tip_failed_ ? 1 : 0);
}

bool LeaderSchedule::read(serde::Reader& r, Slot at) {
  LeaderSchedule fresh = empty_at(at);
  const std::uint64_t skips = r.varint();
  if (!r.ok() || skips > f_) return false;
  for (std::uint64_t i = 0; i < skips; ++i) {
    const std::uint64_t j = r.varint();
    if (!r.ok() || j >= n_ || (!fresh.skipped_.empty() && j <= fresh.skipped_.back())) {
      return false;
    }
    fresh.skipped_.push_back(static_cast<NodeId>(j));
  }
  const std::uint64_t toggles = r.varint();
  // Every covered slot holds at most one toggle.
  if (!r.ok() || toggles > at - fresh.floor()) return false;
  for (std::uint64_t i = 0; i < toggles; ++i) {
    const std::uint64_t back = r.varint();
    const std::uint64_t j = r.varint();
    if (!r.ok() || back >= at - fresh.floor() || j >= n_) return false;
    const Slot slot = at - back;
    if (!fresh.toggles_.empty() && slot <= fresh.toggles_.back().slot) return false;
    fresh.toggles_.push_back({slot, static_cast<NodeId>(j)});
  }
  const std::uint8_t tip_failed = r.u8();
  if (!r.ok() || tip_failed > 1) return false;
  fresh.tip_failed_ = tip_failed == 1;
  // No lag point the state covers may skip more than f nodes.
  for (const Toggle& t : fresh.toggles_) {
    if (fresh.skip_count_at(t.slot - 1) > f_) return false;
  }
  *this = std::move(fresh);
  return true;
}

}  // namespace tbft::multishot
