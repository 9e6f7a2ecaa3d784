#pragma once
// View-0 leader reputation over finalized history (DESIGN_PERF.md "Leader
// reputation"), in the style of "Be Aware of Your Leaders" (Cohen et al.,
// FC 2022).
//
// The base schedule is the striped rotation (rotation_leader): a crashed
// node would lead every n-th stripe at view 0 forever and each of its
// slots would wait out a full view timeout. This schedule skips such a
// node:
//
//  - failed lead: a finalized block at slot x whose proposer is not the
//    schedule's view-0 leader of x. The failing leader joins the skip set,
//    which never holds more than f nodes (so at least n - f candidates
//    remain). A failure right after a failed slot is not blamed: the view
//    change of slot x - 1 drags along the successors already started (their
//    leaders proposed on receipt of x - 1's proposal), so an honest leader
//    would otherwise take the blame for an equivocating predecessor;
//  - skip: a skipped node's stripe goes to the next node that is not
//    skipped; views > 0 walk the candidates from there, so every view of a
//    slot names a different node until the candidates run out;
//  - probe: a skipped node still leads one view-0 stripe of its own every
//    kProbePeriod slots, and leaves the skip set when a probe slot
//    finalizes with it as proposer. There is no expiry;
//  - lag: the schedule of slot s reads only the skip set as of slot
//    s - kScheduleLag. A replica handles slot s only while s <=
//    first_unfinalized + ChainStore::kWindow, so it has finalized every slot
//    the schedule reads: all replicas agree on each slot's leaders. Leader
//    choice affects liveness only; safety never reads it.
//
// State: the skip set at the tip plus the toggles of the last kScheduleLag
// slots, so the skip set at any lag point the window can ask for is the
// tip's set with the newer toggles undone. Both are O(f). The state is
// carried in the commit-state blob (FinalizedStore::encode_commit_state)
// in canonical form, so honest blobs at the same anchor are byte-identical.
// While no node is skipped, leader_of is exactly the base rotation.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"

namespace tbft::multishot {

/// The base rotation over pipeline stripes: slots are assigned in runs of
/// `depth` (stripe k = slots (k-1)*depth+1 .. k*depth) and views rotate the
/// stripe owner. Depth 1 is the classic (s + v) % n walk.
[[nodiscard]] constexpr NodeId rotation_leader(Slot s, View v, std::uint32_t n,
                                               std::uint32_t depth) noexcept {
  const std::uint64_t stripe = (s + depth - 1) / depth;
  return static_cast<NodeId>((stripe + static_cast<std::uint64_t>(v)) % n);
}

/// Schedule lag L: slot s reads failed leads at slots <= s - L. Equal to
/// ChainStore::kWindow + 1 (asserted in chain.hpp).
inline constexpr Slot kScheduleLag = 65;
/// Probe period P: a skipped node leads one view-0 stripe per P slots. The
/// dedup horizon (asserted in finalized_store.hpp): long enough that probing
/// a dead node costs one view timeout per ~4,096 slots.
inline constexpr Slot kProbePeriod = 4096;

class LeaderSchedule {
 public:
  /// What finalizing one slot did to the schedule.
  enum class Outcome : std::uint8_t {
    kLed,          // the view-0 leader proposed (or there is no schedule)
    kFailed,       // the view-0 leader failed: already skipped, set full, or collateral
    kSkipped,      // the view-0 leader failed and joined the skip set
    kProbe,        // a probe slot that left the skip set as it was
    kReadmitted,   // a probe slot finalized with its node as proposer
  };

  /// No schedule: bare stores (tests, benches) apply blocks as no-ops and
  /// carry an empty state. leader_of needs n > 0.
  LeaderSchedule() = default;
  LeaderSchedule(std::uint32_t n, std::uint32_t f, std::uint32_t depth)
      : n_(n), f_(n == 0 ? 0 : std::min(f, n - 1)), depth_(depth == 0 ? 1 : depth) {}

  /// Leader of (s, v) for a slot whose lag point the state still covers:
  /// s in [tip + 1, tip + L]. Outside it the lag point is clamped (callers
  /// check the window first). Inline: every proposal and vote path asks,
  /// and with nothing skipped the answer is the rotation.
  [[nodiscard]] NodeId leader_of(Slot s, View v) const {
    if (skipped_.empty() && toggles_.empty()) return rotation_leader(s, v, n_, depth_);
    return leader_at(lag_point(s), s, v);
  }

  /// Advance the state by finalized slot `x` (the tip + 1) with the block's
  /// proposer.
  Outcome apply(Slot x, NodeId proposer);

  /// The skip set at the tip, ascending.
  [[nodiscard]] std::span<const NodeId> skipped() const noexcept { return skipped_; }
  /// Same parameters, empty state at `tip` (a store restored without a
  /// commit state, or a version 2 checkpoint).
  [[nodiscard]] LeaderSchedule empty_at(Slot tip) const {
    LeaderSchedule s(n_, f_, depth_);
    s.tip_ = tip;
    return s;
  }

  /// Canonical encoding of the state at the tip: varint |skipped|, the
  /// skipped ids ascending (varint each), varint |toggles|, then each toggle
  /// as varint (tip - slot) and varint node, slots ascending, then u8 1 when
  /// the tip slot failed (0 otherwise).
  void encode(serde::Writer& w) const;
  /// Replace the state with one encode() wrote at `at`. Total: returns false
  /// and changes nothing on a truncated blob, a node id >= n, more than f
  /// skips at any covered slot, toggles out of order or outside the lag, a
  /// non-ascending skip set, or a tip flag other than 0 or 1. Trailing bytes
  /// are the caller's to refuse.
  bool read(serde::Reader& r, Slot at);

 private:
  struct Toggle {
    Slot slot{0};
    NodeId node{0};
  };

  /// Oldest lag point the state answers: that of slot tip + 1.
  [[nodiscard]] Slot floor() const noexcept {
    return tip_ + 1 > kScheduleLag ? tip_ + 1 - kScheduleLag : 0;
  }
  /// Lag point of slot s, clamped into [floor(), tip].
  [[nodiscard]] Slot lag_point(Slot s) const noexcept;
  [[nodiscard]] bool skipped_at(Slot y, NodeId j) const noexcept;
  [[nodiscard]] std::uint32_t skip_count_at(Slot y) const noexcept;
  [[nodiscard]] NodeId next_candidate(Slot y, NodeId from) const noexcept;
  [[nodiscard]] NodeId leader_at(Slot y, Slot s, View v) const;
  [[nodiscard]] bool probe_stripe(Slot s) const noexcept;
  void toggle(Slot x, NodeId j);

  std::uint32_t n_{0};
  std::uint32_t f_{0};
  std::uint32_t depth_{1};
  Slot tip_{0};
  std::vector<NodeId> skipped_;   // at the tip, ascending, <= f
  std::vector<Toggle> toggles_;   // slots in (floor(), tip], ascending
  bool tip_failed_{false};        // the tip slot's proposer was not its view-0 leader
};

}  // namespace tbft::multishot
