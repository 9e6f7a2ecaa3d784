#pragma once
// Shared machinery for the Table 1 baseline protocols (IT-HS, IT-HS blog
// version, PBFT). Every baseline runs on the same simulator, network model
// and serialization as TetraBFT, so latency / byte / storage measurements
// are apples-to-apples.

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/messages.hpp"  // reuses VoteRef as (view, value) record
#include "runtime/host.hpp"

namespace tbft::baselines {

using core::VoteRef;

/// Monotone per-sender view-change counting (same scheme as TetraNode in
/// core/node.hpp): a view-change for view w supports every view <= w.
class ViewChangeCounter {
 public:
  void reset(std::uint32_t n) { highest_.assign(n, kNoView); }

  /// Returns false if the message is stale for this sender.
  bool observe(NodeId from, View view) {
    if (view <= highest_[from]) return false;
    highest_[from] = view;
    return true;
  }

  /// The k-th largest per-sender view: k senders support entering any view
  /// up to this value.
  [[nodiscard]] View kth_highest(std::size_t k) const {
    std::vector<View> sorted(highest_.begin(), highest_.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    return sorted[k - 1];
  }

 private:
  std::vector<View> highest_;
};

/// Per-sender-deduplicated vote tally for one (phase) of the current view:
/// first vote per sender wins, counts per value on demand. O(n) state.
class VoteTally {
 public:
  void reset(std::uint32_t n) { votes_.assign(n, std::nullopt); }

  /// Returns false on duplicate.
  bool record(NodeId from, Value value) {
    if (votes_[from]) return false;
    votes_[from] = value;
    return true;
  }

  [[nodiscard]] std::size_t count(Value value) const {
    std::size_t c = 0;
    for (const auto& v : votes_) {
      if (v && *v == value) ++c;
    }
    return c;
  }

  /// Ids of the senders that voted for `value` (PBFT certificates carry
  /// their O(n) voter list on the wire).
  [[nodiscard]] std::vector<NodeId> voters(Value value) const {
    std::vector<NodeId> out;
    for (NodeId p = 0; p < votes_.size(); ++p) {
      if (votes_[p] && *votes_[p] == value) out.push_back(p);
    }
    return out;
  }

 private:
  std::vector<std::optional<Value>> votes_;
};

struct BaselineConfig {
  std::uint32_t n{4};
  std::uint32_t f{1};
  runtime::Duration delta_bound{10 * runtime::kMillisecond};
  std::uint32_t timeout_delta_multiple{10};
  Value initial_value{1};

  [[nodiscard]] QuorumParams quorum_params() const { return {n, f}; }
  [[nodiscard]] runtime::Duration view_timeout() const {
    return static_cast<runtime::Duration>(timeout_delta_multiple) * delta_bound;
  }
  [[nodiscard]] NodeId leader_of(View v) const {
    return static_cast<NodeId>(static_cast<std::uint64_t>(v) % n);
  }
};

}  // namespace tbft::baselines
