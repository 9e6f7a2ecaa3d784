#pragma once
// Information-Theoretic HotStuff (Abraham & Stern, arXiv:2009.12828), the
// paper's closest competitor in Table 1: optimistically responsive,
// constant storage, O(n^2) communication -- but 6 message delays in the
// good case (propose, echo, key1, key2, key3, lock) against TetraBFT's 5,
// and 9 with a view change (view-change, request, status, then the six
// in-view phases) against TetraBFT's 7.
//
// Fidelity note: the phase structure, responsiveness
// mechanism (the new leader acts on n-f status messages, never on a timer),
// lock/key safety shape and message/storage complexity match the original;
// the status-verification details are simplified to the lock/unlock rule
// below. Agreement holds in every scenario the test suite drives.

#include <array>
#include <map>
#include <optional>
#include <set>

#include "baselines/common.hpp"

namespace tbft::baselines {

enum class ItMsg : std::uint8_t {
  Proposal = 21,
  Phase = 22,    // echo=1, key1=2, key2=3, key3=4, lock=5
  Status = 23,   // view-change status: own lock and key1 records
  Request = 24,  // new leader requests statuses
  ViewChange = 25,
  Decide = 26,
};

class ItHotStuffNode : public runtime::ProtocolNode {
 public:
  static constexpr int kEcho = 1, kKey1 = 2, kKey3 = 4, kLock = 5, kPhases = 5;

  explicit ItHotStuffNode(BaselineConfig cfg) : cfg_(cfg), qp_(cfg.quorum_params()) {}

  void on_start() override;
  void on_message(NodeId from, const Payload& payload) override;
  void on_timer(runtime::TimerId id) override;

  [[nodiscard]] const std::optional<Value>& decision() const noexcept { return decision_; }
  [[nodiscard]] View current_view() const noexcept { return view_; }
  [[nodiscard]] std::size_t persistent_bytes() const noexcept {
    return sizeof(VoteRef) * 2 + sizeof(View) * 2 + sizeof(Value);
  }
  [[nodiscard]] const BaselineConfig& config() const noexcept { return cfg_; }

 private:
  void enter_view(View v);
  void try_propose();
  void try_echo();
  void send_phase(int phase, Value value);
  void decide(Value value);
  void initiate_view_change(View target);
  [[nodiscard]] bool value_safe_to_echo(Value value) const;

  BaselineConfig cfg_;
  QuorumParams qp_;

  // Persistent (constant) state.
  VoteRef lock_;  // set when sending a lock vote
  VoteRef key1_;  // set when sending a key1 vote
  View view_{0};
  View highest_vc_sent_{kNoView};
  std::optional<Value> decision_;

  // Per-view transient state.
  std::optional<Value> proposal_;
  bool proposed_{false};
  std::array<bool, kPhases> sent_{};
  std::array<VoteTally, kPhases> tally_;
  std::vector<std::optional<std::pair<VoteRef, VoteRef>>> statuses_;  // (lock, key1) per sender
  ViewChangeCounter vc_;
  std::vector<bool> decide_claimed_;
  std::map<Value, std::set<NodeId>> decide_claims_;
  runtime::TimerId timer_{0};
};

}  // namespace tbft::baselines
