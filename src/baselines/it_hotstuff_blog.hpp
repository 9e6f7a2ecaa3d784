#pragma once
// IT-HS "blog version" (Abraham & Stern, decentralizedthoughts 2021): the
// non-responsive Table 1 row. Four in-view phases (propose, echo, accept,
// lock -- good-case latency 4 message delays, the best of the
// unauthenticated protocols) but the new leader must wait a fixed
// 2*Delta period after a view change before proposing, so it hears from
// *every* well-behaved node rather than just a quorum. When the actual
// delay delta << Delta, that wait dominates recovery -- the responsiveness
// gap bench_table1's responsiveness column measures.

#include <array>
#include <map>
#include <optional>
#include <set>

#include "baselines/common.hpp"

namespace tbft::baselines {

enum class BlogMsg : std::uint8_t {
  Proposal = 31,
  Phase = 32,  // echo=1, accept=2, lock=3
  Suggest = 33,
  ViewChange = 34,
  Decide = 35,
};

class ItHotStuffBlogNode : public runtime::ProtocolNode {
 public:
  static constexpr int kEcho = 1, kLock = 3, kPhases = 3;

  explicit ItHotStuffBlogNode(BaselineConfig cfg) : cfg_(cfg), qp_(cfg.quorum_params()) {}

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
  void propose_after_wait();
  void try_echo();
  void send_phase(int phase, Value value);
  void decide(Value value);
  void initiate_view_change(View target);

  BaselineConfig cfg_;
  QuorumParams qp_;

  VoteRef lock_;
  VoteRef key_;  // echo record, used by the unlock rule
  View view_{0};
  View highest_vc_sent_{kNoView};
  std::optional<Value> decision_;

  std::optional<Value> proposal_;
  bool proposed_{false};
  std::array<bool, kPhases> sent_{};
  std::array<VoteTally, kPhases> tally_;
  std::vector<std::optional<std::pair<VoteRef, VoteRef>>> suggests_;  // (lock, key)
  ViewChangeCounter vc_;
  std::vector<bool> decide_claimed_;
  std::map<Value, std::set<NodeId>> decide_claims_;
  runtime::TimerId view_timer_{0};
  runtime::TimerId propose_timer_{0};  // the non-responsive leader wait
};

}  // namespace tbft::baselines
