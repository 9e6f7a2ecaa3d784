#pragma once
// The Basic TetraBFT node (paper §3.2): a sequence of views, each with a
// round-robin leader, seven phases (suggest/proof, proposal, vote-1..4,
// view-change) and a decision on a quorum of vote-4.
//
// Two well-known engineering completions the paper's pseudocode leaves
// implicit are implemented here:
//  - messages for a *future* view are buffered (bounded: the latest message
//    per sender and kind) and replayed when the view is entered, since view
//    entry can be skewed by up to 2*Delta across honest nodes;
//  - a node that already decided answers view-change messages with a Decide
//    notice; f+1 matching notices let a straggler adopt the decision
//    (at least one notice is from a well-behaved node, and agreement makes
//    all well-behaved decisions equal).
//
// Byzantine test doubles subclass this node and override the do_* hooks.

#include <array>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/rules.hpp"
#include "core/vote_record.hpp"
#include "runtime/host.hpp"

namespace tbft::core {

/// Decision catch-up notice (see the file comment); tag value continues MsgType.
struct Decide {
  Value value{};

  friend bool operator==(const Decide&, const Decide&) = default;

  static constexpr std::uint8_t kTag = 6;
  void encode(serde::Writer& w) const {
    w.u8(kTag);
    w.u64(value.id);
  }
  static Decide decode(serde::Reader& r) {
    Decide d;
    d.value.id = r.u64();
    return d;
  }
};

class TetraNode : public runtime::ProtocolNode {
 public:
  explicit TetraNode(TetraConfig cfg);

  void on_start() override;
  void on_message(NodeId from, const Payload& payload) override;
  void on_timer(runtime::TimerId id) override;

  [[nodiscard]] const std::optional<Value>& decision() const noexcept { return decision_; }
  [[nodiscard]] View current_view() const noexcept { return view_; }
  [[nodiscard]] const VoteRecord& vote_record() const noexcept { return record_; }
  [[nodiscard]] const TetraConfig& config() const noexcept { return cfg_; }

  /// Upper bound on this node's persistent storage (constant-storage claim).
  [[nodiscard]] std::size_t persistent_bytes() const noexcept {
    return record_.persistent_bytes() + sizeof(View) * 2 + sizeof(Value);
  }

 protected:
  // --- Hooks Byzantine subclasses override. Defaults follow the protocol. ---
  virtual void do_propose(Value value);
  virtual void do_broadcast_vote(int phase, Value value);
  virtual Suggest make_suggest_msg(View view) { return record_.make_suggest(view); }
  virtual Proof make_proof_msg(View view) { return record_.make_proof(view); }
  /// Leader path: determine a safe value (Rule 1) and propose it.
  virtual void try_propose();

  /// One encode into the reusable scratch writer, n-way shared payload, and
  /// the decoded message cached beside the bytes (receivers skip re-parsing).
  void broadcast_msg(const Message& m) {
    ctx().broadcast(encode_payload(m, scratch_, /*cache_decoded=*/true));
  }
  /// Point-to-point sends carry bytes only: the total-decode path stays the
  /// sole input channel for anything that is not a shared broadcast.
  void send_msg(NodeId dst, const Message& m) {
    ctx().send(dst, encode_payload(m, scratch_, /*cache_decoded=*/false));
  }

  [[nodiscard]] NodeId leader_of(View v) const { return cfg_.leader_of(v); }
  [[nodiscard]] bool is_leader() const { return leader_of(view_) == ctx().id(); }
  [[nodiscard]] bool already_proposed() const noexcept { return proposed_; }
  void mark_proposed() noexcept { proposed_ = true; }

 private:
  void enter_view(View v);
  void try_vote1();
  void send_vote(int phase, Value value);
  void decide(Value value);
  void initiate_view_change(View target);

  void handle(NodeId from, const Proposal& p);
  void handle(NodeId from, const Vote& v);
  void handle(NodeId from, const Suggest& s);
  void handle(NodeId from, const Proof& p);
  void handle(NodeId from, const ViewChange& vc);
  void handle_decide(NodeId from, const Decide& d);

  void buffer_future(NodeId from, const Message& m, View msg_view, int phase);
  void replay_buffered();
  void check_vote_quorum(int phase, Value value);

  TetraConfig cfg_;
  QuorumParams qp_;

  // Persistent state (constant size).
  VoteRecord record_;
  View view_{0};
  View highest_vc_sent_{kNoView};
  std::optional<Value> decision_;

  // Per-view transient state, all O(n).
  std::optional<Value> proposal_;
  bool proposed_{false};
  std::array<bool, 4> sent_phase_{};
  std::array<std::vector<std::optional<VoteRef>>, 4> votes_;  // [phase-1][sender]
  std::vector<std::optional<Suggest>> suggests_;              // leader only
  std::vector<std::optional<Proof>> proofs_;

  // View-change bookkeeping: highest view-change view seen per sender.
  // A view-change for view w supports entering every view <= w (monotone
  // counting), which keeps storage at O(n) and -- unlike literal
  // exact-view counting -- cannot deadlock when pre-GST losses scatter
  // honest nodes across views.
  std::vector<View> vc_highest_;

  // Decision catch-up claims (first per sender).
  std::map<Value, std::set<NodeId>> decide_claims_;
  std::vector<bool> decide_claimed_;

  // Bounded future-view message buffer: key (sender, type tag, vote phase).
  std::map<std::tuple<NodeId, std::uint8_t, int>, std::pair<View, Message>> future_;

  // Reusable encode scratch: grows to the high-water message size once,
  // then every encode is a single freeze (see encode_payload).
  serde::Writer scratch_;

  runtime::TimerId view_timer_{0};
};

}  // namespace tbft::core
