#include "core/node.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace tbft::core {

TetraNode::TetraNode(TetraConfig cfg) : cfg_(cfg), qp_(cfg.quorum_params()) {}

void TetraNode::on_start() {
  const auto n = cfg_.n;
  decide_claimed_.assign(n, false);
  vc_highest_.assign(n, kNoView);
  for (auto& per_phase : votes_) per_phase.assign(n, std::nullopt);
  suggests_.assign(n, std::nullopt);
  proofs_.assign(n, std::nullopt);
  view_ = -1;  // so enter_view(0) is an entry, not a re-entry
  enter_view(0);
}

void TetraNode::on_message(NodeId from, const Payload& payload) {
  // Decode-once fast path: a broadcast carries its decoded form beside the
  // bytes (attached by the encoder of those exact bytes, so it cannot
  // disagree with them); every receiver after the first re-parses nothing.
  if (const Message* cached = payload.cached<Message>()) {
    std::visit([this, from](const auto& m) { handle(from, m); }, *cached);
    return;
  }
  if (payload.empty()) return;
  if (payload.front() == Decide::kTag) {
    serde::Reader r(payload.bytes());
    r.u8();
    const Decide d = Decide::decode(r);
    if (r.done()) handle_decide(from, d);
    return;
  }
  const auto msg = decode_message(payload.bytes());
  if (!msg) {
    ctx().metrics().counter("core.malformed").add();
    return;
  }
  std::visit([this, from](const auto& m) { handle(from, m); }, *msg);
}

void TetraNode::on_timer(runtime::TimerId id) {
  if (id != view_timer_) return;
  if (decision_) return;  // a decided node no longer initiates view changes
  // Initiate (or retransmit) the view change for the next view; the timer is
  // re-armed so pre-GST losses are eventually overcome by retransmission.
  const View target = std::max(view_ + 1, highest_vc_sent_);
  initiate_view_change(target);
  view_timer_ = ctx().set_timer(cfg_.view_timeout());
}

void TetraNode::initiate_view_change(View target) {
  TBFT_ASSERT(target > view_);
  highest_vc_sent_ = std::max(highest_vc_sent_, target);
  ctx().metrics().counter("core.viewchange.sent").add();
  broadcast_msg(ViewChange{target});
}

void TetraNode::enter_view(View v) {
  TBFT_ASSERT_MSG(v > view_, "views are strictly increasing");
  view_ = v;
  proposal_.reset();
  proposed_ = false;
  sent_phase_ = {};
  for (auto& per_phase : votes_) {
    per_phase.assign(cfg_.n, std::nullopt);
  }
  suggests_.assign(cfg_.n, std::nullopt);
  proofs_.assign(cfg_.n, std::nullopt);

  if (view_timer_ != 0) ctx().cancel_timer(view_timer_);
  view_timer_ = ctx().set_timer(cfg_.view_timeout());

  if (v > 0) {
    // Step 1 of the view: broadcast proof, send suggest to the new leader.
    broadcast_msg(make_proof_msg(v));
    send_msg(leader_of(v), make_suggest_msg(v));
  }
  try_propose();
  replay_buffered();
}

void TetraNode::try_propose() {
  if (!is_leader() || proposed_) return;
  std::optional<Value> value;
  if (view_ == 0) {
    value = cfg_.initial_value;  // all values are safe in view 0
  } else {
    std::vector<SuggestFrom> suggests;
    for (NodeId p = 0; p < cfg_.n; ++p) {
      if (suggests_[p]) suggests.push_back(SuggestFrom{p, *suggests_[p]});
    }
    value = leader_find_safe_value(qp_, view_, cfg_.initial_value, suggests);
  }
  if (!value) return;
  proposed_ = true;
  do_propose(*value);
}

void TetraNode::do_propose(Value value) { broadcast_msg(Proposal{view_, value}); }

void TetraNode::try_vote1() {
  if (sent_phase_[0] || !proposal_) return;
  if (view_ != 0) {
    std::vector<ProofFrom> proofs;
    for (NodeId p = 0; p < cfg_.n; ++p) {
      if (proofs_[p]) proofs.push_back(ProofFrom{p, *proofs_[p]});
    }
    if (!proposal_is_safe(qp_, view_, *proposal_, proofs)) return;
  }
  send_vote(1, *proposal_);
}

void TetraNode::send_vote(int phase, Value value) {
  TBFT_ASSERT(phase >= 1 && phase <= 4);
  TBFT_ASSERT(!sent_phase_[phase - 1]);
  sent_phase_[phase - 1] = true;
  record_.record(phase, view_, value);
  do_broadcast_vote(phase, value);
}

void TetraNode::do_broadcast_vote(int phase, Value value) {
  broadcast_msg(Vote{static_cast<std::uint8_t>(phase), view_, value});
}

void TetraNode::decide(Value value) {
  if (decision_) return;
  decision_ = value;
  ctx().metrics().counter("core.decided").add();
  ctx().publish_commit(0, value);
}

void TetraNode::handle(NodeId from, const Proposal& p) {
  if (p.view > view_) {
    buffer_future(from, p, p.view, 0);
    return;
  }
  if (p.view != view_ || from != leader_of(view_) || proposal_) return;
  proposal_ = p.value;
  try_vote1();
}

void TetraNode::handle(NodeId from, const Vote& v) {
  if (v.view > view_) {
    buffer_future(from, v, v.view, v.phase);
    return;
  }
  if (v.view != view_) return;
  auto& slot = votes_[v.phase - 1][from];
  if (slot) return;  // one vote per sender per phase; equivocations ignored
  slot = VoteRef{v.view, v.value};
  check_vote_quorum(v.phase, v.value);
}

void TetraNode::check_vote_quorum(int phase, Value value) {
  std::size_t count = 0;
  for (const auto& slot : votes_[phase - 1]) {
    if (slot && slot->value == value) ++count;
  }
  if (!qp_.is_quorum(count)) return;
  if (phase < 4) {
    if (!sent_phase_[phase]) send_vote(phase + 1, value);
  } else {
    decide(value);
  }
}

void TetraNode::handle(NodeId from, const Suggest& s) {
  if (s.view > view_) {
    buffer_future(from, s, s.view, 0);
    return;
  }
  if (s.view != view_ || !is_leader()) return;
  if (suggests_[from]) return;
  suggests_[from] = s;
  try_propose();
}

void TetraNode::handle(NodeId from, const Proof& p) {
  if (p.view > view_) {
    buffer_future(from, p, p.view, 0);
    return;
  }
  if (p.view != view_) return;
  if (proofs_[from]) return;
  proofs_[from] = p;
  try_vote1();
}

void TetraNode::handle(NodeId from, const ViewChange& vc) {
  // Help stragglers: a decided node answers any view-change with its
  // decision (the catch-up completion described in node.hpp).
  if (decision_ && from != ctx().id()) {
    scratch_.clear();
    Decide{*decision_}.encode(scratch_);
    ctx().send(from, Payload::freeze(scratch_));
  }
  if (vc.view <= vc_highest_[from]) return;
  vc_highest_[from] = vc.view;

  // kth_highest(k): the k-th largest per-sender view-change view. k senders
  // support entering every view up to that value.
  auto kth_highest = [this](std::size_t k) {
    std::vector<View> sorted(vc_highest_.begin(), vc_highest_.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    return sorted[k - 1];
  };

  // Echo rule: a blocking set asking for view w (or higher) makes every node
  // join, unless it already sent a view-change for w or higher.
  const View echo_target = kth_highest(qp_.blocking_size());
  if (echo_target > highest_vc_sent_ && echo_target > view_) {
    initiate_view_change(echo_target);
  }
  // Transition rule: a quorum asking for view w (or higher) enters w.
  const View enter_target = kth_highest(qp_.quorum_size());
  if (enter_target > view_) {
    enter_view(enter_target);
  }
}

void TetraNode::handle_decide(NodeId from, const Decide& d) {
  if (decision_ || decide_claimed_[from]) return;
  decide_claimed_[from] = true;
  auto& claimers = decide_claims_[d.value];
  claimers.insert(from);
  // f+1 claims contain a well-behaved decider; agreement makes adoption safe.
  if (qp_.is_blocking(claimers.size())) decide(d.value);
}

void TetraNode::buffer_future(NodeId from, const Message& m, View msg_view, int phase) {
  const auto tag = message_tag(m);
  const auto key = std::make_tuple(from, tag, phase);
  auto it = future_.find(key);
  if (it != future_.end() && it->second.first >= msg_view) return;
  future_[key] = {msg_view, m};
}

void TetraNode::replay_buffered() {
  std::vector<std::pair<NodeId, Message>> ready;
  for (auto it = future_.begin(); it != future_.end();) {
    if (it->second.first == view_) {
      ready.emplace_back(std::get<0>(it->first), it->second.second);
      it = future_.erase(it);
    } else if (it->second.first < view_) {
      it = future_.erase(it);  // stale
    } else {
      ++it;
    }
  }
  for (auto& [from, msg] : ready) {
    std::visit([this, sender = from](const auto& m) { handle(sender, m); }, msg);
  }
}

}  // namespace tbft::core
