#pragma once
// Adversarial building blocks:
//  - SilentNode: a crashed / perpetually silent participant (the classic
//    "f silent nodes" fault load);
//  - RandomJunkNode: spews malformed bytes and random garbage, exercising
//    every decoder's total-input handling;
//  - SlowLorisLeader: otherwise honest, but withholds every proposal until
//    just before the victims' view timers would fire -- the worst-case
//    "technically live" leader the responsiveness claim has to survive;
//  - ViewChangeEquivocator: honest in view 0, equivocates its re-proposals
//    during view change (two blocks to two random halves) -- targeting the
//    suggest/proof recovery path where value stability is earned;
//  - network adversary factories: partition-until-GST and targeted-delay
//    schedules for the Network's AdversaryHook.

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "multishot/node.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"

namespace tbft::sim {

/// Does nothing, ever (a crash fault, the weakest Byzantine behavior).
class SilentNode final : public ProtocolNode {
 public:
  void on_start() override {}
  void on_message(NodeId, const Payload&) override {}
  void on_timer(TimerId) override {}
};

/// Periodically broadcasts random byte strings. Honest decoders must treat
/// them as malformed and survive.
class RandomJunkNode final : public ProtocolNode {
 public:
  explicit RandomJunkNode(SimTime period) : period_(period) {}

  void on_start() override { ctx().set_timer(period_); }
  void on_message(NodeId, const Payload&) override {}
  void on_timer(TimerId) override {
    auto& rng = ctx().rng();
    std::vector<std::uint8_t> junk(rng.index(64) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    ctx().broadcast(std::move(junk));
    ctx().set_timer(period_);
  }

 private:
  SimTime period_;
};

/// Otherwise honest multishot replica that sits on every proposal (its own
/// slots only) for `hold` before broadcasting -- a slow-loris leader. With
/// hold near view_timeout() - 2 * Delta the proposal lands at the timeout
/// edge: honest replicas must neither finalize a wrong branch (safety) nor
/// wedge (liveness) when leadership is this grudging. Counts toward f in
/// fault budgets: it can stall its led slots for a view.
class SlowLorisLeader : public multishot::MultishotNode {
 public:
  SlowLorisLeader(multishot::MultishotConfig cfg, runtime::Duration hold)
      : MultishotNode(cfg), hold_(hold) {}

  void on_timer(runtime::TimerId id) override {
    if (const auto it = pending_.find(id); it != pending_.end()) {
      const multishot::MsProposal m = it->second;
      pending_.erase(it);
      broadcast_ms(m);
      return;
    }
    MultishotNode::on_timer(id);  // foreign ids are ignored safely by the base
  }

 protected:
  void do_propose(Slot s, View v, const multishot::Block& block) override {
    pending_.emplace(ctx().set_timer(hold_), multishot::MsProposal{s, v, block});
  }

 private:
  runtime::Duration hold_;
  std::map<runtime::TimerId, multishot::MsProposal> pending_;
};

/// Honest in view 0; once a view change puts it back in charge of a slot, it
/// re-proposes two different blocks to two halves of the network, with the
/// cut drawn per proposal from its seeded RNG (targeted equivocation: the
/// split lands differently every view, hunting for a quorum-overlap seam).
class ViewChangeEquivocator : public multishot::MultishotNode {
 public:
  explicit ViewChangeEquivocator(multishot::MultishotConfig cfg) : MultishotNode(cfg) {}

 protected:
  void do_propose(Slot s, View v, const multishot::Block& block) override {
    if (v == 0) {
      MultishotNode::do_propose(s, v, block);
      return;
    }
    multishot::Block alt = block;
    alt.payload.push_back(0xEE);  // different content, same parent
    const std::uint32_t n = config().n;
    const auto cut = static_cast<NodeId>(1 + ctx().rng().index(n - 1));
    for (NodeId dst = 0; dst < n; ++dst) {
      send_ms(dst, multishot::MsProposal{s, v, dst < cut ? block : alt});
    }
  }
};

/// Adversary hook: before GST, drop every message crossing the partition
/// between `group_a` and its complement; after GST the hook defers to the
/// stochastic model (returns nullopt).
AdversaryHook make_partition_until_gst(std::vector<NodeId> group_a, SimTime gst);

/// Adversary hook: drop (pre-GST only) every message whose type tag is in
/// `tags` and whose destination is in `victims`.
AdversaryHook make_selective_drop(std::vector<std::uint8_t> tags, std::vector<NodeId> victims,
                                  SimTime gst);

}  // namespace tbft::sim
