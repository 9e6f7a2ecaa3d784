#include "shard/mux.hpp"

namespace tbft::shard {

ShardMux::ShardMux(std::vector<std::unique_ptr<multishot::MultishotNode>> instances)
    : instances_(std::move(instances)) {
  assert(!instances_.empty());
  // Bind every instance to its adapter NOW: the adapters reach the outer
  // context lazily (at call time), so inner nodes can serve pre-start
  // seeding (submit through a bound host) the moment the mux itself is
  // bound by add_node -- matching a bare MultishotNode's contract.
  const auto shards = instances_.size();
  hosts_.reserve(shards);
  for (std::uint32_t k = 0; k < shards; ++k) {
    assert(instances_[k] != nullptr);
    assert(instances_[k]->config().n == instances_.front()->config().n);
    hosts_.emplace_back(*this, k);
    instances_[k]->bind(hosts_.back());
  }
}

ShardMux::~ShardMux() = default;

void ShardMux::on_start() {
  // Fork the per-shard rng streams in shard order (deterministic for a
  // given outer stream regardless of backend), then start instances in
  // shard order.
  rngs_.reserve(instances_.size());
  for (std::uint32_t k = 0; k < instances_.size(); ++k) {
    rngs_.push_back(ctx().rng().fork());
  }
  for (auto& instance : instances_) instance->on_start();
}

void ShardMux::on_message(NodeId from, const Payload& payload) {
  // Route by the sender-attached shard tag. Untagged traffic (route 0)
  // lands on shard 0 by construction; an out-of-range tag can only come
  // from a faulty peer and is dropped.
  const std::uint32_t shard = payload.route();
  if (shard >= instances_.size()) return;
  instances_[shard]->on_message(from, payload);
}

void ShardMux::on_timer(runtime::TimerId id) {
  const auto it = timer_shard_.find(id);
  if (it == timer_shard_.end()) return;  // cancelled-vs-fired race or stale id
  const std::uint32_t shard = it->second;
  timer_shard_.erase(it);
  instances_[shard]->on_timer(id);
}

}  // namespace tbft::shard
