#pragma once
// ShardMux: S independent MultishotNode instances multiplexed over ONE
// shared runtime Host (DESIGN_PERF.md "Sharding").
//
// Every physical host runs one ShardMux; the mux owns one chain instance
// per shard and gives each a private Host adapter over the outer context:
//
//  - outgoing payloads are tagged with their shard index
//    (Payload::set_route, write-once before publication; SocketHost carries
//    it in the frame header), and incoming payloads are dispatched to the
//    instance whose index matches the tag. An untagged payload (route 0:
//    junk from a Byzantine peer, or traffic from an unsharded sender) lands
//    on shard 0, where the protocol's existing malformed-input handling
//    applies; a tag >= S is dropped.
//  - publish_commit rewrites the per-shard slot stream into the composite
//    `(shard << 48) | slot` stream (shard/router.hpp), so one commit
//    subscription observes all shards with both coordinates recoverable.
//  - timers set by instance k map outer TimerId -> k; fires and cancels
//    route back through that map, so S instances share the outer wheel
//    without observing each other's timers.
//  - each instance draws from its own Rng forked from the outer per-node
//    stream in shard order at on_start (deterministic across backends).
//  - metrics() forwards to the outer per-host registry: counters and
//    histograms aggregate across shards by construction, which is exactly
//    what cross-shard accounting wants (workload/tracker.hpp).
//
// The Host threading contract carries over untouched: the outer host
// serializes on_start/on_message/on_timer per physical node, so all S
// instances of one mux run on one logical strand and need no locking.

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "multishot/node.hpp"
#include "runtime/host.hpp"
#include "shard/router.hpp"

namespace tbft::shard {

class ShardMux final : public runtime::ProtocolNode {
 public:
  /// Takes ownership of one chain instance per shard (index = position).
  /// Instances may be Byzantine subclasses; all must share n and f.
  explicit ShardMux(std::vector<std::unique_ptr<multishot::MultishotNode>> instances);
  ~ShardMux() override;

  ShardMux(const ShardMux&) = delete;
  ShardMux& operator=(const ShardMux&) = delete;

  void on_start() override;
  void on_message(NodeId from, const Payload& payload) override;
  void on_timer(runtime::TimerId id) override;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(instances_.size());
  }
  /// Shard `shard`'s chain instance; throws std::out_of_range past S.
  [[nodiscard]] multishot::MultishotNode& instance(std::uint32_t shard) {
    return *instances_.at(shard);
  }
  [[nodiscard]] const multishot::MultishotNode& instance(std::uint32_t shard) const {
    return *instances_.at(shard);
  }

  /// Submit a transaction to one shard's chain instance. Same semantics and
  /// backpressure as MultishotNode::submit_tx; the caller routes
  /// (shard/router.hpp) so placement agrees with the tracker's ledger.
  bool submit(std::uint32_t shard, std::vector<std::uint8_t> tx) {
    assert(shard < instances_.size());
    return instances_[shard]->submit_tx(std::move(tx));
  }

 private:
  // Host adapter handed to instance `shard`; forwards to the mux's outer
  // context with route/stream/timer translation.
  class ShardHost final : public runtime::Host {
   public:
    ShardHost(ShardMux& mux, std::uint32_t shard) : mux_(mux), shard_(shard) {}

    [[nodiscard]] NodeId id() const override { return mux_.ctx().id(); }
    [[nodiscard]] std::uint32_t n() const override { return mux_.ctx().n(); }
    [[nodiscard]] runtime::Time now() const override { return mux_.ctx().now(); }
    void send(NodeId dst, Payload payload) override {
      tag(payload);
      mux_.ctx().send(dst, std::move(payload));
    }
    void broadcast(Payload payload) override {
      tag(payload);
      mux_.ctx().broadcast(std::move(payload));
    }
    runtime::TimerId set_timer(runtime::Duration delay) override {
      const runtime::TimerId id = mux_.ctx().set_timer(delay);
      mux_.timer_shard_.emplace(id, shard_);
      return id;
    }
    void cancel_timer(runtime::TimerId id) override {
      mux_.timer_shard_.erase(id);
      mux_.ctx().cancel_timer(id);
    }
    void publish_commit(std::uint64_t stream, Value value,
                        std::span<const std::uint8_t> payload) override {
      mux_.ctx().publish_commit(shard_stream(shard_, stream), value, payload);
    }
    MetricsRegistry& metrics() override { return mux_.ctx().metrics(); }
    Rng& rng() override { return mux_.rngs_[shard_]; }

   private:
    // Tag an outgoing payload with this shard. A payload this instance
    // *received* already carries the right tag (that is how it got here),
    // so only untagged-fresh payloads are written -- re-sends of shared
    // buffers never race with concurrent readers of route().
    void tag(Payload& payload) const {
      if (payload.route() != shard_) payload.set_route(shard_);
    }

    ShardMux& mux_;
    std::uint32_t shard_;
  };

  std::vector<std::unique_ptr<multishot::MultishotNode>> instances_;
  std::vector<ShardHost> hosts_;  // parallel to instances_; instances bind here
  std::vector<Rng> rngs_;         // per-shard streams forked at on_start
  std::unordered_map<runtime::TimerId, std::uint32_t> timer_shard_;
};

}  // namespace tbft::shard
