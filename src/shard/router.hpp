#pragma once
// Key-routed sharding: S independent TetraBFT chain instances behind one
// front end (DESIGN_PERF.md "Sharding").
//
// A request's home shard is a pure function of its workload tag
// (`(client << 32) | seq`, see workload/request.hpp): `shard_of(tag) =
// mix64(tag) % shards`. Everything that must agree on request placement --
// submit ports, client retries, the workload tracker, the benches --
// derives the shard from the tag through this one function, so a request
// can never commit on two shards by mis-routing.
//
// Each shard is a full MultishotNode instance running over the *shared*
// runtime Hosts (one ShardMux per physical host, see shard/mux.hpp). The
// runtime API already keys commits by stream, so shard k's slot s commits
// publish on the composite stream `(k << 48) | s`: consumers recover both
// coordinates with stream_shard/stream_slot and per-shard chains stay
// totally ordered while the aggregate interleaves freely.

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace tbft::shard {

/// Bits of the composite commit stream reserved for the slot. 48 bits of
/// slot (a shard outliving 2^48 slots is not a concern) leaves 16 bits of
/// shard index -- far above any plausible S.
inline constexpr std::uint32_t kStreamSlotBits = 48;
inline constexpr std::uint64_t kStreamSlotMask = (std::uint64_t{1} << kStreamSlotBits) - 1;

/// Compose shard index + per-shard slot into the published commit stream.
[[nodiscard]] constexpr std::uint64_t shard_stream(std::uint32_t shard,
                                                   std::uint64_t slot) noexcept {
  return (static_cast<std::uint64_t>(shard) << kStreamSlotBits) | (slot & kStreamSlotMask);
}

/// The shard coordinate of a composite commit stream.
[[nodiscard]] constexpr std::uint32_t stream_shard(std::uint64_t stream) noexcept {
  return static_cast<std::uint32_t>(stream >> kStreamSlotBits);
}

/// The per-shard slot coordinate of a composite commit stream.
[[nodiscard]] constexpr std::uint64_t stream_slot(std::uint64_t stream) noexcept {
  return stream & kStreamSlotMask;
}

/// Hashes request keys to one of S chain instances. Stateless beyond S;
/// copies are cheap and always agree.
class ShardRouter {
 public:
  explicit ShardRouter(std::uint32_t shards) : shards_(shards) { assert(shards >= 1); }

  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// Home shard of a request tag. mix64 scrambles the tag so consecutive
  /// sequence numbers from one client spread across all shards.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t tag) const noexcept {
    return static_cast<std::uint32_t>(mix64(tag) % shards_);
  }

 private:
  std::uint32_t shards_{1};
};

/// SubmitPort that dispatches each request to its tag's home shard -- the
/// front half of key routing. One RoutedPort stands in front of one
/// replica; `dispatch(shard, tx)` delivers into that replica's shard
/// instance (tbft::Cluster::port on every host, the workload rig's and the
/// chaos engine's muxes). Client retries walk replicas, not shards: a
/// retried tag hashes to the same home shard at every replica, so retry
/// stays within the key's shard by construction. A non-request transaction
/// (no parseable tag) goes to shard 0.
class RoutedPort final : public workload::SubmitPort {
 public:
  using Dispatch = std::function<bool(std::uint32_t shard, std::vector<std::uint8_t>)>;

  RoutedPort(ShardRouter router, Dispatch dispatch)
      : router_(router), dispatch_(std::move(dispatch)) {}

  bool submit(std::vector<std::uint8_t> tx) override {
    const auto tag = workload::parse_request_tag(tx);
    const std::uint32_t shard = tag ? router_.shard_of(*tag) : 0;
    return dispatch_(shard, std::move(tx));
  }

 private:
  ShardRouter router_;
  Dispatch dispatch_;
};

}  // namespace tbft::shard
