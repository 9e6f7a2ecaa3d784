#pragma once
// Partial-synchrony network model (Dwork-Lynch-Stockmeyer, paper §2):
//
//  - before GST the network is asynchronous: messages may be dropped or
//    delayed arbitrarily (with constant storage the protocol must tolerate
//    pre-GST loss);
//  - every message *sent at or after* GST is delivered within Delta;
//  - channels are authenticated: the receiver learns the true sender, but
//    nothing a node receives is transferable proof (no signatures anywhere).
//
// An optional per-message adversary hook lets tests craft worst-case
// schedules while the model still enforces the post-GST Delta bound.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace tbft::sim {

/// One in-flight message. The payload is ref-counted and shared with every
/// other recipient of the same broadcast -- copying an Envelope never copies
/// message bytes (DESIGN_PERF.md).
struct Envelope {
  NodeId src{0};
  NodeId dst{0};
  Payload payload;
};

/// How post-GST actual delays are drawn. `delta_actual` is the paper's
/// `delta` (real network speed), always <= `delta_bound` (the known Delta).
enum class DelayModel : std::uint8_t {
  Constant,  // every message takes exactly delta_actual
  Uniform,   // uniform in [delta_min, delta_actual]
};

struct NetworkConfig {
  /// Global stabilization time. 0 means synchronous from the start.
  SimTime gst{0};
  /// Known worst-case post-GST delay (the paper's Delta). Used by protocol
  /// timeouts; the model asserts actual delays never exceed it post-GST.
  SimTime delta_bound{10 * kMillisecond};
  /// Actual network speed (the paper's delta <= Delta).
  SimTime delta_actual{1 * kMillisecond};
  SimTime delta_min{1 * kMillisecond};
  DelayModel model{DelayModel::Constant};

  /// Pre-GST behavior: drop probability and the delay range for survivors.
  double pre_gst_drop_prob{0.5};
  SimTime pre_gst_delay_min{1 * kMillisecond};
  SimTime pre_gst_delay_max{50 * kMillisecond};
};

/// One directed link's WAN shape. Delays compose as
///   queueing (bandwidth backlog) + serialization (bytes/bandwidth)
///   + latency + uniform jitter,
/// then clamp to the partial-synchrony Delta bound post-GST, so even a
/// saturated link never breaks the model the protocol's timeouts assume.
struct LinkProfile {
  /// One-way propagation delay.
  SimTime latency{1 * kMillisecond};
  /// Uniform extra delay in [0, jitter] drawn per message.
  SimTime jitter{0};
  /// Link capacity in bytes per simulated second. 0 = infinite (no
  /// serialization delay, no queueing).
  std::uint64_t bandwidth_bytes_per_sec{0};
};

/// Per-(src,dst) link table for n nodes (plus any client actors beyond n,
/// which fall back to `default_link`). Asymmetric by construction: the
/// (a,b) and (b,a) profiles are independent.
class WanTopology {
 public:
  WanTopology() = default;
  explicit WanTopology(std::uint32_t n, LinkProfile fill = {})
      : n_(n), links_(static_cast<std::size_t>(n) * n, fill) {}

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  LinkProfile& link(NodeId src, NodeId dst) { return links_[index(src, dst)]; }
  [[nodiscard]] const LinkProfile& link(NodeId src, NodeId dst) const {
    if (src >= n_ || dst >= n_) return default_link;
    return links_[index(src, dst)];
  }

  /// Worst-case latency + jitter over every link (serialization excluded):
  /// the floor a config's delta_bound must clear for the shape to be felt
  /// un-clamped.
  [[nodiscard]] SimTime max_latency_plus_jitter() const {
    SimTime worst = default_link.latency + default_link.jitter;
    for (const auto& l : links_) worst = std::max(worst, l.latency + l.jitter);
    return worst;
  }

  /// Uniform shape: every link identical.
  static WanTopology uniform(std::uint32_t n, LinkProfile l) { return WanTopology(n, l); }

  /// Geo shape: node i lives in region `region_of[i]`; the directed link
  /// a->b takes `inter[region_of[a]][region_of[b]]` (so an asymmetric
  /// matrix yields asymmetric routes) and intra-region links take `intra`.
  static WanTopology geo(const std::vector<std::uint32_t>& region_of,
                         const std::vector<std::vector<LinkProfile>>& inter,
                         LinkProfile intra);

  /// Profile used for actors outside the table (client actors, or an empty
  /// topology).
  LinkProfile default_link{};

 private:
  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const noexcept {
    return static_cast<std::size_t>(src) * n_ + dst;
  }

  std::uint32_t n_{0};
  std::vector<LinkProfile> links_;
};

/// Verdict of the adversary hook for one message.
struct DeliveryDecision {
  bool drop{false};
  /// Absolute delivery time; ignored when drop. Post-GST sends are clamped to
  /// send_time + delta_bound regardless, preserving partial synchrony.
  SimTime deliver_at{0};
};

/// Adversary hook: full control over per-message fate, subject to the
/// post-GST Delta clamp. Return nullopt to fall back to the stochastic model.
using AdversaryHook =
    std::function<std::optional<DeliveryDecision>(const Envelope&, SimTime send_time)>;

/// Computes delivery schedules. Stateless apart from the RNG; the runtime
/// enqueues the resulting events.
class Network {
 public:
  Network(NetworkConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {}

  void set_adversary(AdversaryHook hook) { adversary_ = std::move(hook); }
  [[nodiscard]] const AdversaryHook& adversary() const noexcept { return adversary_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return cfg_; }
  void set_gst(SimTime gst) noexcept { cfg_.gst = gst; }

  /// Install a WAN shape: post-GST (and post-GST only) delays come from the
  /// per-link profiles instead of the scalar DelayModel, still clamped to
  /// delta_bound. The adversary hook keeps precedence over the shape.
  void set_topology(WanTopology topo);
  [[nodiscard]] const WanTopology& topology() const noexcept { return topo_; }

  /// Decide the fate of a message sent at `send_time`. Returns nullopt when
  /// the message is dropped (only possible before GST).
  std::optional<SimTime> schedule(const Envelope& env, SimTime send_time);

 private:
  SimTime draw_post_gst_delay();
  /// WAN-shaped delivery time for an in-table link (queueing + serialization
  /// + propagation + jitter), advancing the link's backlog cursor.
  SimTime shaped_delivery(const Envelope& env, SimTime send_time);

  NetworkConfig cfg_;
  Rng rng_;
  AdversaryHook adversary_;
  WanTopology topo_;
  /// Per-directed-link busy-until cursor (bandwidth queueing); sized n*n
  /// alongside the topology.
  std::vector<SimTime> link_busy_;
};

}  // namespace tbft::sim
