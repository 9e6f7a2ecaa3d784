#pragma once
// Run traces: per-message accounting (for the Table 1 communicated-bits
// columns) and a running digest of every send and decision, in event order;
// nothing here grows with run length (decisions: runtime/commit_log.hpp).
// The first payload byte of every wire message is its type tag, which the
// trace keeps so benches can attribute bytes to protocol phases.

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "runtime/host.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"

namespace tbft::sim {

class Trace {
 public:
  /// With `digest_sends` false the sends are still counted, but the digest
  /// covers decisions only.
  explicit Trace(bool digest_sends = true) noexcept : digest_sends_(digest_sends) {}

  /// `delivered_at` is nullopt when the network dropped the message.
  void record_send(const Envelope& env, SimTime sent_at,
                   std::optional<SimTime> delivered_at) noexcept {
    // Hot path: called once per recipient of every send. Per-type accounting
    // is flat-array increments; the map views are materialized on demand.
    const std::uint8_t tag = env.payload.empty() ? 0 : env.payload.front();
    const auto bytes = static_cast<std::uint32_t>(env.payload.size());
    const bool dropped = !delivered_at.has_value();
    total_messages_ += 1;
    total_bytes_ += bytes;
    if (dropped) dropped_messages_ += 1;
    max_delivery_delay_ = std::max(max_delivery_delay_, delivered_at.value_or(sent_at) - sent_at);
    bytes_by_type_arr_[tag] += bytes;
    messages_by_type_arr_[tag] += 1;
    if (!digest_sends_) return;
    fold((static_cast<std::uint64_t>(env.src) << 32) | env.dst);
    fold((static_cast<std::uint64_t>(bytes) << 16) | (static_cast<std::uint64_t>(tag) << 8) |
         (dropped ? 1 : 0));
    fold(static_cast<std::uint64_t>(sent_at));
    fold(static_cast<std::uint64_t>(delivered_at.value_or(kNever)));
  }

  void record_decision(const runtime::Commit& c) noexcept {
    fold((static_cast<std::uint64_t>(c.node) << 32) ^ c.stream);
    fold(c.value.id);
    fold(static_cast<std::uint64_t>(c.at));
  }

  [[nodiscard]] std::uint64_t total_messages() const noexcept { return total_messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept { return dropped_messages_; }
  /// Longest send-to-delivery delay of any delivered message so far.
  [[nodiscard]] SimTime max_delivery_delay() const noexcept { return max_delivery_delay_; }
  /// Per-type accounting views, materialized per call from the flat hot-path
  /// counters. Returned by value: each call is an independent snapshot (a
  /// `const auto&` binding at a call site keeps the temporary alive).
  [[nodiscard]] std::map<std::uint8_t, std::uint64_t> bytes_by_type() const {
    return materialize(bytes_by_type_arr_);
  }
  [[nodiscard]] std::map<std::uint8_t, std::uint64_t> messages_by_type() const {
    return materialize(messages_by_type_arr_);
  }

  /// Order-sensitive digest over every send and decision so far, in event
  /// order. Two runs with the same seed/config must produce equal digests
  /// (determinism regression; see tests/test_determinism.cpp).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  void fold(std::uint64_t word) noexcept { digest_ = hash_combine(digest_, word); }

  /// Build the sparse map view of a flat per-tag counter array (accessor
  /// path only; rebuilding is cheap next to any run that filled it).
  static std::map<std::uint8_t, std::uint64_t> materialize(
      const std::array<std::uint64_t, 256>& arr) {
    std::map<std::uint8_t, std::uint64_t> view;
    for (std::size_t tag = 0; tag < arr.size(); ++tag) {
      if (arr[tag] != 0) view.emplace(static_cast<std::uint8_t>(tag), arr[tag]);
    }
    return view;
  }

  bool digest_sends_;
  std::uint64_t digest_{kFnvOffset};
  std::uint64_t total_messages_{0};
  std::uint64_t total_bytes_{0};
  std::uint64_t dropped_messages_{0};
  SimTime max_delivery_delay_{0};
  std::array<std::uint64_t, 256> bytes_by_type_arr_{};
  std::array<std::uint64_t, 256> messages_by_type_arr_{};
};

}  // namespace tbft::sim
