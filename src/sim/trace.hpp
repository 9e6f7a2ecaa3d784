#pragma once
// Run traces: per-message accounting (for the Table 1 communicated-bits
// columns) and per-node decision records (for latency and agreement checks).
// The first payload byte of every wire message is its type tag, which the
// trace keeps so benches can attribute bytes to protocol phases.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace tbft::sim {

struct MessageRecord {
  NodeId src{0};
  NodeId dst{0};
  std::uint32_t bytes{0};
  std::uint8_t type_tag{0};
  SimTime sent_at{0};
  SimTime delivered_at{0};  // kNever when dropped
  bool dropped{false};

  friend bool operator==(const MessageRecord&, const MessageRecord&) = default;
};

struct DecisionRecord {
  NodeId node{0};
  std::uint64_t stream{0};  // 0 for single-shot; slot for multi-shot
  Value value{};
  SimTime at{0};

  friend bool operator==(const DecisionRecord&, const DecisionRecord&) = default;
};

class Trace {
 public:
  /// Message recording is optional (benches with huge runs can disable it);
  /// aggregate counters are always kept.
  void set_keep_messages(bool keep) noexcept { keep_messages_ = keep; }

  void record_send(const MessageRecord& rec) {
    // Hot path: called once per recipient of every send. Per-type accounting
    // is flat-array increments; the map views are materialized on demand.
    total_messages_ += 1;
    total_bytes_ += rec.bytes;
    if (rec.dropped) dropped_messages_ += 1;
    bytes_by_type_arr_[rec.type_tag] += rec.bytes;
    messages_by_type_arr_[rec.type_tag] += 1;
    if (keep_messages_) messages_.push_back(rec);
  }

  void record_decision(const DecisionRecord& rec) { decisions_.push_back(rec); }

  [[nodiscard]] std::uint64_t total_messages() const noexcept { return total_messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept { return dropped_messages_; }
  /// Per-type accounting views, materialized per call from the flat hot-path
  /// counters. Returned by value: each call is an independent snapshot (a
  /// `const auto&` binding at a call site keeps the temporary alive).
  [[nodiscard]] std::map<std::uint8_t, std::uint64_t> bytes_by_type() const {
    return materialize(bytes_by_type_arr_);
  }
  [[nodiscard]] std::map<std::uint8_t, std::uint64_t> messages_by_type() const {
    return materialize(messages_by_type_arr_);
  }
  [[nodiscard]] const std::vector<MessageRecord>& messages() const noexcept { return messages_; }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const noexcept {
    return decisions_;
  }

  /// First decision of `node` on `stream`, if any.
  [[nodiscard]] std::optional<DecisionRecord> decision_of(NodeId node,
                                                          std::uint64_t stream = 0) const {
    for (const auto& d : decisions_) {
      if (d.node == node && d.stream == stream) return d;
    }
    return std::nullopt;
  }

  /// True iff no two decisions on the same stream carry different values.
  [[nodiscard]] bool agreement_holds() const {
    std::map<std::uint64_t, Value> first;
    for (const auto& d : decisions_) {
      auto [it, inserted] = first.emplace(d.stream, d.value);
      if (!inserted && !(it->second == d.value)) return false;
    }
    return true;
  }

  /// Order-sensitive digest over every recorded send and decision. Two runs
  /// with the same seed/config must produce equal digests (determinism
  /// regression; see tests/test_determinism.cpp). Requires message recording.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t h = kFnvOffset;
    for (const auto& m : messages_) {
      h = hash_combine(h, (static_cast<std::uint64_t>(m.src) << 32) | m.dst);
      h = hash_combine(h, (static_cast<std::uint64_t>(m.bytes) << 16) |
                              (static_cast<std::uint64_t>(m.type_tag) << 8) |
                              (m.dropped ? 1 : 0));
      h = hash_combine(h, static_cast<std::uint64_t>(m.sent_at));
      h = hash_combine(h, static_cast<std::uint64_t>(m.delivered_at));
    }
    for (const auto& d : decisions_) {
      h = hash_combine(h, (static_cast<std::uint64_t>(d.node) << 32) ^ d.stream);
      h = hash_combine(h, d.value.id);
      h = hash_combine(h, static_cast<std::uint64_t>(d.at));
    }
    return h;
  }

 private:
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

  bool keep_messages_{true};
  std::uint64_t total_messages_{0};
  std::uint64_t total_bytes_{0};
  std::uint64_t dropped_messages_{0};
  std::array<std::uint64_t, 256> bytes_by_type_arr_{};
  std::array<std::uint64_t, 256> messages_by_type_arr_{};
  std::vector<MessageRecord> messages_;
  std::vector<DecisionRecord> decisions_;
};

}  // namespace tbft::sim
