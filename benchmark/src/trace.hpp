#pragma once
// Spans for the traced runs: what they record, where they are kept, and
// the two derived quantities -- a span's self time and a transaction's
// latency ledger.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/runtime.hpp"

namespace bench {

/// The run's clocks. Wall time times CPU work on every host; the ledger
/// clock times requests: simulated time on the sim, wall time elsewhere.
struct RunClock {
  const tbft::sim::Simulation* sim{nullptr};
  std::chrono::steady_clock::time_point epoch{std::chrono::steady_clock::now()};

  [[nodiscard]] std::int64_t wall_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }
  [[nodiscard]] std::int64_t ledger_ns() const {
    return sim != nullptr ? sim->now() * 1000 : wall_ns();
  }
};

enum Name : std::uint16_t {
  // Handlers the host invokes on a replica, by message type.
  kProposal,
  kVote,
  kForward,
  kViewChange,  // view-change, suggest and proof messages
  kOtherMsg,    // catch-up and content recovery
  kTimer,
  // MultishotNode::submit_tx.
  kAdmit,
  // Host calls a replica makes: the children of the spans above.
  kSend,
  kBroadcast,
  kSetTimer,
  kCancelTimer,
  kPublish,
  // Zero-length marks of one request: posted by the generator, first seen in
  // a delivered proposal, seen committed.
  kPost,
  kProposed,
  kCommitted,
  kNameCount
};

inline constexpr std::array<const char*, kNameCount> kNames = {
    "proposal",      "vote",           "forward",           "viewchange",
    "other",         "timer",          "mempool.admit",     "host.send",
    "host.broadcast", "host.set_timer", "host.cancel_timer", "host.publish_commit",
    "gen.post",      "proposal.tx",    "commit.tx"};

struct Span {
  std::int64_t t0{0};  ///< wall ns since the run epoch
  std::int64_t t1{0};
  std::int64_t at{0};        ///< ledger ns at t0
  std::uint64_t req{0};      ///< transaction id, or slot for handlers and publishes
  std::uint32_t parent{0};   ///< 1-based index of the enclosing span; 0 = root
  std::uint32_t a{0};        ///< admitted flag (admit), message tag (host sends)
  std::uint16_t name{0};
};

/// One thread's spans: only the thread that owns it writes. Storage grows in
/// fixed chunks, so recording never copies what is already recorded.
class SpanBuffer {
 public:
  explicit SpanBuffer(const RunClock& clock) : clock_(&clock) {}

  /// Open a span nested in the innermost open one; returns its handle, or 0
  /// while paused (children of an unsampled request are not kept).
  std::uint32_t open(Name name, std::uint64_t req) {
    if (paused) return 0;
    Span& s = append();
    s.name = name;
    s.req = req;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.t0 = clock_->wall_ns();
    s.at = clock_->sim != nullptr ? clock_->ledger_ns() : s.t0;
    stack_.push_back(static_cast<std::uint32_t>(size_));
    return static_cast<std::uint32_t>(size_);
  }

  void close(std::uint32_t handle, std::uint32_t a = 0) {
    if (handle == 0) return;
    Span& s = at(handle - 1);
    s.t1 = clock_->wall_ns();
    s.a = a;
    stack_.pop_back();
  }

  /// A zero-length span at the current instant, nested like open(). `when`
  /// overrides its ledger time, for marks of an instant already taken.
  void mark(Name name, std::uint64_t req, std::int64_t when = -1) {
    if (paused) return;
    const std::uint32_t h = open(name, req);
    Span& s = at(h - 1);
    s.t1 = s.t0;
    if (when >= 0) s.at = when;
    stack_.pop_back();
  }

  void push(const Span& s) { append() = s; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Span& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  bool paused{false};

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  Span& at(std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  Span& append() {
    if (size_ == chunks_.size() * kChunk) chunks_.push_back(std::make_unique<Span[]>(kChunk));
    Span& s = at(size_++);
    s = Span{};
    return s;
  }

  const RunClock* clock_;
  std::vector<std::unique_ptr<Span[]>> chunks_;
  std::size_t size_{0};
  std::vector<std::uint32_t> stack_;
};

/// Self time of each span: its duration minus the time its direct children
/// cover. Children nest inside their parent on one thread, so they never
/// overlap each other.
inline std::vector<std::int64_t> self_times(const SpanBuffer& b) {
  std::vector<std::int64_t> self(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) self[i] = b[i].t1 - b[i].t0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i].parent != 0) self[b[i].parent - 1] -= b[i].t1 - b[i].t0;
  }
  return self;
}

/// A sampled transaction's latency, split into consecutive segments.
inline constexpr std::array<const char*, 6> kSegments = {
    "gen_queue", "submit_queue", "admit", "wait", "commit_phase", "ack"};

/// Ledger-clock instants bounding the segments, in order: due, posted to
/// the host, submit_tx entered, submit_tx returned, first delivered in a
/// proposal at any replica, that commit's publish_commit entered, first
/// committed at any replica.
using Stamps = std::array<std::int64_t, kSegments.size() + 1>;
using Segments = std::array<std::int64_t, kSegments.size()>;

inline Segments ledger_segments(const Stamps& t) {
  Segments seg{};
  for (std::size_t i = 0; i < seg.size(); ++i) seg[i] = t[i + 1] - t[i];
  return seg;
}

/// True when every segment is non-negative and they sum to `latency`
/// within 1%. Segments cut from one run of stamps always sum to the last
/// minus the first, so for a ledger whose ends are the request's due time
/// and first commit only the order of the stamps can fail this.
inline bool ledger_reconciles(const Segments& seg, std::int64_t latency) {
  std::int64_t sum = 0;
  for (const std::int64_t s : seg) {
    if (s < 0) return false;
    sum += s;
  }
  const std::int64_t diff = sum > latency ? sum - latency : latency - sum;
  return diff * 100 <= latency;
}

}  // namespace bench
