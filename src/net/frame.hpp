#pragma once
// Wire framing for the socket transport: every TCP byte stream is a sequence
// of length-prefixed frames
//
//   [u32 LE payload length][u8 kind][payload bytes]
//
// where the payload of a kData frame is exactly one serde-encoded protocol
// message (the same bytes a Payload carries in-process), and control kinds
// (kHello / kPing / kPong) manage peer identity and liveness.
//
// Threat model: these bytes come off the network, so this layer is the junk
// flood's first target. Decoding is total and bounded:
//  - a length prefix above the configured maximum poisons the stream (the
//    framing cannot resync past a lying length) -- counted, and the caller
//    must drop the connection;
//  - an unknown kind is a counted, skipped frame (the length prefix still
//    delimits it, so the stream survives) whose body is never buffered;
//  - bytes buffered mid-frame when the stream ends are a counted truncation;
//  - everything below (serde decode of hello / protocol messages) is already
//    total -- a sticky Reader failure, never an assert or UB.
// Every drop is counted in FrameDecoder::Counters; the SocketHost surfaces
// them through its NetStats so floods are observable, not silent.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"

namespace tbft::net {

inline constexpr std::uint32_t kHelloMagic = 0x54424654;  // "TBFT"
inline constexpr std::uint16_t kWireVersion = 1;
/// u32 length + u8 kind.
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class FrameKind : std::uint8_t {
  kHello = 1,  ///< handshake: identifies the sender (Hello payload)
  kData = 2,   ///< one serde-encoded protocol message
  kPing = 3,   ///< liveness probe (empty payload)
  kPong = 4,   ///< liveness reply (empty payload)
};

[[nodiscard]] constexpr bool known_kind(std::uint8_t k) noexcept {
  return k >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         k <= static_cast<std::uint8_t>(FrameKind::kPong);
}

/// Serialize a frame header into `out[kFrameHeaderBytes]`.
inline void put_frame_header(std::uint8_t* out, FrameKind kind,
                             std::uint32_t payload_len) noexcept {
  out[0] = static_cast<std::uint8_t>(payload_len);
  out[1] = static_cast<std::uint8_t>(payload_len >> 8);
  out[2] = static_cast<std::uint8_t>(payload_len >> 16);
  out[3] = static_cast<std::uint8_t>(payload_len >> 24);
  out[4] = static_cast<std::uint8_t>(kind);
}

/// Handshake payload: who is on the other end of this connection and which
/// cluster shape it believes in. Sent as the first frame in both directions.
struct Hello {
  std::uint32_t magic{kHelloMagic};
  std::uint16_t version{kWireVersion};
  NodeId node{0};
  std::uint32_t n{0};

  friend bool operator==(const Hello&, const Hello&) = default;

  void encode(serde::Writer& w) const {
    w.u32(magic);
    w.u16(version);
    w.u32(node);
    w.u32(n);
  }
  static Hello decode(serde::Reader& r) {
    Hello h;
    h.magic = r.u32();
    h.version = r.u16();
    h.node = r.u32();
    h.n = r.u32();
    if (h.magic != kHelloMagic || h.version != kWireVersion) r.fail();
    return h;
  }
};

/// Incremental frame decoder over an arbitrary-chunked byte stream. Feed it
/// whatever recv() returned -- one byte at a time, a split length prefix,
/// ten frames at once -- and it emits each complete frame exactly once.
class FrameDecoder {
 public:
  struct Limits {
    /// Largest accepted frame payload. Anything above is a poisoned stream:
    /// honest peers never send it, and a lying length prefix would otherwise
    /// let one connection demand unbounded buffering.
    std::size_t max_payload_bytes{1u << 20};
  };

  struct Counters {
    std::uint64_t frames{0};            ///< complete frames emitted
    std::uint64_t bytes{0};             ///< stream bytes consumed
    std::uint64_t dropped_oversize{0};  ///< length prefix beyond the limit (poisons)
    std::uint64_t dropped_unknown{0};   ///< well-framed frames of unknown kind
    std::uint64_t dropped_truncated{0}; ///< partial frames discarded at finish()
  };

  using Sink = std::function<void(FrameKind, std::vector<std::uint8_t>&&)>;

  FrameDecoder() = default;
  explicit FrameDecoder(Limits limits) : limits_(limits) {}

  /// Consume `in`, emitting complete frames through `sink`. Returns false
  /// once the stream is poisoned (oversized length prefix): no further input
  /// is accepted and the connection must be dropped.
  bool feed(std::span<const std::uint8_t> in, const Sink& sink);

  /// Note end-of-stream: counts any partially buffered frame as truncated.
  void finish() {
    if (!poisoned_ && (header_got_ > 0 || in_body_)) ++counters_.dropped_truncated;
    reset_frame();
  }

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  /// Bytes reserved for the frame being assembled (the per-connection
  /// memory a peer can demand: at most one known-kind frame's length).
  [[nodiscard]] std::size_t buffer_capacity() const noexcept { return body_.capacity(); }

 private:
  void reset_frame() noexcept {
    header_got_ = 0;
    body_.clear();
    body_need_ = 0;
    in_body_ = false;
    skip_frame_ = false;
  }

  Limits limits_{};
  Counters counters_;
  std::uint8_t header_[kFrameHeaderBytes]{};
  std::size_t header_got_{0};
  std::vector<std::uint8_t> body_;  // current frame's payload, accumulating
  std::size_t body_need_{0};        // payload length (skip: bytes left)
  FrameKind kind_{FrameKind::kData};
  bool in_body_{false};
  bool skip_frame_{false};  // unknown kind: consume, do not buffer or emit
  bool poisoned_{false};
};

}  // namespace tbft::net
