// Frame-codec hardening (ISSUE 7 satellite): the length-prefixed framing is
// the first thing network bytes hit, so its decoder must be total under
// partial reads, split length prefixes, oversized claims and garbage -- every
// anomaly a counted drop, never an assert or UB. The sim's junk-flood
// adversary becomes a real threat model once frames cross a socket.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "net/frame.hpp"

namespace tbft::net {
namespace {

using Frame = std::pair<FrameKind, std::vector<std::uint8_t>>;

std::vector<std::uint8_t> encode_frame(FrameKind kind, const std::vector<std::uint8_t>& payload,
                                       std::uint16_t route = 0) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes);
  put_frame_header(out.data(), kind, static_cast<std::uint32_t>(payload.size()), route);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Feed `stream` to a decoder in chunks of `chunk` bytes; collect frames.
struct FeedResult {
  std::vector<Frame> frames;
  std::vector<std::uint16_t> routes;  // parallel to frames
  bool ok{true};
  FrameDecoder::Counters counters;
};
FeedResult feed_chunked(const std::vector<std::uint8_t>& stream, std::size_t chunk,
                 FrameDecoder::Limits limits = {}) {
  FrameDecoder dec(limits);
  FeedResult res;
  const auto sink = [&](FrameKind k, std::uint16_t route, std::vector<std::uint8_t>&& body) {
    res.frames.emplace_back(k, std::move(body));
    res.routes.push_back(route);
  };
  for (std::size_t i = 0; i < stream.size() && res.ok; i += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - i);
    res.ok = dec.feed(std::span<const std::uint8_t>(stream.data() + i, n), sink);
  }
  dec.finish();
  res.counters = dec.counters();
  return res;
}

TEST(FrameCodec, RoundTripsFramesAcrossEveryChunkSize) {
  std::vector<std::uint8_t> stream;
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> b;  // empty payload (ping-shaped data)
  std::vector<std::uint8_t> c(300);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = static_cast<std::uint8_t>(i * 7);
  // Data frames carry their shard route (0, 1 and the largest, S = 1024).
  for (const auto& f : {encode_frame(FrameKind::kData, a, 1), encode_frame(FrameKind::kPing, b),
                        encode_frame(FrameKind::kData, c, 1023),
                        encode_frame(FrameKind::kData, a, 0)}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // chunk = 1 splits every length prefix; larger chunks split bodies; a
  // whole-stream chunk exercises multiple frames per feed.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64}, stream.size()}) {
    const FeedResult res = feed_chunked(stream, chunk);
    ASSERT_TRUE(res.ok) << "chunk " << chunk;
    ASSERT_EQ(res.frames.size(), 4u) << "chunk " << chunk;
    EXPECT_EQ(res.frames[0], Frame(FrameKind::kData, a));
    EXPECT_EQ(res.frames[1], Frame(FrameKind::kPing, b));
    EXPECT_EQ(res.frames[2], Frame(FrameKind::kData, c));
    EXPECT_EQ(res.frames[3], Frame(FrameKind::kData, a));
    EXPECT_EQ(res.routes, (std::vector<std::uint16_t>{1, 0, 1023, 0})) << "chunk " << chunk;
    EXPECT_EQ(res.counters.frames, 4u);
    EXPECT_EQ(res.counters.bytes, stream.size());
    EXPECT_EQ(res.counters.dropped_truncated, 0u);
  }
}

TEST(FrameCodec, OversizedLengthPrefixPoisonsTheStream) {
  FrameDecoder::Limits limits;
  limits.max_payload_bytes = 64;
  std::vector<std::uint8_t> stream = encode_frame(FrameKind::kData, {9, 9});
  std::vector<std::uint8_t> big(kFrameHeaderBytes);
  put_frame_header(big.data(), FrameKind::kData, 65);  // one past the limit
  stream.insert(stream.end(), big.begin(), big.end());
  stream.push_back(0xAA);  // bytes after the lie must not be parsed

  const FeedResult res = feed_chunked(stream, 3, limits);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.frames.size(), 1u);  // the honest frame before the lie
  EXPECT_EQ(res.counters.dropped_oversize, 1u);

  // A poisoned decoder refuses all further input.
  FrameDecoder dec(limits);
  std::vector<std::uint8_t> lie(kFrameHeaderBytes);
  put_frame_header(lie.data(), FrameKind::kData, 0xFFFFFFFFu);
  EXPECT_FALSE(dec.feed(lie, [](FrameKind, std::uint16_t, std::vector<std::uint8_t>&&) {}));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_FALSE(dec.feed(encode_frame(FrameKind::kPing, {}),
                        [](FrameKind, std::uint16_t, std::vector<std::uint8_t>&&) {}));
  EXPECT_EQ(dec.counters().frames, 0u);
}

TEST(FrameCodec, UnknownKindIsACountedSkipNotAPoisoning) {
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> junk(kFrameHeaderBytes);
  put_frame_header(junk.data(), static_cast<FrameKind>(0x7F), 4);
  junk.insert(junk.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  stream.insert(stream.end(), junk.begin(), junk.end());
  const auto good = encode_frame(FrameKind::kData, {1, 2, 3});
  stream.insert(stream.end(), good.begin(), good.end());

  for (const std::size_t chunk : {std::size_t{1}, stream.size()}) {
    const FeedResult res = feed_chunked(stream, chunk);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.frames.size(), 1u);  // only the known frame is emitted
    EXPECT_EQ(res.frames[0], Frame(FrameKind::kData, std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(res.counters.dropped_unknown, 1u);
  }
}

TEST(FrameCodec, UnknownKindBodyIsSkippedWithoutBuffering) {
  // A max-size frame of an unknown kind, fed in 1 KiB chunks, must not make
  // the decoder hold its 1 MiB: only the known frame after it is buffered.
  const FrameDecoder::Limits limits{};
  std::vector<std::uint8_t> stream(kFrameHeaderBytes);
  put_frame_header(stream.data(), static_cast<FrameKind>(0x7F),
                   static_cast<std::uint32_t>(limits.max_payload_bytes));
  stream.resize(kFrameHeaderBytes + limits.max_payload_bytes, 0xAB);
  std::vector<std::uint8_t> body(300);
  for (std::size_t k = 0; k < body.size(); ++k) body[k] = static_cast<std::uint8_t>(k * 7);
  const auto good = encode_frame(FrameKind::kData, body);
  stream.insert(stream.end(), good.begin(), good.end());

  FrameDecoder dec(limits);
  std::vector<Frame> frames;
  std::size_t max_capacity = 0;
  for (std::size_t off = 0; off < stream.size(); off += 1024) {
    const std::size_t len = std::min<std::size_t>(1024, stream.size() - off);
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>(stream.data() + off, len),
                         [&](FrameKind k, std::uint16_t, std::vector<std::uint8_t>&& b) {
                           frames.emplace_back(k, std::move(b));
                         }));
    max_capacity = std::max(max_capacity, dec.buffer_capacity());
  }
  EXPECT_EQ(dec.counters().dropped_unknown, 1u);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], Frame(FrameKind::kData, body));
  EXPECT_LE(max_capacity, body.size());
  EXPECT_EQ(dec.counters().bytes, stream.size());
}

TEST(FrameCodec, TruncatedFramesAreCountedAtStreamEnd) {
  // Cut mid-header (a split length prefix the peer never finishes)...
  {
    const auto f = encode_frame(FrameKind::kData, {1, 2, 3, 4});
    const std::vector<std::uint8_t> cut(f.begin(), f.begin() + 2);
    const FeedResult res = feed_chunked(cut, 1);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.frames.empty());
    EXPECT_EQ(res.counters.dropped_truncated, 1u);
  }
  // ...and mid-body.
  {
    const auto f = encode_frame(FrameKind::kData, {1, 2, 3, 4});
    const std::vector<std::uint8_t> cut(f.begin(), f.end() - 1);
    const FeedResult res = feed_chunked(cut, 2);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.frames.empty());
    EXPECT_EQ(res.counters.dropped_truncated, 1u);
  }
  // A cleanly ended stream counts nothing.
  {
    const FeedResult res = feed_chunked(encode_frame(FrameKind::kPong, {}), 1);
    EXPECT_EQ(res.counters.dropped_truncated, 0u);
    EXPECT_EQ(res.frames.size(), 1u);
  }
}

TEST(FrameCodec, ZeroLengthFrameAtBufferBoundaryIsEmitted) {
  // A zero-payload frame whose header lands exactly at the end of a read
  // must still be emitted (regression guard for the header/body handoff).
  const auto f = encode_frame(FrameKind::kPing, {});
  FrameDecoder dec;
  std::vector<Frame> frames;
  EXPECT_TRUE(dec.feed(f, [&](FrameKind k, std::uint16_t, std::vector<std::uint8_t>&& b) {
    frames.emplace_back(k, std::move(b));
  }));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameKind::kPing);
  EXPECT_TRUE(frames[0].second.empty());
}

TEST(FrameCodec, GarbageStreamNeverEmitsAFakeHello) {
  // 4KiB of pseudo-random garbage: whatever the decoder makes of it, any
  // frame it emits must fail Hello validation -- the handshake layer's
  // decode is total too.
  std::vector<std::uint8_t> garbage(4096);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& b : garbage) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  FrameDecoder dec(FrameDecoder::Limits{.max_payload_bytes = 1024});
  std::size_t hellos_accepted = 0;
  (void)dec.feed(garbage, [&](FrameKind k, std::uint16_t, std::vector<std::uint8_t>&& body) {
    if (k != FrameKind::kHello) return;
    serde::Reader r(body);
    const Hello h = Hello::decode(r);
    if (r.done() && h.magic == kHelloMagic) ++hellos_accepted;
  });
  dec.finish();
  EXPECT_EQ(hellos_accepted, 0u);
  // The garbage was consumed through some mix of counted outcomes -- no
  // silent path exists.
  const auto& c = dec.counters();
  EXPECT_GT(c.dropped_oversize + c.dropped_unknown + c.dropped_truncated + c.frames, 0u);
}

TEST(FrameCodec, HelloRoundTripAndRejections) {
  Hello h;
  h.node = 3;
  h.n = 7;
  const auto back = serde::roundtrip(h);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);

  serde::Writer w;
  Hello bad = h;
  bad.magic = 0x12345678;
  bad.encode(w);
  serde::Reader r(w.data());
  (void)Hello::decode(r);
  EXPECT_FALSE(r.ok());

  // Version 1 framed without the route: its peers must fail the handshake.
  for (const std::uint16_t version : {0, 1}) {
    serde::Writer w2;
    Hello old = h;
    old.version = version;
    old.encode(w2);
    serde::Reader r2(w2.data());
    (void)Hello::decode(r2);
    EXPECT_FALSE(r2.ok()) << "version " << version;
  }
}

}  // namespace
}  // namespace tbft::net
