#pragma once
// Byte-oriented serialization used by every wire message in the repository.
//
// Design notes:
//  - little-endian fixed-width integers plus LEB128 varints;
//  - decoding never throws on malformed input: a Reader carries a sticky
//    failure flag, and decoded values after a failure are zero. Byzantine
//    nodes may send arbitrary bytes, so every decode path must be total.
//  - encoded sizes feed the benches' communicated-bits accounting, so
//    encoders should be reasonably compact (Table 1 reproduction).

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tbft::serde {

/// Bytes Writer::varint spends on `v`.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  // --- Scratch-buffer reuse (the zero-copy encode path, DESIGN_PERF.md) ---
  /// Drop the contents but keep the allocation, readying the writer for the
  /// next message. After enough messages the buffer reaches the high-water
  /// mark and encoding stops allocating entirely.
  void clear() noexcept { buf_.clear(); }
  /// Pre-size the underlying buffer (e.g. to a protocol's max message size).
  void reserve(std::size_t n) { buf_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  template <class T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::uint64_t varint();
  std::vector<std::uint8_t> bytes();
  /// Like bytes(), but a view into the input -- no copy. The span is valid
  /// only while the underlying buffer outlives the Reader's caller.
  std::span<const std::uint8_t> bytes_view();
  std::string str();

  /// True iff no decode error occurred and (optionally) all input consumed.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] bool done() const noexcept { return ok_ && at_end(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  void fail() noexcept { ok_ = false; }

 private:
  template <class T>
  T read_le() {
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool ok_{true};
};

/// Round-trip helper for tests: encode a message and decode it back.
template <class Msg>
std::optional<Msg> roundtrip(const Msg& m) {
  Writer w;
  m.encode(w);
  Reader r(w.data());
  auto out = Msg::decode(r);
  if (!r.done()) return std::nullopt;
  return out;
}

}  // namespace tbft::serde
