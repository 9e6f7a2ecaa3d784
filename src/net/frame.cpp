#include "net/frame.hpp"

#include <algorithm>
#include <cstring>

namespace tbft::net {

bool FrameDecoder::feed(std::span<const std::uint8_t> in, const Sink& sink) {
  if (poisoned_) return false;
  std::size_t i = 0;
  while (i < in.size()) {
    if (!in_body_) {
      const std::size_t take =
          std::min(kFrameHeaderBytes - header_got_, in.size() - i);
      std::memcpy(header_ + header_got_, in.data() + i, take);
      header_got_ += take;
      i += take;
      if (header_got_ < kFrameHeaderBytes) break;
      const std::uint32_t len = static_cast<std::uint32_t>(header_[0]) |
                                static_cast<std::uint32_t>(header_[1]) << 8 |
                                static_cast<std::uint32_t>(header_[2]) << 16 |
                                static_cast<std::uint32_t>(header_[3]) << 24;
      if (len > limits_.max_payload_bytes) {
        // A lying length prefix would demand unbounded buffering, and the
        // framing cannot resync past it: poison the stream for good.
        ++counters_.dropped_oversize;
        counters_.bytes += i;
        poisoned_ = true;
        return false;
      }
      kind_ = static_cast<FrameKind>(header_[4]);
      skip_frame_ = !known_kind(header_[4]);
      if (skip_frame_) ++counters_.dropped_unknown;
      body_need_ = len;
      body_.clear();
      if (!skip_frame_) body_.reserve(len);
      in_body_ = true;
    }
    if (skip_frame_) {
      // Unknown kind: count the body bytes off without buffering them, so
      // a stranger's frame cannot make the connection hold its length.
      const std::size_t take = std::min(body_need_, in.size() - i);
      body_need_ -= take;
      i += take;
      if (body_need_ > 0) break;
      reset_frame();
      continue;
    }
    const std::size_t take = std::min(body_need_ - body_.size(), in.size() - i);
    body_.insert(body_.end(), in.begin() + i, in.begin() + i + take);
    i += take;
    if (body_.size() < body_need_) break;
    ++counters_.frames;
    sink(kind_, std::move(body_));
    body_ = {};
    reset_frame();
  }
  counters_.bytes += i;
  return true;
}

}  // namespace tbft::net
