#pragma once
// Load generation: the seeded transaction codec and the open-loop arrival
// schedule.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace bench {

/// Every workload submits 64-byte transactions.
inline constexpr std::size_t kTxBytes = 64;

/// Transaction `id` of a run seeded `seed`: a two-byte magic, the id, then
/// filler derived from (seed, id), so a committed frame can be checked byte
/// for byte against what was submitted.
inline void encode_tx(std::uint64_t seed, std::uint32_t id, std::uint8_t* out) {
  out[0] = 't';
  out[1] = 'b';
  std::memcpy(out + 2, &id, sizeof id);
  std::uint64_t x = tbft::mix64(seed ^ (std::uint64_t{id} << 20));
  for (std::size_t k = 6; k < kTxBytes; ++k) {
    if ((k - 6) % 8 == 0) x = tbft::mix64(x + k);
    out[k] = static_cast<std::uint8_t>(x >> (8 * ((k - 6) % 8)));
  }
}

inline std::vector<std::uint8_t> make_tx(std::uint64_t seed, std::uint32_t id) {
  std::vector<std::uint8_t> tx(kTxBytes);
  encode_tx(seed, id, tx.data());
  return tx;
}

/// The id a frame claims, without checking its bytes (sampling decisions).
inline bool peek_tx_id(std::span<const std::uint8_t> frame, std::uint32_t& id) {
  if (frame.size() != kTxBytes || frame[0] != 't' || frame[1] != 'b') return false;
  std::memcpy(&id, frame.data() + 2, sizeof id);
  return true;
}

/// True when `frame` is exactly transaction `id` < `limit` of this run.
/// Anything else committed is a foreign frame.
inline bool parse_tx(std::uint64_t seed, std::span<const std::uint8_t> frame,
                     std::uint32_t limit, std::uint32_t& id) {
  if (!peek_tx_id(frame, id) || id >= limit) return false;
  std::array<std::uint8_t, kTxBytes> want{};
  encode_tx(seed, id, want.data());
  return std::memcmp(want.data(), frame.data(), kTxBytes) == 0;
}

/// Poisson arrivals at `rate_per_s` over [0, window_ns): due times in ns.
inline std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                                  std::int64_t window_ns) {
  tbft::Rng rng(tbft::mix64(seed) ^ 0x6c6f6164ULL);
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * static_cast<double>(window_ns) / 1e9 * 1.1));
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate_per_s * 1e9;
    if (t >= static_cast<double>(window_ns)) return due;
    due.push_back(static_cast<std::int64_t>(t));
  }
}

}  // namespace bench
