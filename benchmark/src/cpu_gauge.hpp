#pragma once
// How fast the CPU under a run is, measured while the run goes on.
//
// The machines this benchmark runs on share their cores, caches and memory
// with other tenants, and a core does less per second when its neighbours
// are busy. A fixed arithmetic loop runs at one speed all day; the library,
// which allocates, hashes and looks up tables, does not: runs of sim-lowload
// took 11 to 18 us of CPU per transaction, and a real-host round on one
// core committed 25 to 42k tx/s.
// So each round times a fixed reference kernel of that kind of work on its
// generator thread, between slices of the workload, and reports its costs
// and times at a reference speed. The kernel uses nothing from the library,
// so a change to the library never moves it.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace bench {

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A fixed amount of work shaped like the library's hot path: allocate and
/// fill a 64-byte frame, hash it, and update a hash map and a 512 KiB table
/// with the result. Of the kernels tried (pure arithmetic, random reads of
/// 32 MiB, allocations of mixed sizes, a tree and a heap) this one followed
/// the library's cost most closely.
class RefKernel {
 public:
  /// One pass: the same operations every time. Returns a value that depends
  /// on all of them, so none can be optimised away.
  std::uint64_t pass() {
    std::uint64_t acc = 0;
    for (int i = 0; i < kFrames; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      auto frame = std::make_unique<std::vector<std::uint8_t>>(64);
      for (std::size_t k = 0; k < frame->size(); ++k) {
        (*frame)[k] = static_cast<std::uint8_t>(x_ >> (k % 8 * 8));
      }
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const std::uint8_t b : *frame) {
        h ^= b;
        h *= 0x100000001b3ULL;
      }
      ring_[static_cast<std::size_t>(i) % ring_.size()] = std::move(frame);
      map_[h & 0xffff] += h;
      if (map_.size() > 4096) map_.erase(map_.begin());
      table_[h % table_.size()] += x_;
      acc += table_[(x_ >> 3) % table_.size()];
    }
    return acc;
  }

 private:
  static constexpr int kFrames = 1000;

  std::uint64_t x_{0x9E3779B97F4A7C15ULL};
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> ring_ =
      std::vector<std::unique_ptr<std::vector<std::uint8_t>>>(256);
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(std::size_t{1} << 16);
};

/// Times RefKernel passes on the thread that calls it. The run leaves the
/// passes' CPU out of its own.
class CpuGauge {
 public:
  /// Thread CPU of one pass when the VM the reference numbers come from (4
  /// vCPUs of an Intel Xeon) was at its fastest.
  static constexpr std::int64_t kRefPassNs = 250'000;
  /// How far the library's costs follow the kernel's: they change as the
  /// kernel's speed to this power. Fitted on ten runs of each workload,
  /// where it cut the real hosts' spreads of throughput and p50 from 7-25%
  /// to 2-5%; the kernel leans harder on the caches than the library does.
  static constexpr double kSensitivity = 0.7;
  /// Wall time between passes while the workload runs.
  static constexpr std::int64_t kEveryNs = 10'000'000;

  /// Runs a pass when kEveryNs has passed since the last; call often.
  void tick() {
    if (std::chrono::steady_clock::now() >= next_) sample();
  }

  /// Runs a pass now.
  void sample() {
    const std::int64_t t0 = thread_cpu_ns();
    sink_ += kernel_.pass();
    const std::int64_t took = thread_cpu_ns() - t0;
    passes_.push_back(took);
    spent_ns_ += took;
    next_ = std::chrono::steady_clock::now() + std::chrono::nanoseconds(kEveryNs);
  }

  /// Speed of this CPU during the run: kRefPassNs over the median pass, so
  /// 0.8 means a pass took 25% longer than at the reference. 1 when no pass
  /// ran.
  [[nodiscard]] double speed() const {
    if (passes_.empty()) return 1.0;
    std::vector<std::int64_t> v = passes_;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return static_cast<double>(kRefPassNs) / static_cast<double>(*mid);
  }

  /// Multiplies a time or cost measured in this run into its value at the
  /// reference speed (a rate divides by it).
  [[nodiscard]] double to_ref() const { return std::pow(speed(), kSensitivity); }

  /// CPU the passes took so far.
  [[nodiscard]] std::int64_t spent_ns() const noexcept { return spent_ns_; }

 private:
  RefKernel kernel_;
  std::vector<std::int64_t> passes_;
  std::int64_t spent_ns_{0};
  std::uint64_t sink_{0};  ///< depends on every pass, so none is optimised away
  std::chrono::steady_clock::time_point next_{};
};

}  // namespace bench
