#pragma once
// The cross-host equivalence recipe shared by the LocalRunner, socket and
// determinism suites. One transaction per block and a generous Delta (no
// host ever view-changes, even under TSan scheduling). Every transaction is
// seeded before start() at node 1, the view-0 leader of slot 1 at every
// pipelining depth: the relay only moves a submission off a replica that
// does not lead the proposal frontier, so at depth 1 node 1 never relays,
// and each transaction's slot is a pure function of the seeding order under
// any host. (At depth > 1 node 1 relays what its stripes cannot carry; only
// the sim runs that shape.)
// The other leaders propose filler in between, so the suites wait on the
// transactions themselves, never on a slot count.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tetrabft.hpp"

namespace tbft::test {

inline constexpr std::uint32_t kEqNodes = 4;
inline constexpr std::uint32_t kEqTxs = 24;
inline constexpr NodeId kEqSeedNode = 1;

/// Unique, deterministic bytes of transaction j.
inline std::vector<std::uint8_t> eq_tx(std::uint32_t j) {
  return {'e', 'q', 'v', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          0xA5, 0x5A, static_cast<std::uint8_t>(j * 7)};
}

/// The index j of an eq_tx frame, or nullopt for any other bytes.
inline std::optional<std::uint32_t> eq_tx_index(std::span<const std::uint8_t> f) {
  if (f.size() != 8 || f[0] != 'e' || f[1] != 'q' || f[2] != 'v') return std::nullopt;
  const std::uint32_t j = (static_cast<std::uint32_t>(f[3]) << 8) | f[4];
  if (j >= kEqTxs || !std::equal(f.begin(), f.end(), eq_tx(j).begin())) return std::nullopt;
  return j;
}

inline tbft::ClusterBuilder equivalence_builder() {
  tbft::ClusterBuilder b;
  b.nodes(kEqNodes)
      .seed(7)
      .delta_bound(1 * runtime::kSecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096);
  return b;
}

/// Seed every transaction at node 1 (pre-start: into its mempool inline).
/// Returns whether every submission was admitted (real hosts report true).
inline bool seed_eq_txs(tbft::Cluster& cluster) {
  bool all = true;
  for (std::uint32_t j = 0; j < kEqTxs; ++j) {
    all = cluster.submit(kEqSeedNode, eq_tx(j)) && all;
  }
  return all;
}

/// The slot each replica committed each transaction at, read off the commit
/// stream, so it works on every host. Callbacks and wait_for predicates both
/// run under the cluster's commit lock.
struct EqCommits {
  std::vector<std::vector<Slot>> slot;  // [node][j]; 0 = not yet committed

  void attach(tbft::Cluster& cluster) {
    slot.assign(kEqNodes, std::vector<Slot>(kEqTxs, 0));
    cluster.on_commit([this](const runtime::Commit& c) {
      for (const auto f : multishot::payload_frames(c.payload)) {
        if (const auto j = eq_tx_index(f)) slot[c.node][*j] = c.stream;
      }
    });
  }
  /// Every replica committed every transaction.
  [[nodiscard]] bool complete() const {
    for (const auto& per_node : slot) {
      for (const Slot s : per_node) {
        if (s == 0) return false;
      }
    }
    return !slot.empty();
  }
  /// The highest slot carrying a transaction (at replica 0).
  [[nodiscard]] Slot last_tx_slot() const {
    Slot last = 0;
    for (const Slot s : slot.at(0)) last = std::max(last, s);
    return last;
  }
};

}  // namespace tbft::test
