#pragma once
// Per-node durability driver: glues the WAL and the atomic checkpoint file
// to the in-memory chain (DESIGN_PERF.md "Durability").
//
// Write path (called from the node's on-finalized hook, before any
// acknowledgement): every finalized block appends to the WAL; whenever the
// in-memory compaction checkpoint has advanced `checkpoint_every` slots past
// the durable one, the WAL is flushed, the store's checkpoint + the
// canonical commit digest set of its dedup horizon are written atomically,
// and fully-covered WAL segments are reclaimed -- so disk usage is
// O(tail + horizon), not O(history).
//
// Read path (before the node thread starts): recover() loads the last
// complete checkpoint (absent/corrupt -> genesis) and replays the WAL tail
// after it, tolerating a torn final record by truncating to the last valid
// entry. The result feeds ChainStore::restore_state.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "multishot/finalized_store.hpp"
#include "storage/checkpoint_file.hpp"
#include "storage/wal.hpp"

namespace tbft::multishot {
class MultishotNode;
}  // namespace tbft::multishot

namespace tbft::storage {

struct DurableOptions {
  std::size_t segment_bytes{4u << 20};  ///< WAL segment rotation threshold
  std::uint32_t flush_every{64};        ///< fflush cadence (records)
  /// Durable-checkpoint cadence in slots of compaction progress. The lag
  /// between memory and disk checkpoints bounds WAL replay length.
  Slot checkpoint_every{1024};
};

struct RecoveredState {
  multishot::Checkpoint checkpoint{};
  std::vector<std::uint8_t> commit_state;   ///< empty = none taken yet
  std::vector<multishot::Block> tail;       ///< WAL replay after the checkpoint
  bool truncated_tail{false};               ///< a torn WAL tail was dropped

  /// Durable tip: the last slot the restored chain will hold.
  [[nodiscard]] Slot tip() const noexcept {
    return tail.empty() ? checkpoint.slot : tail.back().slot;
  }
};

class DurableChain {
 public:
  DurableChain(std::filesystem::path dir, DurableOptions opts = {});

  /// Load checkpoint + WAL tail. Call once, before any append().
  RecoveredState recover();

  /// recover() into `node` -- restoring its chain when this directory holds
  /// durable state -- and attach this chain as the node's write path.
  void attach(multishot::MultishotNode& node);

  /// Persist one newly finalized block; `store` is the node's finalized
  /// store AFTER the block was appended (its checkpoint drives the durable
  /// checkpoint cadence). Called from the on-finalized hook.
  void append(const multishot::Block& b, const multishot::FinalizedStore& store);

  /// Flush the WAL (e.g. on orderly shutdown).
  void flush() { wal_.flush(); }

  [[nodiscard]] const WalStats& wal_stats() const noexcept { return wal_.stats(); }
  [[nodiscard]] std::uint64_t checkpoints_stored() const noexcept {
    return checkpoints_stored_;
  }
  [[nodiscard]] Slot durable_checkpoint_slot() const noexcept { return durable_cp_slot_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  std::filesystem::path dir_;
  DurableOptions opts_;
  WriteAheadLog wal_;
  Slot durable_cp_slot_{0};
  std::uint64_t checkpoints_stored_{0};
};

/// Directory of replica `node`'s chain for shard `shard` under `root`:
/// `node-<id>` when the cluster runs one shard (the original layout, so
/// existing data directories still recover), `node-<id>/shard-<k>` otherwise.
[[nodiscard]] std::filesystem::path replica_dir(const std::filesystem::path& root, NodeId node,
                                                std::uint32_t shard, std::uint32_t shards);

}  // namespace tbft::storage
