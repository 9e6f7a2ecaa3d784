#pragma once
// Atomic durable checkpoint for one node (DESIGN_PERF.md "Durability").
//
// A single file `<dir>/checkpoint` holding the FinalizedStore checkpoint
// plus the canonical commit digest set of its dedup horizon, written
// atomically: the new state goes to `checkpoint.tmp` first and replaces
// the old file with one rename, so a crash at any instant leaves either the
// previous complete checkpoint or the new complete checkpoint -- never a
// torn mix.
//
// Format (version 3):
//   magic 'TBCK' u32 | version u32 | Checkpoint (serde) |
//   commit-state blob (serde bytes) | fnv1a64 of everything before it (u64)
// The commit-state blob is the commit index of the dedup horizon followed
// by the leader schedule's state (FinalizedStore::encode_commit_state).

#include <cstdint>
#include <filesystem>
#include <vector>

#include "multishot/finalized_store.hpp"

namespace tbft::storage {

struct DurableCheckpoint {
  multishot::Checkpoint cp{};
  /// Canonical commit state at cp.slot: the CommitIndex blob of (cp.slot -
  /// kDedupHorizon, cp.slot], then the leader schedule's state
  /// (encode_commit_state); empty when no checkpoint has ever been taken.
  std::vector<std::uint8_t> commit_state;
};

/// Load `<dir>/checkpoint` into `out`. Returns false -- leaving `out`
/// untouched -- when the file is absent, unreadable or fails its checksum
/// (recovery then starts from genesis + WAL). A stale `checkpoint.tmp`
/// from a crash mid-store is removed either way. A version 2 file loads
/// with an empty skip set; a version 1 file (whole commit history) also has
/// its commit state cut to the dedup horizon.
/// Throws std::runtime_error on an intact file it cannot use -- an unknown
/// version, or a version 1 file with Bloom epochs: read as "no checkpoint",
/// WAL recovery from genesis would truncate the segments the checkpoint
/// already reclaimed below it.
bool load_checkpoint(const std::filesystem::path& dir, DurableCheckpoint& out);

/// Atomically replace `<dir>/checkpoint` (write tmp + rename). Throws
/// std::runtime_error on I/O failure.
void store_checkpoint(const std::filesystem::path& dir, const DurableCheckpoint& state);

}  // namespace tbft::storage
