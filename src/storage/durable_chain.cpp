#include "storage/durable_chain.hpp"

#include <string>
#include <utility>

#include "common/serde.hpp"
#include "multishot/node.hpp"

namespace tbft::storage {

DurableChain::DurableChain(std::filesystem::path dir, DurableOptions opts)
    : dir_(std::move(dir)),
      opts_(opts),
      wal_(dir_, opts.segment_bytes, opts.flush_every) {}

RecoveredState DurableChain::recover() {
  RecoveredState out;
  DurableCheckpoint durable;
  if (load_checkpoint(dir_, durable)) {
    out.checkpoint = durable.cp;
    out.commit_state = std::move(durable.commit_state);
    durable_cp_slot_ = durable.cp.slot;
  }
  WalRecoveryResult wal = wal_.recover(out.checkpoint.slot, out.checkpoint.boundary_hash);
  out.tail = std::move(wal.blocks);
  out.truncated_tail = wal.truncated;
  return out;
}

void DurableChain::attach(multishot::MultishotNode& node) {
  RecoveredState rec = recover();
  if (rec.tip() > 0 || !rec.commit_state.empty()) {
    node.restore_chain(rec.checkpoint, rec.commit_state, std::move(rec.tail));
  }
  node.set_durable(this);
}

void DurableChain::append(const multishot::Block& b,
                          const multishot::FinalizedStore& store) {
  wal_.append(b);
  const multishot::Checkpoint& cp = store.checkpoint();
  if (cp.slot >= durable_cp_slot_ + opts_.checkpoint_every) {
    // Order matters: records covering the checkpoint must be on disk before
    // the checkpoint claims them (flush), and segments are reclaimed only
    // after the rename made the new checkpoint the recovery root.
    wal_.flush();
    DurableCheckpoint durable;
    durable.cp = cp;
    serde::Writer w;
    store.encode_commit_state(w);
    durable.commit_state = w.take();
    store_checkpoint(dir_, durable);
    durable_cp_slot_ = cp.slot;
    ++checkpoints_stored_;
    wal_.reclaim(cp.slot);
  }
}

std::filesystem::path replica_dir(const std::filesystem::path& root, NodeId node,
                                  std::uint32_t shard, std::uint32_t shards) {
  const std::filesystem::path dir = root / ("node-" + std::to_string(node));
  return shards == 1 ? dir : dir / ("shard-" + std::to_string(shard));
}

}  // namespace tbft::storage
