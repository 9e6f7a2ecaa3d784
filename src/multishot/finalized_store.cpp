#include "multishot/finalized_store.hpp"

#include <algorithm>
#include <utility>

namespace tbft::multishot {

void FinalizedStore::append(Block&& b, std::uint64_t hash) {
  TBFT_ASSERT(b.slot == tip_ + 1);
  // Compact the oldest resident block before its ring cell is overwritten:
  // fold its hash into the cumulative chain hash and count its committed
  // transactions (their digests are already in the index), then let the
  // index drop what fell out of the horizon. The payload buffer stays in
  // the ring cell and is recycled by the move-assign below.
  if (tip_ >= tail_first() && slot_count(cap_) == tip_ - checkpoint_.slot) {
    const Resident& oldest = *resident(tail_first());
    checkpoint_.chain_hash = hash_combine(checkpoint_.chain_hash, oldest.hash);
    for_each_frame(oldest.block.payload,
                   [this](std::span<const std::uint8_t>) { ++checkpoint_.tx_count; });
    checkpoint_.slot = oldest.block.slot;
    checkpoint_.boundary_hash = oldest.hash;
    index_.evict_through(horizon_floor(checkpoint_.slot));
    schedule_cp_.apply(oldest.block.slot, oldest.block.proposer);
  }
  last_outcome_ = schedule_.apply(b.slot, b.proposer);
  tip_ = b.slot;
  tip_hash_ = hash;
  for_each_frame(b.payload, [this, &b](std::span<const std::uint8_t> f) {
    index_.insert(fnv1a64(f), b.slot);
  });
  const std::size_t i = slot_index(tip_, Slot{1}) % cap_;
  if (i >= ring_.size()) ring_.resize(i + 1);  // within the reserved capacity
  Resident& cell = ring_[i];
  cell.block = std::move(b);
  cell.hash = hash;
}

std::optional<std::uint64_t> FinalizedStore::prefix_digest(Slot s) const {
  if (s < checkpoint_.slot || s > tip_) return std::nullopt;
  std::uint64_t h = checkpoint_.chain_hash;
  for (Slot t = tail_first(); t <= s; ++t) h = hash_combine(h, resident(t)->hash);
  return h;
}

bool FinalizedStore::vouches(Slot s, std::span<const std::uint8_t> tx) const {
  const Block* b = block_at(s);
  // Compacted slot: the digest set is the only witness left; trust it.
  if (b == nullptr) return true;
  // Resident slot: confirm the bytes (collisions keep probing).
  bool match = false;
  for_each_frame(b->payload, [&](std::span<const std::uint8_t> f) {
    match = match || (f.size() == tx.size() && std::equal(f.begin(), f.end(), tx.begin()));
  });
  return match;
}

Slot FinalizedStore::commit_slot(std::span<const std::uint8_t> tx,
                                 std::uint64_t hash) const {
  Slot found = 0;
  index_.find(hash, [&](Slot s) {
    if (s <= horizon_floor(checkpoint_.slot) || !vouches(s, tx)) return false;
    found = s;
    return true;
  });
  return found;
}

bool FinalizedStore::committed_before(std::span<const std::uint8_t> tx,
                                      std::uint64_t hash, Slot before) const {
  return index_.find(hash, [&](Slot s) {
    return s < before && s + kDedupHorizon >= before && vouches(s, tx);
  });
}

std::optional<Checkpoint> FinalizedStore::checkpoint_at(Slot s) const {
  if (s < checkpoint_.slot || s > tip_) return std::nullopt;
  Checkpoint cp = checkpoint_;
  for (Slot t = tail_first(); t <= s; ++t) {
    const Resident& r = *resident(t);
    cp.chain_hash = hash_combine(cp.chain_hash, r.hash);
    for_each_frame(r.block.payload,
                   [&cp](std::span<const std::uint8_t>) { ++cp.tx_count; });
    cp.slot = t;
    cp.boundary_hash = r.hash;
  }
  return cp;
}

bool FinalizedStore::install_commit_state(std::span<const std::uint8_t> blob, Slot at) {
  serde::Reader r(blob);
  auto index = CommitIndex::read(r, at);
  LeaderSchedule schedule = schedule_.empty_at(at);
  if (!index || !schedule.read(r, at) || !r.done()) return false;
  index_ = std::move(*index);
  schedule_ = schedule;
  schedule_cp_ = std::move(schedule);
  return true;
}

LeaderSchedule FinalizedStore::schedule_at(Slot at) const {
  if (at == tip_) return schedule_;
  TBFT_ASSERT(at >= checkpoint_.slot && at < tip_);
  LeaderSchedule s = schedule_cp_;
  for (Slot t = tail_first(); t <= at; ++t) s.apply(t, resident(t)->block.proposer);
  return s;
}

std::size_t FinalizedStore::resident_bytes() const noexcept {
  std::size_t bytes = ring_.capacity() * sizeof(Resident) + index_.resident_bytes();
  for (const Resident& r : ring_) bytes += r.block.payload.capacity();
  return bytes;
}

}  // namespace tbft::multishot
