#include "multishot/chain.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace tbft::multishot {

bool ChainStore::add_block(const Block& b, std::uint64_t h) {
  if (b.slot < first_unfinalized() || b.slot > first_unfinalized() + kWindow) return false;
  SlotEntry* e = window_.ensure(b.slot);
  TBFT_ASSERT(e != nullptr);  // window base tracks first_unfinalized()
  if (e->find(h) != nullptr) return true;  // duplicate candidate: no-op
  Candidate* slot_for_new = nullptr;
  if (e->used == kMaxCandidatesPerSlot) {
    // At the bound, displace candidates in rotation (oldest first) rather
    // than refuse: a hard refusal would let >kMax failed views (each fresh
    // re-proposal hashes differently) brick the slot for every later
    // proposal, while a fixed victim index would let spam repeatedly evict
    // the most recently admitted (live) candidate. The notarized block's
    // content is always spared -- the finalization rule may still need it.
    // Displaced content, if it ever wins, is recoverable through the usual
    // content-unknown paths (re-proposal, view-change and range-sync replies).
    std::size_t victim = e->next_victim % kMaxCandidatesPerSlot;
    if (e->has_notarization && e->candidates[victim].hash == e->notar.hash) {
      victim = (victim + 1) % kMaxCandidatesPerSlot;
    }
    e->next_victim = victim + 1;
    slot_for_new = &e->candidates[victim];
  } else {
    if (e->used == e->candidates.size()) e->candidates.push_back({});
    slot_for_new = &e->candidates[e->used++];
  }
  Candidate& c = *slot_for_new;
  c.hash = h;
  c.has_txs = payload_has_frames(b.payload);
  // Copy-assign reuses whatever payload capacity the recycled slot kept.
  // (The winning candidate's buffer moves into the finalized tail at
  // try_finalize, so a payload-bearing slot costs one buffer allocation per
  // finalization cycle -- that is the inherent cost of retaining the chain
  // data, not state-layer bookkeeping; see the zero-alloc scope note in
  // chain.hpp.)
  c.block = b;
  return true;
}

const Block* ChainStore::find_block(Slot slot, std::uint64_t hash) const {
  const SlotEntry* e = window_.find(slot);
  if (e == nullptr) return nullptr;
  const Candidate* c = e->find(hash);
  return c == nullptr ? nullptr : &c->block;
}

bool ChainStore::notarize(Slot slot, View view, std::uint64_t hash) {
  if (is_finalized(slot)) return false;
  SlotEntry* e = window_.ensure(slot);
  if (e == nullptr) return false;  // beyond the window: bounded storage wins
  if (e->has_notarization && view <= e->notar.view) return false;
  e->notar = Notarization{view, hash};
  e->has_notarization = true;
  return true;
}

bool ChainStore::adopt_parent_notarization(Slot slot, View view, std::uint64_t hash) {
  if (is_finalized(slot)) return false;
  SlotEntry* e = window_.ensure(slot);
  if (e == nullptr) return false;
  if (e->has_notarization && (view < e->notar.view || e->notar.hash == hash)) return false;
  e->notar = Notarization{view, hash};
  e->has_notarization = true;
  return true;
}

bool ChainStore::force_finalize(Block&& b, std::uint64_t hash) {
  if (b.slot != first_unfinalized() || b.parent_hash != finalized_tip_hash()) return false;
  const Slot s = b.slot;
  store_.append(std::move(b), hash);
  // Notify after the append, so a hook that re-enters the node (commit hooks
  // drive closed-loop clients) observes the advanced chain; the block stays
  // resident for the whole call, exactly as on the rule path below.
  if (on_finalized_) on_finalized_(*store_.block_at(s), hash);
  prune_finalized();
  return true;
}

std::optional<Notarization> ChainStore::notarized(Slot slot) const {
  if (slot == 0) return Notarization{0, kGenesisHash};
  if (is_finalized(slot)) {
    // Finalized slots answer with the chain's hash while the block is still
    // resident; compacted history can no longer be cited per slot.
    const auto h = store_.hash_at(slot);
    if (!h) return std::nullopt;
    return Notarization{0, *h};
  }
  const SlotEntry* e = window_.find(slot);
  if (e == nullptr || !e->has_notarization) return std::nullopt;
  return e->notar;
}

std::optional<std::uint64_t> ChainStore::required_parent(Slot slot) const {
  TBFT_ASSERT(slot >= 1);
  const auto parent = notarized(slot - 1);
  if (!parent) return std::nullopt;
  return parent->hash;
}

std::size_t ChainStore::notarized_suffix_length() const {
  std::size_t len = 0;
  Slot s = first_unfinalized();
  std::uint64_t parent = finalized_tip_hash();
  while (true) {
    const auto n = notarized(s);
    if (!n) break;
    const Block* b = find_block(s, n->hash);
    if (b == nullptr || b->parent_hash != parent) break;
    parent = n->hash;
    ++len;
    ++s;
  }
  return len;
}

std::size_t ChainStore::try_finalize() {
  // Finalize the first block of every run of 4 consecutive notarized,
  // parent-linked blocks: equivalently, while the chain is followed by at
  // least 4 such blocks, finalize the first one (and thus its prefix).
  std::size_t finalized = 0;
  while (notarized_suffix_length() >= kFinalizingRun) {
    const Slot s = first_unfinalized();
    const auto n = notarized(s);
    SlotEntry* e = window_.find(s);
    TBFT_ASSERT(e != nullptr);
    Candidate* c = e->find(n->hash);
    TBFT_ASSERT(c != nullptr);
    // Move, don't copy: the slot is pruned right below, and the payload
    // bytes need to live on in the finalized tail anyway.
    const std::uint64_t h = c->hash;
    store_.append(std::move(c->block), h);
    ++finalized;
    // Notify per block while it is guaranteed resident (one append at a
    // time, so even a burst larger than the tail sees each block before
    // compaction). The hook may re-enter the node -- candidate pointers are
    // dead by now and the loop re-derives its state every iteration.
    if (on_finalized_) on_finalized_(*store_.block_at(s), h);
  }
  if (finalized > 0) prune_finalized();
  return finalized;
}

std::size_t ChainStore::pending_entries() const noexcept {
  std::size_t n = 0;
  window_.for_each([&n](Slot, const SlotEntry& e) {
    n += e.used + (e.has_notarization ? 1 : 0);
  });
  return n;
}

bool ChainStore::slot_has_pending_txs(Slot slot) const {
  const SlotEntry* e = window_.find(slot);
  if (e == nullptr || !e->has_notarization) return false;
  const Candidate* c = e->find(e->notar.hash);
  // Unknown content cannot be proven filler: report it pending so callers
  // keep driving finality (and catch-up) forward.
  return c == nullptr || c->has_txs;
}

bool ChainStore::candidate_has_txs(Slot slot, std::uint64_t hash) const {
  const SlotEntry* e = window_.find(slot);
  const Candidate* c = e == nullptr ? nullptr : e->find(hash);
  return c == nullptr || c->has_txs;
}

std::vector<std::span<const std::uint8_t>> ChainStore::pending_candidate_frames() const {
  std::vector<std::span<const std::uint8_t>> frames;
  window_.for_each([&](Slot s, const SlotEntry& e) {
    if (is_finalized(s)) return;
    for (std::size_t i = 0; i < e.used; ++i) {
      const Candidate& c = e.candidates[i];
      if (!c.has_txs) continue;
      for (const auto f : payload_frames(c.block.payload)) frames.push_back(f);
    }
  });
  return frames;
}

void ChainStore::prune_finalized() { window_.advance_base(first_unfinalized()); }

void ChainStore::restore_state(const Checkpoint& cp,
                               std::span<const std::uint8_t> commit_state,
                               std::vector<Block>&& tail) {
  const bool ok = store_.restore(cp, commit_state);
  // Local durable state is checksummed before it reaches here; a decode
  // failure means the checkpoint file lied about its own integrity.
  TBFT_ASSERT(ok);
  (void)ok;
  for (Block& b : tail) {
    TBFT_ASSERT(b.slot == first_unfinalized() && b.parent_hash == finalized_tip_hash());
    store_.append(std::move(b));
  }
  prune_finalized();
}

bool ChainStore::install_checkpoint(const Checkpoint& cp,
                                    std::span<const std::uint8_t> commit_state) {
  if (!store_.install_checkpoint(cp, commit_state)) return false;
  prune_finalized();
  return true;
}

}  // namespace tbft::multishot
