#pragma once
// Per-node chain state for multi-shot TetraBFT: candidate blocks per slot,
// notarization tracking (a quorum of votes for (slot, view, hash)), and the
// finalization rule -- the first block of four consecutively notarized,
// parent-linked blocks is finalized together with its prefix (paper §6.1).
//
// Storage discipline: candidate/notarization state lives in a flat
// SlotWindow ring over the bounded window of unfinalized slots
// (slot_window.hpp); finalized blocks move into a FinalizedStore
// (finalized_store.hpp) -- a bounded tail of recent blocks behind a
// compaction checkpoint plus a horizon-bounded commit index -- so storage
// is O(window + tail + horizon), never O(history) (see
// finalized_store.hpp). Slot slabs and the candidate blocks
// inside them recycle as the window advances, so steady-state
// add/notarize/finalize/prune performs zero heap allocations once the
// high-water mark is reached (asserted by bench_consensus; bench_storage
// asserts the bounded finalized side).
//
// Zero-alloc scope: the contract covers the state-layer *bookkeeping*
// (candidates, notarizations, vote tallies, pruning). Retaining a
// payload-bearing block's bytes in the finalized tail is inherent data
// storage and costs one buffer allocation per finalization cycle regardless
// of layout (the winning buffer moves into the tail and the recycled slot
// re-grows on its next use); bench_consensus therefore drives the layer
// with empty payloads to isolate exactly the bookkeeping.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "multishot/block.hpp"
#include "multishot/finalized_store.hpp"
#include "multishot/slot_window.hpp"

namespace tbft::multishot {

struct Notarization {
  View view{kNoView};
  std::uint64_t hash{0};
};

class ChainStore {
 public:
  explicit ChainStore(std::size_t tail_capacity = FinalizedStore::kDefaultTailCapacity,
                      LeaderSchedule schedule = {})
      : window_(kWindow + 1, 1), store_(tail_capacity, std::move(schedule)) {}

  /// Remember a candidate block (from a proposal). Returns false when the
  /// slot is outside the acceptance window (finalized or too far ahead).
  /// A slot holds at most kMaxCandidatesPerSlot distinct candidates; at the
  /// bound the oldest non-notarized candidate is displaced (the slot stays
  /// live under Byzantine re-proposal floods). `hash` must be b.hash(): the
  /// node hashes each block once where it enters and stores the hash with
  /// the candidate (and later in the finalized tail).
  bool add_block(const Block& b, std::uint64_t hash);
  bool add_block(const Block& b) { return add_block(b, b.hash()); }

  [[nodiscard]] const Block* find_block(Slot slot, std::uint64_t hash) const;

  /// Record that (slot, view, hash) reached a vote quorum. Later views
  /// override earlier notarizations of the same slot (a re-proposed aborted
  /// slot supersedes its tentative predecessor). Returns true when the
  /// notarization state changed. Slots outside the window are refused.
  bool notarize(Slot slot, View view, std::uint64_t hash);

  /// Adopt `hash` as `slot`'s notarization on the strength of a *child*
  /// notarization at `view` whose block links to it: a quorum that
  /// notarizes slot+1 pipeline-records phase votes for the parent at the
  /// same view (record_vote_effects), so the inference carries the child
  /// quorum's authority even when this slot's own vote window pruned those
  /// views long ago. Unlike notarize(), an *equal* view overrides -- the
  /// child's quorum is later in the pipeline -- but a lower one never does.
  bool adopt_parent_notarization(Slot slot, View view, std::uint64_t hash);

  /// Adopt a finalized block learned through f+1 matching claims; must
  /// extend the current finalized tip at the first unfinalized slot.
  /// Returns false (and leaves `b` untouched) otherwise; on success the
  /// block moves into the finalized tail. `hash` must be b.hash().
  bool force_finalize(Block&& b, std::uint64_t hash);
  bool force_finalize(const Block& b) { return force_finalize(Block{b}, b.hash()); }

  [[nodiscard]] std::optional<Notarization> notarized(Slot slot) const;

  /// Hash the next block of `slot` must extend: the notarization of slot-1
  /// (slot 1 extends genesis).
  [[nodiscard]] std::optional<std::uint64_t> required_parent(Slot slot) const;

  /// Run the finalization rule; newly finalized blocks are appended to the
  /// finalized store in slot order. Returns how many were finalized.
  std::size_t try_finalize();
  /// A block finalizes once it heads this many consecutive notarized,
  /// parent-linked blocks.
  static constexpr std::size_t kFinalizingRun = 4;

  /// Invoked once per newly finalized block (with its stored hash), in slot
  /// order, on BOTH finalization paths (rule and adoption), before the block
  /// can be compacted out of the tail. The multishot node routes its
  /// decision/mempool/commit bookkeeping through this.
  using FinalizedHook = std::function<void(const Block&, std::uint64_t hash)>;
  void set_on_finalized(FinalizedHook hook) {
    on_finalized_ = std::move(hook);
  }

  // --- Tail-aware finalized-side accessors (FinalizedStore passthrough) ---
  /// Number of finalized slots == tip slot (the former finalized_chain().size()).
  [[nodiscard]] Slot finalized_count() const noexcept { return store_.tip(); }
  /// Resident finalized block for `slot`, nullptr when unfinalized or
  /// compacted past the tail.
  [[nodiscard]] const Block* block_at(Slot slot) const noexcept {
    return store_.block_at(slot);
  }
  /// Stored hash of the resident finalized block at `slot` (no rehash).
  [[nodiscard]] std::optional<std::uint64_t> hash_at(Slot slot) const noexcept {
    return store_.hash_at(slot);
  }
  [[nodiscard]] Slot tail_first() const noexcept { return store_.tail_first(); }
  [[nodiscard]] const Checkpoint& checkpoint() const noexcept { return store_.checkpoint(); }
  [[nodiscard]] std::optional<std::uint64_t> prefix_digest(Slot slot) const {
    return store_.prefix_digest(slot);
  }
  /// Slot that committed this transaction (commit-index probe; 0 = none).
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx) const {
    return store_.commit_slot(tx);
  }
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx,
                                 std::uint64_t hash) const {
    return store_.commit_slot(tx, hash);
  }
  /// Exactly-once delivery probe: committed in [before - kDedupHorizon, before).
  [[nodiscard]] bool committed_before(std::span<const std::uint8_t> tx,
                                      std::uint64_t hash, Slot before) const {
    return store_.committed_before(tx, hash, before);
  }
  [[nodiscard]] const FinalizedStore& finalized() const noexcept { return store_; }

  [[nodiscard]] Slot first_unfinalized() const noexcept { return store_.tip() + 1; }
  [[nodiscard]] bool is_finalized(Slot slot) const noexcept {
    return slot >= 1 && slot <= store_.tip();
  }
  [[nodiscard]] std::uint64_t finalized_tip_hash() const noexcept {
    return store_.tip_hash();
  }

  /// How many consecutive notarized-but-unfinalized slots follow the chain.
  [[nodiscard]] std::size_t notarized_suffix_length() const;

  /// Upper bound on unfinalized state (candidate blocks + notarizations).
  [[nodiscard]] std::size_t pending_entries() const noexcept;

  /// True when unfinalized `slot` is notarized and its block either carries
  /// transaction frames or its content is unknown locally (conservatively
  /// pending). Idle-chain suppression input: filler-only suffixes need no
  /// further finality work.
  [[nodiscard]] bool slot_has_pending_txs(Slot slot) const;

  /// True when candidate (slot, hash) carries transaction frames -- or is
  /// not stored locally (unknown content is conservatively pending).
  [[nodiscard]] bool candidate_has_txs(Slot slot, std::uint64_t hash) const;

  /// Frames of every locally stored candidate of every unfinalized slot
  /// (spans borrow the candidates' payload storage -- valid until the next
  /// mutation). Forward-fallback resume probe: a relayed copy already riding
  /// a pending proposal means re-batching the local copy now could commit
  /// the same bytes twice; build_batch indexes one snapshot of these frames
  /// for all of its entries.
  [[nodiscard]] std::vector<std::span<const std::uint8_t>> pending_candidate_frames() const;

  /// Visit every stored candidate of every unfinalized slot as (slot,
  /// stored hash, block).
  template <class Fn>
  void for_each_candidate(Fn&& fn) const {
    window_.for_each([&](Slot s, const SlotEntry& e) {
      for (std::size_t i = 0; i < e.used; ++i) fn(s, e.candidates[i].hash, e.candidates[i].block);
    });
  }

  /// Window slabs ever allocated == peak unfinalized-slot occupancy
  /// (bounded-storage regression tests).
  [[nodiscard]] std::size_t window_slabs() const noexcept { return window_.slab_count(); }

  // --- durability & state transfer ---------------------------------------

  /// Resume an EMPTY chain from durable state: adopt the checkpoint, install
  /// the commit digest set (skipped when empty -- a pre-first-checkpoint
  /// restart has none), then replay the WAL tail blocks in slot order.
  /// Replay bypasses the on_finalized hook: these blocks were already
  /// committed/acknowledged in the previous life, and re-notifying would
  /// double-count them. Pre-start only (asserted via the empty-store
  /// contract of FinalizedStore::restore).
  void restore_state(const Checkpoint& cp, std::span<const std::uint8_t> commit_state,
                     std::vector<Block>&& tail);

  /// Adopt a vouched remote checkpoint ahead of the local tip (checkpoint
  /// state transfer): resets the finalized store onto the remote prefix,
  /// replaces the commit digest set, and prunes now-stale window state.
  /// Returns false (and changes nothing) when the checkpoint is not ahead
  /// or the commit blob is malformed.
  bool install_checkpoint(const Checkpoint& cp, std::span<const std::uint8_t> commit_state);

  /// Slots further than this past the finalized tip are rejected (defends
  /// storage against Byzantine far-future spam; honest traffic stays within
  /// the finality depth of 5).
  static constexpr Slot kWindow = 64;
  static_assert(kScheduleLag == kWindow + 1,
                "a replica handling slot s has finalized every slot <= s - kScheduleLag");
  /// Distinct candidate blocks tracked per slot (equivocation/re-proposal
  /// bound; honest slots see one candidate per view). Must be >= 2 so the
  /// displacement rule in add_block can always spare the notarized block.
  static constexpr std::size_t kMaxCandidatesPerSlot = 32;

 private:
  struct Candidate {
    std::uint64_t hash{0};  // b.hash(), computed once where the block entered
    bool has_txs{false};    // payload carries transaction frames
    Block block;
  };
  struct SlotEntry {
    std::vector<Candidate> candidates;  // high-water storage; `used` are live
    std::size_t used{0};
    std::size_t next_victim{0};  // displacement rotates oldest-first
    Notarization notar{};
    bool has_notarization{false};

    void reset() noexcept {
      used = 0;
      next_victim = 0;
      has_notarization = false;
    }
    [[nodiscard]] Candidate* find(std::uint64_t hash) noexcept {
      for (std::size_t i = 0; i < used; ++i) {
        if (candidates[i].hash == hash) return &candidates[i];
      }
      return nullptr;
    }
    [[nodiscard]] const Candidate* find(std::uint64_t hash) const noexcept {
      return const_cast<SlotEntry*>(this)->find(hash);
    }
  };

  void prune_finalized();

  SlotWindow<SlotEntry> window_;   // unfinalized candidate/notarization state
  FinalizedStore store_;           // bounded tail + checkpoint + commit index
  FinalizedHook on_finalized_;
};

}  // namespace tbft::multishot
