#pragma once
// Finalized-chain storage engine (DESIGN_PERF.md "Finalized-chain storage").
//
// The finalized side of the chain is bounded in both of its parts: resident
// BLOCK memory is O(tail) and the commit index is O(H x batch), whatever the
// chain length:
//
//  - a ring of the most recent `tail_capacity` finalized blocks (the tail)
//    serves every reader that needs block *content* -- the MsSyncChunk
//    replies to view changes and range requests, parent lookups, mempool
//    reconciliation;
//  - blocks that fall off the tail are folded into a Checkpoint: the slot of
//    the compaction boundary, a cumulative chain hash over every compacted
//    block (order-sensitive, so two stores with equal checkpoints hold the
//    same prefix), and the count of transactions committed below it;
//  - a flat open-addressing commit index maps every committed transaction
//    frame's hash to its slot at finalization time (an O(1) probe). It
//    keeps the commits of the dedup horizon behind the checkpoint (slots >
//    checkpoint.slot - kDedupHorizon), so commit queries keep answering for
//    recently compacted history.
//
// Invariants:
//  - tail covers exactly (checkpoint.slot, tip]; tail_first() == checkpoint
//    slot + 1; resident block count == tip - checkpoint.slot <= capacity;
//  - prefix_digest(s) (cumulative chain hash through slot s) is available
//    for any s in [checkpoint.slot, tip] and equal across consistent chains;
//  - the commit index holds every entry with slot > checkpoint.slot - H, so
//    every anchor a checkpoint-transfer responder serves ([checkpoint.slot,
//    tip]) still has its full window;
//  - append() is allocation-free in steady state for filler payloads: the
//    ring's capacity is reserved up front, checkpoint folding is
//    arithmetic, and the index only grows with committed transactions
//    (amortized doubling, and one survivor rebuild per H/2 slots of
//    compaction). bench_consensus keeps
//    asserting the zero-alloc contract; bench_storage's bounded-memory gates
//    measure the block side and the commit index at real batch sizes.
//
// Slot arithmetic discipline: Slot is a 64-bit domain, container indices are
// size_t. Every conversion funnels through slot_index()/slot_count() below,
// so the compaction offset can never silently truncate (the former
// `slot <= chain_.size()` Slot-vs-size_t comparisons are gone).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/serde.hpp"
#include "multishot/block.hpp"
#include "multishot/leader_schedule.hpp"

namespace tbft::multishot {

/// Checked Slot -> container-index narrowing: the one place the 64-bit slot
/// domain meets size_t. `base` is the first slot of the container's range.
[[nodiscard]] constexpr std::size_t slot_index(Slot s, Slot base) noexcept {
  TBFT_ASSERT(s >= base);
  return static_cast<std::size_t>(s - base);
}

/// Checked count -> Slot widening (counts of consecutive slots are slots).
[[nodiscard]] constexpr Slot slot_count(std::size_t n) noexcept {
  return static_cast<Slot>(n);
}

/// Compaction summary of every finalized block below the tail. Also the unit
/// of durability and of checkpoint state transfer: a store restored from a
/// Checkpoint (plus the commit digest set of its horizon) resumes exactly
/// where the compacted prefix ended.
struct Checkpoint {
  /// All slots <= slot are compacted (0 = nothing compacted yet).
  Slot slot{0};
  /// Cumulative chain hash through `slot`: fold of hash_combine over block
  /// hashes in slot order, seeded with kGenesisHash.
  std::uint64_t chain_hash{kGenesisHash};
  /// Transactions committed in compacted blocks (the digests of the last
  /// kDedupHorizon slots stay in the commit index).
  std::uint64_t tx_count{0};
  /// Hash of the block AT `slot` (kGenesisHash when slot == 0): the parent
  /// the first post-checkpoint block must link to. Without it a restored
  /// store could not validate force_finalize / WAL-replay linkage.
  std::uint64_t boundary_hash{kGenesisHash};

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;

  void encode(serde::Writer& w) const {
    w.u64(slot);
    w.u64(chain_hash);
    w.u64(tx_count);
    w.u64(boundary_hash);
  }
  static Checkpoint decode(serde::Reader& r) {
    Checkpoint cp;
    cp.slot = r.u64();
    cp.chain_hash = r.u64();
    cp.tx_count = r.u64();
    cp.boundary_hash = r.u64();
    return cp;
  }
};

/// Dedup horizon H, in slots: the commit index answers "was this
/// transaction committed?" exactly for the H slots behind any query point,
/// and forgets older commits. A protocol constant, never an option: the
/// finalization-time delivery filter reads the window [s - H, s), so every
/// replica must agree on H for delivery to stay identical across nodes.
///
/// Contract: an honest copy of a transaction is never re-included more
/// than H slots after its twin, so within H the filter keeps delivery
/// exactly-once; past H a client retry is a new transaction. The argument:
///  - a pool entry (held forward fallbacks and relayed copies included)
///    leaves when a finalized block carrying its bytes is reconciled
///    against the pool (note_finalized runs on every block a node
///    finalizes, by the rule or by adoption), and a node proposes only
///    slots within ChainStore::kWindow of its own finalized tip, so a copy
///    still pooled when its twin finalizes at slot t rides at most t +
///    kWindow;
///  - a copy admitted after its twin finalized locally is refused by
///    commit_slot only while the twin sits above checkpoint.slot - H. The
///    one in-protocol late admission is a relayed copy (MsForwardTx) whose
///    twin, the sender's fallback, committed once its hold lapsed or a
///    view change off the relay's leader took it back. The
///    relay is stamped with the sender's first unfinalized slot F, and the
///    twin commits no lower than F (the sender still pooled it there). A
///    receiver drops a relay stamped more than H - kWindow below its own
///    first unfinalized slot (multishot.forward.expired), so an admitted
///    relayed copy rides at most F + H: within H of its twin, however long
///    the relay was delayed;
///  - checkpoint state transfer skips per-block reconciliation: its
///    installed window (at - H, at] decides every entry exactly when the
///    jump is shorter than H, and a longer jump expires the whole
///    pre-install pool (multishot.mempool.expired) rather than guess. Such
///    an expired entry may never be delivered: clients retry on timeout;
///  - WAL replay re-delivers nothing (the pool is not durable).
inline constexpr Slot kDedupHorizon = 4096;
static_assert(kProbePeriod == kDedupHorizon, "a skipped leader probes once per dedup horizon");

/// Lowest slot a horizon anchored at `s` no longer covers: entries with
/// slot <= horizon_floor(s) are outside (s - H, s].
[[nodiscard]] constexpr Slot horizon_floor(Slot s) noexcept {
  return s > kDedupHorizon ? s - kDedupHorizon : 0;
}

/// Committed-transaction digest set: frame hash -> slot, one flat
/// open-addressing hash table (linear probing, power-of-two capacity).
/// Duplicate keys coexist (hash collisions between distinct transactions);
/// lookups walk the probe chain, so a collision can never mask a commit.
///
/// Bounded by the dedup horizon: the owner evicts by compaction progress
/// (evict_through), and each survivor rebuild drops everything at or below
/// the floor. Rebuilds run once per H/2 slots of floor progress, so their
/// cost is amortized O(1) per entry and resident memory is O(H x batch).
/// Physical eviction therefore lags the floor by up to H/2 slots; callers
/// filter by slot, so no answer depends on when a rebuild happened to run.
class CommitIndex {
 public:
  CommitIndex() { table_.resize(kInitialCapacity); }

  void insert(std::uint64_t key, Slot slot) {
    TBFT_ASSERT(slot != 0);  // slot 0 marks empty cells
    if ((used_ + 1) * 4 > table_.size() * 3) rebuild(table_.size() * 2, 0);
    reinsert(Entry{key, slot});
  }

  /// Visit the slot of every entry with this key, stopping early when `fn`
  /// returns true. Returns true when some visit did.
  template <class Fn>
  bool find(std::uint64_t key, Fn&& fn) const {
    std::size_t i = static_cast<std::size_t>(mix64(key)) & (table_.size() - 1);
    while (table_[i].slot != 0) {
      if (table_[i].key == key && fn(table_[i].slot)) return true;
      i = (i + 1) & (table_.size() - 1);
    }
    return false;
  }

  /// First-inserted slot for `key`, or 0 when absent.
  [[nodiscard]] Slot first_slot(std::uint64_t key) const {
    Slot found = 0;
    find(key, [&](Slot s) {
      found = s;
      return true;
    });
    return found;
  }

  /// Entries with slot <= `floor` may go: rebuild without them once the
  /// floor is H/2 slots past the last rebuild. Survivors move into the
  /// smallest capacity that fits them; a rebuild that would drop nothing
  /// and keep the capacity is skipped, so an index without commits never
  /// allocates.
  void evict_through(Slot floor) {
    if (floor < evicted_through_ + kDedupHorizon / 2) return;
    std::size_t cap = kInitialCapacity;
    std::size_t keep = 0;
    for (const Entry& e : table_) keep += e.slot > floor ? 1 : 0;
    while (keep * 4 > cap * 3) cap *= 2;
    if (keep != used_ || cap != table_.size()) rebuild(cap, floor);
    evicted_through_ = floor;
  }

  /// Canonical serialization of the entries in (at - H, at], sorted by
  /// (slot, key): two honest nodes produce byte-identical output for the
  /// same anchor, whenever each last evicted.
  void encode(serde::Writer& w, Slot at) const {
    std::vector<Entry> sorted;
    for (const Entry& e : table_) {
      if (e.slot > horizon_floor(at) && e.slot <= at) sorted.push_back(e);
    }
    std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
      return a.slot != b.slot ? a.slot < b.slot : a.key < b.key;
    });
    w.varint(sorted.size());
    for (const Entry& e : sorted) {
      w.u64(e.key);
      w.u64(e.slot);
    }
  }

  /// Replace the whole index with a blob encode(w, at) produced. Total:
  /// returns false and changes nothing on a truncated or trailing-garbage
  /// blob, or anything read() refuses.
  bool install(std::span<const std::uint8_t> blob, Slot at) {
    serde::Reader r(blob);
    auto fresh = read(r, at);
    if (!fresh || !r.done()) return false;
    *this = std::move(*fresh);
    return true;
  }

  /// Decode one encode(w, at) from `r`, which may continue past it (the
  /// commit-state blob). nullopt on a truncated index, a count the
  /// remaining bytes cannot hold (the resource bound: a peer's blob is
  /// capped by MsCheckpointChunk::kMaxStateBytes), an entry outside
  /// (at - H, at], or entries out of canonical order.
  static std::optional<CommitIndex> read(serde::Reader& r, Slot at) {
    const std::uint64_t count = r.varint();
    if (!r.ok() || count > r.remaining() / 16) return std::nullopt;
    CommitIndex fresh;
    Entry prev{};
    for (std::uint64_t i = 0; i < count; ++i) {
      const Entry e{r.u64(), r.u64()};
      if (e.slot <= horizon_floor(at) || e.slot > at || e.slot < prev.slot ||
          (e.slot == prev.slot && e.key < prev.key)) {
        return std::nullopt;
      }
      fresh.insert(e.key, e.slot);
      prev = e;
    }
    if (!r.ok()) return std::nullopt;
    fresh.evicted_through_ = horizon_floor(at);
    return fresh;
  }

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return table_.size() * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint64_t key{0};
    Slot slot{0};  // 0 = empty
  };
  static constexpr std::size_t kInitialCapacity = 64;

  void reinsert(const Entry& e) {
    std::size_t i = static_cast<std::size_t>(mix64(e.key)) & (table_.size() - 1);
    while (table_[i].slot != 0) i = (i + 1) & (table_.size() - 1);
    table_[i] = e;
    ++used_;
  }

  /// Move every entry above `floor` into a fresh table of `cap` cells.
  void rebuild(std::size_t cap, Slot floor) {
    std::vector<Entry> old(cap);
    old.swap(table_);
    used_ = 0;
    for (const Entry& e : old) {
      if (e.slot > floor) reinsert(e);
    }
  }

  std::vector<Entry> table_;
  std::size_t used_{0};
  Slot evicted_through_{0};  // entries at or below are gone
};

class FinalizedStore {
 public:
  /// Default tail: long enough that view-change and range-sync replies and
  /// every in-simulation consistency check read from resident blocks;
  /// tests exercising compaction pass a small capacity explicitly.
  static constexpr std::size_t kDefaultTailCapacity = 4096;

  /// `schedule` is the leader schedule the store advances with every
  /// finalized block and carries in its commit state; the default (no
  /// schedule) suits bare stores.
  explicit FinalizedStore(std::size_t tail_capacity = kDefaultTailCapacity,
                          LeaderSchedule schedule = {})
      : cap_(tail_capacity), schedule_(schedule), schedule_cp_(std::move(schedule)) {
    TBFT_ASSERT(tail_capacity >= 8);  // finalization bursts notify before compaction
    // Cells are constructed as slots first reach them: a young chain pays
    // for (and keeps resident) only the cells it has used.
    ring_.reserve(cap_);
  }

  /// Append the next finalized block (must be tip+1; linkage is the caller's
  /// contract -- ChainStore checks it). Compacts the oldest resident block
  /// into the checkpoint when the tail is full. `hash` must be b.hash(): the
  /// store keeps it beside the block, so no reader hashes the payload again.
  void append(Block&& b, std::uint64_t hash);
  void append(Block&& b) {
    const std::uint64_t hash = b.hash();
    append(std::move(b), hash);
  }

  /// Total finalized slots == tip slot (0 = empty chain).
  [[nodiscard]] Slot tip() const noexcept { return tip_; }
  [[nodiscard]] std::uint64_t tip_hash() const noexcept { return tip_hash_; }

  /// First slot still resident in the tail (tip+1 when nothing is resident).
  [[nodiscard]] Slot tail_first() const noexcept { return checkpoint_.slot + 1; }

  /// Resident finalized block, or nullptr when `s` is unfinalized or
  /// compacted past the tail.
  [[nodiscard]] const Block* block_at(Slot s) const noexcept {
    const Resident* r = resident(s);
    return r == nullptr ? nullptr : &r->block;
  }
  /// Stored hash of the resident block at `s` (== block_at(s)->hash()),
  /// nullopt when no block is resident there.
  [[nodiscard]] std::optional<std::uint64_t> hash_at(Slot s) const noexcept {
    const Resident* r = resident(s);
    if (r == nullptr) return std::nullopt;
    return r->hash;
  }

  [[nodiscard]] const Checkpoint& checkpoint() const noexcept { return checkpoint_; }

  /// Cumulative chain hash through slot `s` (see Checkpoint::chain_hash).
  /// Available for s in [checkpoint.slot, tip]; nullopt outside -- compacted
  /// prefixes below the checkpoint can no longer be digested per slot.
  [[nodiscard]] std::optional<std::uint64_t> prefix_digest(Slot s) const;

  /// Slot that committed a transaction with this frame hash (0 = none),
  /// answered for slots > checkpoint.slot - kDedupHorizon only: older
  /// commits answer 0 whether or not eviction has dropped them yet.
  /// Byte-exact for resident slots; compacted slots answer from the digest
  /// set alone (a 64-bit collision is the accepted false-positive bound).
  /// The second form takes the caller's precomputed fnv1a64(tx).
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx) const {
    return commit_slot(tx, fnv1a64(tx));
  }
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx,
                                 std::uint64_t hash) const;

  /// True when `tx` is committed at some slot in [before - kDedupHorizon,
  /// before). Exactly-once delivery probe: a frame finalizing at `before`
  /// that is already committed within the horizon is a duplicate inclusion
  /// and is filtered out of delivery. The window depends on `before` alone,
  /// so the filter is identical on every node -- never restarted, restored
  /// from disk, or caught up by checkpoint transfer.
  [[nodiscard]] bool committed_before(std::span<const std::uint8_t> tx,
                                      std::uint64_t hash, Slot before) const;

  [[nodiscard]] const CommitIndex& commit_index() const noexcept { return index_; }

  // --- durability & state transfer ---------------------------------------

  /// Resume an EMPTY store from a durable checkpoint and its commit state
  /// (empty before the first checkpoint): the compacted prefix is adopted
  /// wholesale, the tail restarts empty at checkpoint.slot. WAL replay then
  /// appends the surviving tail blocks. Pre-start only. Returns false (and
  /// changes nothing) when the commit state does not install.
  bool restore(const Checkpoint& cp, std::span<const std::uint8_t> commit_state) {
    TBFT_ASSERT(tip_ == 0);
    if (commit_state.empty()) {
      schedule_ = schedule_.empty_at(cp.slot);
      schedule_cp_ = schedule_;
    } else if (!install_commit_state(commit_state, cp.slot)) {
      return false;
    }
    checkpoint_ = cp;
    tip_ = cp.slot;
    tip_hash_ = cp.boundary_hash;
    return true;
  }

  /// Adopt a vouched remote checkpoint that is AHEAD of this store's tip,
  /// with its commit state (checkpoint state transfer). Everything resident
  /// is discarded -- the remote prefix subsumes it (both are finalized
  /// prefixes of the same chain). Returns false (and changes nothing) when
  /// cp is not ahead of the current tip or the commit state does not
  /// install.
  bool install_checkpoint(const Checkpoint& cp, std::span<const std::uint8_t> commit_state) {
    if (cp.slot <= tip_ || !install_commit_state(commit_state, cp.slot)) return false;
    ring_.clear();
    checkpoint_ = cp;
    tip_ = cp.slot;
    tip_hash_ = cp.boundary_hash;
    return true;
  }

  /// Recompute the checkpoint the store WOULD hold if compaction had folded
  /// everything through slot `s`: what a checkpoint-transfer responder
  /// serves for a requester-chosen anchor. Available for any s in
  /// [checkpoint.slot, tip]; nullopt outside (history below the checkpoint
  /// is gone, slots above the tip do not exist yet).
  [[nodiscard]] std::optional<Checkpoint> checkpoint_at(Slot s) const;

  /// Canonical commit state of anchor `at`, for any `at` in
  /// [checkpoint.slot, tip]: the digest set of slots (at - kDedupHorizon,
  /// at], then the leader schedule's state at `at` (defaults to the
  /// checkpoint slot). Paired with restore / install_checkpoint on the
  /// receiving side.
  void encode_commit_state(serde::Writer& w, Slot at) const {
    index_.encode(w, at);
    schedule_at(at).encode(w);
  }
  void encode_commit_state(serde::Writer& w) const { encode_commit_state(w, checkpoint_.slot); }

  /// The leader schedule as of the tip, and what appending the tip block
  /// did to it.
  [[nodiscard]] const LeaderSchedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] LeaderSchedule::Outcome last_outcome() const noexcept { return last_outcome_; }

  /// Bytes held live by the store: ring cells (block headers + stored
  /// hashes) + payload capacities + the index table (bench_storage's
  /// bounded-memory figure).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  [[nodiscard]] std::size_t tail_capacity() const noexcept { return cap_; }

 private:
  /// A resident block with its hash, computed once where the block entered.
  struct Resident {
    Block block;
    std::uint64_t hash{0};
  };

  [[nodiscard]] const Resident* resident(Slot s) const noexcept {
    if (s < tail_first() || s > tip_) return nullptr;
    return &ring_[slot_index(s, Slot{1}) % cap_];
  }

  /// Decode a commit-state blob (index, then schedule) anchored at `at` and
  /// adopt both halves, or neither: false on a malformed blob, trailing
  /// bytes included.
  bool install_commit_state(std::span<const std::uint8_t> blob, Slot at);
  /// The schedule's state at `at` in [checkpoint.slot, tip]: the
  /// checkpoint's state advanced over the resident blocks through `at`.
  [[nodiscard]] LeaderSchedule schedule_at(Slot at) const;

  /// Whether the index entry (s, hash of tx) stands for `tx`: byte-checked
  /// against a resident block, trusted for a compacted one.
  [[nodiscard]] bool vouches(Slot s, std::span<const std::uint8_t> tx) const;

  std::size_t cap_;
  std::vector<Resident> ring_;  // index = (slot - 1) % cap_
  Slot tip_{0};
  std::uint64_t tip_hash_{kGenesisHash};
  Checkpoint checkpoint_{};
  CommitIndex index_;
  LeaderSchedule schedule_;     // as of tip_
  LeaderSchedule schedule_cp_;  // as of checkpoint_.slot
  LeaderSchedule::Outcome last_outcome_{LeaderSchedule::Outcome::kLed};
};

}  // namespace tbft::multishot
