#pragma once
// Bounded transaction mempool for the multi-shot node (workload path,
// DESIGN_PERF.md): a FIFO of pending client transactions with an explicit
// capacity. A full pool refuses the arriving transaction (backpressure to
// the client): an admitted transaction is never evicted to make room.
//
// Entries carry an `inflight` mark while they sit in a proposed-but-not-yet-
// finalized block of this node, so the leader never includes the same
// transaction in two of its own pipelined blocks (exactly-once inclusion;
// the mark is released if the proposal is aborted by a view change, once the
// slot finalizes with someone else's block).
//
// Layout: entries live in stable cells (a Handle stays valid until its
// entry is erased, and freed cells are reused), threaded on a doubly linked
// list in admission order, so erasing from the middle shifts nothing. A
// flat open-addressing index over the cells answers byte-exact membership
// in O(1) (hash equality only pre-filters), and per-slot lists of inflight
// marks let a finalized slot release its marks without a pool scan. Every
// per-transaction operation is therefore independent of the pool's size;
// memory is bounded by the live high-water mark (<= capacity).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "runtime/time.hpp"

namespace tbft::multishot {

class BoundedMempool {
 public:
  /// Stable reference to a pooled entry, valid until that entry is erased.
  using Handle = std::uint32_t;
  static constexpr Handle kNone = ~Handle{0};

  struct Entry {
    /// The bytes and their hash are keys of the membership index: never
    /// mutate them through at().
    std::vector<std::uint8_t> tx;
    std::uint64_t hash{0};  // fnv1a64(tx), computed once at admission
    Slot slot{0};           // slot of that proposal (valid iff inflight)
    /// Excluded from this node's own batches until then: set when the entry
    /// was relayed to another leader (the relay owns it; the local copy is
    /// the fallback should the relay fail). 0 = batchable now; a lapsed or
    /// taken-back hold stays nonzero, so build_batch still probes the copy.
    runtime::Time hold_until{0};
    /// The leader this node last relayed the entry to (valid once
    /// hold_until != 0 on an entry admitted here): a view change off that
    /// leader takes the hold back.
    NodeId relay_to{0};
    /// The slot this node's relay ledger last aimed the entry at, its own
    /// or a foreign leader's (0 = not aimed: depth 1, or no window slot had
    /// room). An entry aimed at a slot of ours still to come waits for it.
    Slot aim{0};
    bool inflight{false};   // included in a proposed, unfinalized block
    /// Admitted via MsForwardTx: the origin keeps a fallback copy, so this
    /// entry has a twin elsewhere and must pass the build_batch dedup probes
    /// (commit index + pending candidates) before riding a proposal.
    bool relayed{false};
  };

  explicit BoundedMempool(std::size_t capacity) : capacity_(capacity) {}

  /// Admit `tx` as the newest entry (back()); false when the pool is full.
  /// Transactions larger than `max_tx_bytes` (0 = no limit) can never fit a
  /// batch; empty ones are indistinguishable from block filler padding --
  /// both are refused outright. A caller that already hashed the bytes
  /// passes `precomputed_hash` (0 = compute here; a true fnv of 0 only costs
  /// the recompute).
  bool push(std::vector<std::uint8_t> tx, std::size_t max_tx_bytes = 0,
            std::uint64_t precomputed_hash = 0) {
    if (tx.empty() || (max_tx_bytes != 0 && tx.size() > max_tx_bytes) ||
        size_ >= capacity_) {
      ++rejected_;
      return false;
    }
    const std::uint64_t hash = precomputed_hash != 0 ? precomputed_hash : fnv1a64(tx);
    Handle h = kNone;
    if (free_.empty()) {
      h = static_cast<Handle>(cells_.size());
      cells_.emplace_back();
    } else {
      h = free_.back();
      free_.pop_back();
    }
    Cell& c = cells_[h];
    c.entry = Entry{std::move(tx), hash};
    c.prev = tail_;
    c.next = kNone;
    (tail_ == kNone ? head_ : cells_[tail_].next) = h;
    tail_ = h;
    ++size_;
    index_insert(h);
    ++admitted_;
    return true;
  }

  /// The pending entry with exactly these bytes, or kNone (hash pre-filter,
  /// byte-exact confirm) -- the submit/relay dedup probe.
  [[nodiscard]] Handle find(std::uint64_t hash, std::span<const std::uint8_t> tx) const {
    if (index_.empty()) return kNone;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = home(hash); index_[i] != kNone; i = (i + 1) & mask) {
      const Entry& e = cells_[index_[i]].entry;
      if (e.hash == hash && e.tx.size() == tx.size() &&
          std::equal(e.tx.begin(), e.tx.end(), tx.begin())) {
        return index_[i];
      }
    }
    return kNone;
  }
  [[nodiscard]] bool contains(std::uint64_t hash, std::span<const std::uint8_t> tx) const {
    return find(hash, tx) != kNone;
  }

  [[nodiscard]] Entry& at(Handle h) noexcept { return cells_[h].entry; }
  [[nodiscard]] const Entry& at(Handle h) const noexcept { return cells_[h].entry; }

  /// Admission-order walk: front() is the oldest entry, next() the one
  /// admitted after it; both answer kNone past the end.
  [[nodiscard]] Handle front() const noexcept { return head_; }
  [[nodiscard]] Handle back() const noexcept { return tail_; }
  [[nodiscard]] Handle next(Handle h) const noexcept { return cells_[h].next; }

  /// Mark the entry as included in this node's proposal for `slot`.
  void mark_inflight(Handle h, Slot slot) {
    TBFT_ASSERT(slot != 0);  // slot 0 marks an unused list
    Entry& e = cells_[h].entry;
    if (!e.inflight) ++inflight_;
    e.inflight = true;
    e.slot = slot;
    marks_for(slot).push_back(h);
  }

  /// Return the entry to the available pool (its proposal was aborted).
  void release(Handle h) noexcept {
    Entry& e = cells_[h].entry;
    if (e.inflight) --inflight_;
    e.inflight = false;
    e.slot = 0;
  }

  /// Release every inflight mark for a slot <= `slot` (those slots' outcomes
  /// are settled). Visits only the marks of those slots.
  void release_through(Slot slot) {
    for (Marks& m : marks_) {
      if (m.slot == 0 || m.slot > slot) continue;
      for (const Handle h : m.handles) {
        // A mark can outlive its entry (erased, the cell maybe reused):
        // only a live mark at a settled slot is released.
        if (cells_[h].entry.inflight && cells_[h].entry.slot <= slot) release(h);
      }
      m.handles.clear();
      m.slot = 0;
    }
  }

  void erase(Handle h) {
    Cell& c = cells_[h];
    index_remove(h);
    (c.prev == kNone ? head_ : cells_[c.prev].next) = c.next;
    (c.next == kNone ? tail_ : cells_[c.next].prev) = c.prev;
    if (c.entry.inflight) --inflight_;
    c.entry = Entry{};  // drop the bytes now; the cell waits for reuse
    free_.push_back(h);
    --size_;
  }

  /// Erase every entry holding exactly these bytes (reconciliation against
  /// one frame of a finalized block).
  void erase_tx(std::uint64_t hash, std::span<const std::uint8_t> tx) {
    for (Handle h = find(hash, tx); h != kNone; h = find(hash, tx)) erase(h);
  }

  void clear() {
    while (head_ != kNone) erase(head_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Entries not currently included in an outstanding proposal.
  [[nodiscard]] std::size_t available() const noexcept { return size_ - inflight_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // Lifetime admission accounting (mirrored into MetricsRegistry by the node).
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  struct Cell {
    Entry entry;
    Handle prev{kNone};  // admission-order neighbours
    Handle next{kNone};
  };
  /// Handles marked inflight for one slot (slot 0 = unused, capacity kept).
  struct Marks {
    Slot slot{0};
    std::vector<Handle> handles;
  };

  [[nodiscard]] std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(mix64(hash)) & (index_.size() - 1);
  }

  /// Linear probing at load <= 1/2: the table doubles from 16 cells, so it
  /// never exceeds twice the capacity rounded up to a power of two.
  void index_insert(Handle h) {
    if (size_ * 2 > index_.size()) {
      std::vector<Handle> old(std::max<std::size_t>(16, index_.size() * 2), kNone);
      old.swap(index_);
      for (const Handle o : old) {
        if (o != kNone) place(o);
      }
    }
    place(h);
  }
  void place(Handle h) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(cells_[h].entry.hash);
    while (index_[i] != kNone) i = (i + 1) & mask;
    index_[i] = h;
  }

  /// Backward-shift deletion (no tombstones): each later member of the
  /// probe run moves into the hole unless its home lies cyclically in
  /// (hole, its position].
  void index_remove(Handle h) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = home(cells_[h].entry.hash);
    while (index_[hole] != h) hole = (hole + 1) & mask;
    for (std::size_t j = (hole + 1) & mask; index_[j] != kNone; j = (j + 1) & mask) {
      const std::size_t k = home(cells_[index_[j]].entry.hash);
      if (((j - k) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kNone;
  }

  /// The mark list of `slot`: honest proposals keep few slots outstanding,
  /// so a linear scan over the lists beats a map.
  std::vector<Handle>& marks_for(Slot slot) {
    Marks* spare = nullptr;
    for (Marks& m : marks_) {
      if (m.slot == slot) return m.handles;
      if (m.slot == 0 && spare == nullptr) spare = &m;
    }
    if (spare == nullptr) spare = &marks_.emplace_back();
    spare->slot = slot;
    return spare->handles;
  }

  std::size_t capacity_;
  std::vector<Cell> cells_;     // stable entry storage, <= capacity cells
  std::vector<Handle> free_;    // erased cells awaiting reuse
  std::vector<Handle> index_;   // open addressing over cells; kNone = empty
  std::vector<Marks> marks_;    // inflight marks per proposed slot
  Handle head_{kNone};
  Handle tail_{kNone};
  std::size_t size_{0};
  std::size_t inflight_{0};
  std::uint64_t admitted_{0};
  std::uint64_t rejected_{0};
};

}  // namespace tbft::multishot
