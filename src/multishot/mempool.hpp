#pragma once
// Bounded transaction mempool for the multi-shot node (workload path,
// DESIGN_PERF.md): a FIFO of pending client transactions with an explicit
// capacity, replacing the seed's unbounded std::deque. A full pool refuses
// the arriving transaction (backpressure to the client): an admitted
// transaction is never evicted to make room.
//
// Entries carry an `inflight` mark while they sit in a proposed-but-not-yet-
// finalized block of this node, so the leader never includes the same
// transaction in two of its own pipelined blocks (exactly-once inclusion;
// the mark is released if the proposal is aborted by a view change, once the
// slot finalizes with someone else's block).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "runtime/time.hpp"

namespace tbft::multishot {

class BoundedMempool {
 public:
  struct Entry {
    std::vector<std::uint8_t> tx;
    std::uint64_t hash{0};  // fnv1a64(tx), computed once at admission
    bool inflight{false};   // included in a proposed, unfinalized block
    Slot slot{0};           // slot of that proposal (valid iff inflight)
    /// Excluded from this node's own batches until then: set when the entry
    /// was forwarded to the frontier leader (the relay owns it; the local
    /// copy is the fallback should the relay fail). 0 = batchable now.
    runtime::Time hold_until{0};
    /// Admitted via MsForwardTx: the origin keeps a fallback copy, so this
    /// entry has a twin elsewhere and must pass the build_batch dedup probes
    /// (commit index + pending candidates) before riding a proposal.
    bool relayed{false};
  };

  explicit BoundedMempool(std::size_t capacity) : capacity_(capacity) {}

  /// Admit `tx`; false when the pool is full. Transactions larger than
  /// `max_tx_bytes` (0 = no limit) can never fit a batch; empty ones are
  /// indistinguishable from block filler padding -- both are refused
  /// outright. A caller that already hashed the bytes passes
  /// `precomputed_hash` (0 = compute here; a true fnv of 0 only costs the
  /// recompute).
  bool push(std::vector<std::uint8_t> tx, std::size_t max_tx_bytes = 0,
            std::uint64_t precomputed_hash = 0) {
    if (tx.empty() || (max_tx_bytes != 0 && tx.size() > max_tx_bytes) ||
        entries_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    const std::uint64_t hash = precomputed_hash != 0 ? precomputed_hash : fnv1a64(tx);
    entries_.push_back(Entry{std::move(tx), hash, false, 0});
    ++admitted_;
    return true;
  }

  /// True when an identical transaction is already pending (hash pre-filter,
  /// byte-exact confirm) -- the submit/relay dedup probe.
  [[nodiscard]] bool contains(std::uint64_t hash, std::span<const std::uint8_t> tx) const {
    for (const auto& e : entries_) {
      if (e.hash == hash && e.tx.size() == tx.size() &&
          std::equal(e.tx.begin(), e.tx.end(), tx.begin())) {
        return true;
      }
    }
    return false;
  }

  /// Mark `e` as included in this node's proposal for `slot`.
  void mark_inflight(Entry& e, Slot slot) noexcept {
    if (!e.inflight) ++inflight_;
    e.inflight = true;
    e.slot = slot;
  }

  /// Return `e` to the available pool (its proposal was aborted).
  void release(Entry& e) noexcept {
    if (e.inflight) --inflight_;
    e.inflight = false;
    e.slot = 0;
  }

  std::deque<Entry>::iterator erase(std::deque<Entry>::iterator it) {
    if (it->inflight) --inflight_;
    return entries_.erase(it);
  }

  [[nodiscard]] std::deque<Entry>& entries() noexcept { return entries_; }
  [[nodiscard]] const std::deque<Entry>& entries() const noexcept { return entries_; }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Entries not currently included in an outstanding proposal.
  [[nodiscard]] std::size_t available() const noexcept { return entries_.size() - inflight_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // Lifetime admission accounting (mirrored into MetricsRegistry by the node).
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  std::size_t capacity_;
  std::deque<Entry> entries_;
  std::size_t inflight_{0};
  std::uint64_t admitted_{0};
  std::uint64_t rejected_{0};
};

}  // namespace tbft::multishot
