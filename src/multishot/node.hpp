#pragma once
// The Multi-shot (pipelined) TetraBFT node, paper §6.
//
// Good case (§6.1, Fig. 2): the leader of slot s+1 proposes as soon as it
// receives the proposal for slot s; a node votes for block b_s once b_{s-1}
// is notarized (a quorum of votes) and b_s extends it. One vote message per
// slot carries the four implicit phases of the four preceding slots, so a
// block is notarized every message delay and finalized when four
// consecutive parent-linked notarizations exist (depth-4 commit rule).
//
// View change (§6.2, Fig. 3, Algorithms 2-3): per-slot 9*Delta timers; a
// timeout broadcasts a view-change naming the lowest unfinalized slot;
// n-f view-changes move every started slot >= s to the new view, abort
// their tentative blocks, and trigger per-slot suggest/proof exchange so
// leaders re-propose safe values under Rules 1/3 (reused verbatim from the
// single-shot rules engine, with block hashes as values).
//
// Engineering completions mirroring the single-shot node (core/node.hpp):
// monotone view-change counting per slot, and catch-up: a view-change for
// an already-finalized slot is answered with an MsSyncChunk of the blocks
// from that slot, the same reply a range request gets (adopted on f+1
// matching claims, kept in the same per-slot state as the votes).
//
// State layout (DESIGN_PERF.md "Consensus state layer"): per-slot state
// lives in a flat SlotWindow ring over the bounded unfinalized window, with
// flat view/vote containers inside each slab (slot_window.hpp), so
// steady-state vote/proposal processing performs zero heap allocations.
// Timer-to-slot resolution scans the window (timers fire orders of magnitude
// less often than votes arrive), replacing the std::map reverse indices.
//
// Idle-chain suppression (unbounded chains, max_slots == 0): a leader skips
// its fresh filler proposal -- and nodes let their view timers go dormant --
// when no work is pending: the mempool is empty, no unfinalized slot holds
// a transaction-bearing (or content-unknown) proposal or notarization, and
// no view-change traffic is newer than the slots' views. Submissions,
// proposals and view-change messages re-arm dormant slots, so a loaded run
// quiesces naturally and resumes on new traffic.
//
// Bounded and unbounded chains run one rule set: client relay, re-relay of
// stranded work and catch-up resume alike. max_slots only caps proposals
// (and exempts the chain from idle suppression).

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/serde.hpp"
#include "common/types.hpp"
#include "core/rules.hpp"
#include "core/vote_record.hpp"
#include "multishot/chain.hpp"
#include "multishot/mempool.hpp"
#include "multishot/messages.hpp"
#include "multishot/slot_window.hpp"
#include "runtime/host.hpp"

namespace tbft::storage {
class DurableChain;
}  // namespace tbft::storage

namespace tbft::multishot {

struct MultishotConfig {
  std::uint32_t n{4};
  std::uint32_t f{1};
  runtime::Duration delta_bound{10 * runtime::kMillisecond};
  std::uint32_t timeout_delta_multiple{9};
  /// Leaders do not propose blocks for slots beyond this (0 = unbounded).
  /// That cap is its only effect on the protocol, apart from idle
  /// suppression, which runs on unbounded chains only (header comment).
  /// Every production path runs unbounded; tests and benches bound a run.
  Slot max_slots{0};
  /// Payload bytes attached to fresh blocks when the mempool is empty.
  std::uint32_t default_payload_bytes{8};

  // --- Finalized-chain storage (DESIGN_PERF.md "Finalized-chain storage") ---
  /// Resident finalized blocks kept behind the compaction checkpoint; serves
  /// the MsSyncChunk replies to view changes and range requests. Tests
  /// exercising compaction set this small.
  std::size_t finalized_tail{FinalizedStore::kDefaultTailCapacity};

  // --- Leader batching / mempool (workload path, DESIGN_PERF.md) ---
  /// Most transactions a fresh block carries.
  std::uint32_t max_batch_txs{16};
  /// Payload byte budget of a fresh block (frames + nonce; at least one
  /// transaction is always included). Also caps admissible transaction size.
  std::uint32_t max_batch_bytes{4096};
  /// Mempool capacity; a full pool refuses new transactions.
  std::size_t mempool_capacity{1024};

  // --- Slot pipelining + adaptive batching (DESIGN_PERF.md) ---
  /// Stripe length: how many consecutive slots one leader owns per view.
  /// Depth 1 is the classic per-slot rotation (byte-identical to the
  /// pre-pipelining protocol). Depth does not widen the run-ahead: at every
  /// depth a fresh proposal runs at most one slot past the notarized suffix
  /// (stripe pacing, see try_propose), exactly Fig. 2's good case.
  std::uint32_t pipeline_depth{1};
  /// Adaptive batching ceiling: when > max_batch_txs, the effective batch
  /// caps of a fresh proposal scale with the observed mempool backlog
  /// (spread across this node's in-flight led slots) up to this many
  /// transactions, with the byte budget scaled in proportion. An idle or
  /// lightly loaded pool stays at the base caps, so single-transaction
  /// latency and the idle-quiescence contract are untouched. 0 = fixed caps.
  std::uint32_t adaptive_batch_txs{0};

  [[nodiscard]] QuorumParams quorum_params() const { return {n, f}; }
  [[nodiscard]] runtime::Duration view_timeout() const {
    return static_cast<runtime::Duration>(timeout_delta_multiple) * delta_bound;
  }
  /// The base rotation over pipeline stripes (rotation_leader): slots are
  /// assigned in runs of `pipeline_depth`, and views rotate the stripe
  /// owner. Replicas run MultishotNode::leader_of, which equals this while
  /// no node is skipped for a failed lead (leader_schedule.hpp).
  [[nodiscard]] NodeId leader_of(Slot s, View v) const {
    return rotation_leader(s, v, n, pipeline_depth);
  }
  /// Hard ceiling on a fresh proposal's payload byte budget once adaptive
  /// batching may widen batches.
  [[nodiscard]] std::uint64_t adaptive_bytes_ceiling() const {
    if (adaptive_batch_txs <= max_batch_txs) return max_batch_bytes;
    return static_cast<std::uint64_t>(max_batch_bytes) * adaptive_batch_txs /
           std::max<std::uint32_t>(1, max_batch_txs);
  }
  /// The largest payload an honest leader builds: a batch within the
  /// adaptive byte ceiling; or the view nonce plus one admissible
  /// transaction frame (a batch always takes its first transaction); or
  /// filler padding. Replicas refuse larger proposals, and the socket frame
  /// limit is sized from it.
  [[nodiscard]] std::uint64_t max_payload_bytes() const {
    const std::uint64_t one_tx = serde::varint_size(~std::uint64_t{0}) +
                                 serde::varint_size(max_batch_bytes) + max_batch_bytes;
    return std::max({adaptive_bytes_ceiling(), one_tx,
                     static_cast<std::uint64_t>(default_payload_bytes)});
  }
};

// --- f-scaled Byzantine fan-out bounds (exercised at n = 64/128) ----------
// Floors keep small-committee behavior (and recorded traces) identical;
// at large f the bounds scale so a flooder set cannot exhaust a slab before
// the honest entry lands.

/// Distinct claimed blocks tracked per slot during catch-up (honest claims
/// agree; only Byzantine senders fan out). Historical floor.
inline constexpr std::size_t kMaxClaimsPerSlot = 32;
/// Per-slot claim bound: each Byzantine sender can create at most one claim
/// (ClaimSet::sender_has_claim), so f + 2 entries always leave room for the
/// honest hash (f = 21/42 at n = 64/128).
[[nodiscard]] constexpr std::size_t max_claims_per_slot(std::uint32_t f) noexcept {
  return kMaxClaimsPerSlot > f + 2 ? kMaxClaimsPerSlot : f + 2;
}

/// Distinct (checkpoint, state hash/size) identities tolerated per
/// checkpoint fetch before Byzantine fan-out is ignored (honest answers for
/// one anchor agree up to rotation skew). Historical floor.
inline constexpr std::size_t kMaxCkptIdentities = 4;
/// Each Byzantine sender can push at most a few bogus identities before its
/// vouch is spent; f + 1 slots guarantee an honest identity is never crowded
/// out at large n.
[[nodiscard]] constexpr std::size_t max_ckpt_identities(std::uint32_t f) noexcept {
  return kMaxCkptIdentities > f + 1 ? kMaxCkptIdentities : f + 1;
}

class MultishotNode : public runtime::ProtocolNode {
 public:
  explicit MultishotNode(MultishotConfig cfg);

  void on_start() override;
  void on_message(NodeId from, const Payload& payload) override;
  void on_timer(runtime::TimerId id) override;

  /// Submit a transaction; included in the next fresh block this node
  /// proposes, removed once observed in the finalized chain. Returns false
  /// when the bounded mempool refuses it (full, or larger
  /// than max_batch_bytes) -- the backpressure signal clients see.
  /// Dedup holds within the dedup horizon (kDedupHorizon slots): a retry of
  /// a transaction committed fewer than H slots ago is acknowledged without
  /// a second delivery; past H a retry is a new transaction. An admitted
  /// transaction can still expire undelivered when this node catches up by
  /// a checkpoint transfer of H or more slots (multishot.mempool.expired),
  /// so clients retry on timeout.
  bool submit_tx(std::vector<std::uint8_t> tx);

  [[nodiscard]] const ChainStore& chain() const noexcept { return chain_; }
  /// Tail-aware finalized-chain accessors (the former finalized_chain()
  /// vector is gone: finalized history is a bounded tail behind a
  /// compaction checkpoint, see finalized_store.hpp).
  [[nodiscard]] Slot finalized_count() const noexcept { return chain_.finalized_count(); }
  [[nodiscard]] const Block* block_at(Slot s) const noexcept { return chain_.block_at(s); }
  [[nodiscard]] View view_of(Slot s) const;
  [[nodiscard]] const MultishotConfig& config() const noexcept { return cfg_; }
  /// Leader of (s, v): the base rotation with the nodes that failed their
  /// last view-0 lead skipped, read from finalized history kScheduleLag
  /// slots back (leader_schedule.hpp). Every replica agrees on it for any
  /// slot inside its window; outside it the answer is a best guess.
  [[nodiscard]] NodeId leader_of(Slot s, View v) const {
    return chain_.finalized().schedule().leader_of(s, v);
  }
  /// Nodes skipped as view-0 leaders as of the finalized tip, ascending.
  [[nodiscard]] std::span<const NodeId> skipped_leaders() const noexcept {
    return chain_.finalized().schedule().skipped();
  }
  /// The next slot a view-0 fresh proposal would go to: first unfinalized
  /// slot past the notarized suffix.
  [[nodiscard]] Slot proposal_frontier() const {
    return chain_.first_unfinalized() + chain_.notarized_suffix_length();
  }
  /// Triage snapshot of slot s (undrained fuzz seeds): its current view,
  /// whether this node proposed in it, and whether a proposal for it arrived.
  struct SlotProbe {
    View view{0};
    bool proposed{false};
    bool proposal_seen{false};
  };
  [[nodiscard]] SlotProbe probe_slot(Slot s) const;

  /// Bench instrumentation: record the first time each slot notarizes /
  /// each proposal for a slot arrives (unbounded; off by default).
  void set_record_timeline(bool on) noexcept { record_timeline_ = on; }
  [[nodiscard]] const std::map<Slot, runtime::Time>& notarized_at() const noexcept {
    return notarized_at_;
  }
  [[nodiscard]] const std::map<Slot, runtime::Time>& first_proposal_at() const noexcept {
    return first_proposal_at_;
  }

  /// True iff `tx` appears in some finalized block's payload. O(1) commit-
  /// index probe (finalized_store.hpp), replacing the whole-chain scan;
  /// answers for compacted history through the checkpoint digest set.
  [[nodiscard]] bool tx_finalized(std::span<const std::uint8_t> tx) const;

  /// Workload accounting: invoked once per newly finalized block, in slot
  /// order, with the finalization time (src/workload/tracker.hpp).
  using CommitHook = std::function<void(const Block&, runtime::Time)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  [[nodiscard]] const BoundedMempool& mempool() const noexcept { return mempool_; }

  /// Slot-state slabs ever allocated == peak concurrently-live slots
  /// (bounded-storage regression tests).
  [[nodiscard]] std::size_t slot_slabs() const noexcept { return slots_.slab_count(); }

  // --- Durability (src/storage/) ---
  /// Resume the chain from durable state (checkpoint + commit blob + WAL
  /// tail). Pre-start only: replay bypasses commit/mempool hooks -- those
  /// blocks were acknowledged in the previous life.
  void restore_chain(const Checkpoint& cp, std::span<const std::uint8_t> commit_state,
                     std::vector<Block> tail) {
    chain_.restore_state(cp, commit_state, std::move(tail));
    // The slot window starts at slot 1; a restored chain resumes at its
    // recovered frontier. Without this advance every slot_state() probe at
    // the frontier lands outside the ring and the node can never arm a
    // timer or propose again. The window is empty pre-start, so no eviction
    // (timer cancellation) runs.
    slots_.advance_base(chain_.first_unfinalized());
  }
  /// Persist every newly finalized block through `d` (WAL append + periodic
  /// durable checkpoint) before it is acknowledged. `d` must outlive the
  /// node; nullptr detaches. The node runs fully in-memory without one.
  void set_durable(storage::DurableChain* d) noexcept { durable_ = d; }

 protected:
  // Byzantine subclasses override.
  virtual void do_propose(Slot s, View v, const Block& block);

  /// One encode, n-way shared payload, decode cache attached (broadcast).
  void broadcast_ms(const MsMessage& m) {
    ctx().broadcast(encode_ms_payload(m, scratch_, /*cache_decoded=*/true));
  }
  /// Point-to-point: bytes only; receivers take the total-decode path.
  void send_ms(NodeId dst, const MsMessage& m) {
    ctx().send(dst, encode_ms_payload(m, scratch_, /*cache_decoded=*/false));
  }

 private:
  /// Bound on per-slot containers keyed by view (defends against Byzantine
  /// view-number spam; honest traffic uses a handful of views).
  static constexpr std::size_t kMaxTrackedViewsPerSlot = 32;
  /// Range-sync pipeline depth: finalized-block claims live in the slot
  /// window (SlotState::claims), so blocks past it could not be claimed yet.
  static constexpr Slot kSyncPipelineDepth = ChainStore::kWindow;
  /// Slots a view-change reply covers from the asked slot: gaps this short
  /// heal without a range request.
  static constexpr Slot kViewChangeReplySlots = 4;
  /// Alternate equivocating blocks stored per slot via the proposal path
  /// (beyond each view's recorded first proposal).
  static constexpr std::uint8_t kMaxExtraCandidatesPerSlot = 4;

  /// Claimed finalized blocks of one slot (from MsSyncChunk replies):
  /// hash -> {senders, block}, adopted on f+1 matching senders.
  struct ClaimSet {
    struct Claim {
      std::uint64_t hash{0};
      NodeBitmap senders;
      Block block;
    };
    std::vector<Claim> claims;  // high-water storage; `used` are live
    std::size_t used{0};

    void reset() noexcept { used = 0; }
    [[nodiscard]] Claim* find(std::uint64_t hash) noexcept {
      for (std::size_t i = 0; i < used; ++i) {
        if (claims[i].hash == hash) return &claims[i];
      }
      return nullptr;
    }
    /// True when `id` already backs some claim for this slot. Honest
    /// finalized chains agree per slot, so an honest sender only ever
    /// claims one hash: a sender fanning out to a second distinct hash is
    /// provably Byzantine and may not occupy further claim entries (keeps
    /// one flooder from exhausting the per-slot bound and blocking honest
    /// catch-up claims).
    [[nodiscard]] bool sender_has_claim(NodeId id) const noexcept {
      for (std::size_t i = 0; i < used; ++i) {
        if (claims[i].senders.contains(id)) return true;
      }
      return false;
    }
    Claim* add(std::uint64_t hash, std::uint32_t n, std::size_t max_claims) {
      if (used == max_claims) return nullptr;
      if (used == claims.size()) claims.push_back({});
      Claim& c = claims[used++];
      c.hash = hash;
      c.senders.reset(n);
      return &c;
    }
  };

  struct SlotState {
    bool started{false};
    View view{0};
    runtime::TimerId timer{0};
    View highest_vc_sent{kNoView};
    std::vector<View> vc_highest;                        // per sender
    ViewHashMap proposal_by_view{kMaxTrackedViewsPerSlot};  // leader's block hash
    VoteLedger votes{kMaxTrackedViewsPerSlot * 4};
    ViewHashMap voted{kMaxTrackedViewsPerSlot};  // my head vote per view
    bool proposed{false};                        // I proposed in the current view
    /// Alternate (equivocating) blocks stored for this slot beyond the
    /// first-per-view ones. Bounded per *slot* (a leader of several views
    /// of one slot could otherwise alternate views to flood candidates).
    std::uint8_t extra_candidates{0};
    /// Content-recovery want: the hash whose bytes this node asked peers
    /// for (MsBlockRequest). Replies are accepted only against this or the
    /// slot's recorded notarization hash.
    std::uint64_t wanted_hash{0};
    core::VoteRecord record;                     // implicit per-slot phase history
    std::vector<std::optional<MsSuggest>> suggests;  // latest per sender
    std::vector<std::optional<MsProof>> proofs;      // latest per sender
    ClaimSet claims;  // finalized-block claims for this slot (catch-up)

    /// SlotWindow recycle hook: logical defaults, capacity kept. Per-sender
    /// vectors re-clear at their current size; size_for() sizes fresh slabs.
    void reset() {
      started = false;
      view = 0;
      timer = 0;
      highest_vc_sent = kNoView;
      vc_highest.assign(vc_highest.size(), kNoView);
      proposal_by_view.reset();
      votes.reset();
      voted.reset();
      proposed = false;
      extra_candidates = 0;
      wanted_hash = 0;
      record = core::VoteRecord{};
      suggests.assign(suggests.size(), std::nullopt);
      proofs.assign(proofs.size(), std::nullopt);
      claims.reset();
    }
    void size_for(std::uint32_t n) {
      vc_highest.assign(n, kNoView);
      suggests.assign(n, std::nullopt);
      proofs.assign(n, std::nullopt);
    }
  };

  /// Slots this node tracks: unfinalized and at most kWindow past the
  /// first unfinalized slot. The schedule is agreed exactly on these.
  [[nodiscard]] bool in_window(Slot s) const noexcept {
    return s >= 1 && !chain_.is_finalized(s) &&
           s <= chain_.first_unfinalized() + ChainStore::kWindow;
  }
  SlotState* slot_state(Slot s, bool create);
  void start_slot(Slot s);
  void arm_timer(Slot s);
  /// Re-arm a dormant (started, timer-less) slot; starts it if unknown.
  void wake_slot(Slot s);
  /// True when no *work* is pending anywhere this node can see: empty
  /// mempool, no transaction-bearing (or content-unknown) proposal or
  /// notarization at any unfinalized slot, and no view-change traffic newer
  /// than the slots' current views. The pipeline's own filler momentum does
  /// not count as work. Gated on max_slots == 0.
  [[nodiscard]] bool idle_quiescent() const;

  void try_propose(Slot s);
  /// Slots this node proposed that are still unfinalized under its
  /// leadership -- the in-flight count the adaptive batch control law
  /// spreads the backlog across. Bounded window sweep, proposal-time only.
  [[nodiscard]] std::uint32_t led_inflight() const;
  void try_vote(Slot s);
  void record_vote_effects(Slot s, View v, const Block& head, std::uint64_t head_hash);
  void on_notarized(Slot s);
  void finalize_progress();

  void handle(NodeId from, const MsProposal& m);
  void handle(NodeId from, const MsVote& m);
  void handle(NodeId from, const MsSuggest& m);
  void handle(NodeId from, const MsProof& m);
  void handle(NodeId from, const MsViewChange& m);
  void handle(NodeId from, const MsSyncRequest& m);
  void handle(NodeId from, const MsSyncChunk& m);
  void handle(NodeId from, const MsForwardTx& m);
  void handle(NodeId from, const MsCheckpointRequest& m);
  void handle(NodeId from, const MsCheckpointChunk& m);
  void handle(NodeId from, const MsBlockRequest& m);
  void handle(NodeId from, const MsBlockReply& m);

  // --- Unfinalized-block content recovery ---
  /// Broadcast a request for the bytes of (s, hash): a notarization formed
  /// from votes alone, or a Rule-1-forced re-proposal value, can reference
  /// content this node never received -- and churn can have crash-dropped it
  /// from the nodes that voted (unfinalized blocks are not durable).
  /// MsSyncChunk serves finalized blocks only, so without this path a
  /// content-unknown hash at the frontier wedges the chain through every
  /// future view (the seeded fuzzer finds exactly that schedule).
  void request_block_content(Slot s, std::uint64_t hash, bool retransmit = false);
  void heal_notarization_seams();

  // --- Range-sync catch-up (requester side) ---
  /// Fold a peer's advertised frontier into the sync target and (re)issue a
  /// ranged request when the gap is past what view-change replies can close.
  void note_frontier(Slot frontier);
  void maybe_request_sync();
  void send_sync_request();
  /// Range-sync and checkpoint-fetch progress timeout (re-request cadence).
  [[nodiscard]] runtime::Duration sync_timeout() const noexcept {
    return 3 * cfg_.delta_bound;
  }
  /// The chunk of resident finalized blocks [from, upto), clamped at the
  /// frontier and kMaxBlocksPerChunk, or the refusal hint (start = 0) when
  /// `from` was compacted past the tail or is not finalized here. Builds
  /// every MsSyncChunk: range replies and view-change replies alike.
  [[nodiscard]] MsSyncChunk sync_chunk(Slot from, Slot upto) const;

  // --- Finalized-block claims (from MsSyncChunk replies) ---
  void note_block_claim(NodeId from, const Block& b);
  /// Adopt claims with f+1 matching senders, in chain order; runs the
  /// post-adoption wake/vote/propose hooks. Returns how many were adopted.
  std::size_t adopt_ready_claims();

  // --- Client-request forwarding ---
  /// How long the submitter's local fallback copy stays out of its own
  /// batches after forwarding, unless a view change off the relay's leader
  /// takes it back first (take_back_relays): the fallback for a relay lost
  /// to a live leader.
  [[nodiscard]] runtime::Duration forward_retry() const noexcept {
    return 2 * cfg_.view_timeout();
  }
  /// The leader a relayed request goes to: at depth 1 the proposal
  /// frontier's leader; deeper, the leader of the first slot at or past the
  /// frontier this node has seen no proposal for at the slot's current view
  /// (the frontier stripe's proposals are usually already out).
  [[nodiscard]] NodeId relay_target() const;
  /// Relay a freshly admitted local submission to relay_target() when that
  /// is not us; holds the local copy out of our own batches meanwhile.
  void forward_if_foreign_leader(BoundedMempool::Entry& e);
  /// Send `e` to `leader`, stamped, and hold the local copy.
  void relay(BoundedMempool::Entry& e, NodeId leader);
  /// Depth > 1: once relay_target() moves from this node to a foreign
  /// leader, relay the work admitted while this node was the target (never
  /// relayed, not held, not inflight), one stripe's worth to each new
  /// target in turn -- otherwise it waits a whole stripe rotation, or a
  /// view change when the next leaders go idle. A skipped node relays its
  /// stranded work the same way, at any depth, and also relays again
  /// whatever it relayed before once that hold lapses: it leads nothing, so
  /// its own batches never take the copy back.
  void rerelay_on_target_edge();
  [[nodiscard]] bool self_skipped() const {
    const auto skipped = skipped_leaders();
    return std::binary_search(skipped.begin(), skipped.end(), ctx().id());
  }
  /// A view change moved slots off `failed` (the leader of the view they
  /// left, not this node): every entry this node relayed to it and still
  /// holds -- neither inflight nor received from another node -- turns
  /// batchable here (still probed) and is relayed to relay_target() unless
  /// that is this node or `failed`.
  void take_back_relays(NodeId failed);
  /// Idle-chain resume, shared by local submissions and received forwards.
  void after_admission();

  void change_view(Slot from_slot, View new_view);
  [[nodiscard]] Slot lowest_unfinalized_started() const;
  [[nodiscard]] std::optional<std::uint64_t> parent_for_proposal(Slot s) const;

  /// A fresh block's payload plus the mempool entries batched into it; the
  /// entries are marked inflight only once the block is actually used
  /// (commit_batch), so a discarded candidate costs nothing.
  struct BatchDraft {
    std::vector<std::uint8_t> payload;
    std::vector<BoundedMempool::Handle> entries;
  };
  [[nodiscard]] BatchDraft build_batch(View view);
  void commit_batch(BatchDraft& draft, Slot s, std::size_t payload_bytes);
  /// Mempool/commit bookkeeping for every finalized block regardless of the
  /// path (finalization rule or claim adoption); `hash` is the block's
  /// stored hash.
  void note_finalized(const Block& b, std::uint64_t hash);
  void prune_slots();

  /// Range-sync requester state: one in-flight ranged request at a time,
  /// re-issued on progress (cursor continuation) or timeout (re-request).
  struct SyncState {
    Slot target{0};          // highest advertised peer frontier seen
    Slot requested_upto{0};  // exclusive end of the in-flight request
    runtime::TimerId timer{0};
    /// Blocks adopted from chunks since the last request was issued: the
    /// progress signal. A request window that adopts nothing (forged or
    /// stale frontier, partitioned responders) drops the sync instead of
    /// re-broadcasting forever; genuine lag re-triggers it through the
    /// frontier of the next view-change reply.
    std::size_t adopted_since_request{0};
  };

  // --- Checkpoint state transfer (requester side) ---
  /// Active while this node's gap reaches below every answering peer's
  /// compacted tail: range sync cannot help (responders only serve resident
  /// blocks), so the node requests a recomputed checkpoint at an anchor
  /// servable by >= f+1 peers and installs the first state f+1 senders
  /// vouch for byte-identically.
  struct CkptFetch {
    /// Servable checkpoint-anchor range advertised by a peer's refusal
    /// hint: [tail_first - 1, frontier - 1]. frontier == 0 = unheard.
    struct PeerRange {
      Slot tail_first{0};
      Slot frontier{0};
    };
    struct Identity {
      std::uint64_t idhash{0};
      Checkpoint cp{};
      std::uint64_t state_hash{0};
      std::uint64_t state_size{0};
      NodeBitmap vouchers;
    };

    std::vector<PeerRange> peers;  // per sender; sized n lazily
    Slot anchor{0};                // requested anchor slot (0 = no fetch active)
    runtime::TimerId timer{0};
    std::vector<Identity> identities;
    std::size_t chosen{SIZE_MAX};  // identity whose blob bytes we buffer
    std::vector<std::uint8_t> buf;
    std::uint64_t received{0};       // contiguous blob bytes buffered
    std::uint64_t progress_mark{0};  // received + vouches at the last timer

    void reset_transfer() {
      anchor = 0;
      identities.clear();
      chosen = SIZE_MAX;
      buf.clear();
      received = 0;
      progress_mark = 0;
    }
  };

  /// Record a refusal hint that proves the peer's tail cannot cover our
  /// gap, and start a checkpoint fetch once >= f+1 such peers share a
  /// servable anchor.
  void note_ckpt_range(NodeId from, Slot tail_first, Slot frontier);
  void maybe_start_ckpt_fetch();
  void install_fetched_checkpoint(const CkptFetch::Identity& id);
  void finish_ckpt_fetch();

  MultishotConfig cfg_;
  QuorumParams qp_;
  ChainStore chain_;
  SlotWindow<SlotState> slots_{ChainStore::kWindow + 1, 1};
  BoundedMempool mempool_;
  SyncState sync_;
  CkptFetch ckpt_;
  CommitHook commit_hook_;
  storage::DurableChain* durable_{nullptr};
  /// Set whenever idle suppression acted (a proposal was skipped or a timer
  /// went dormant); consumed by submit_tx so the frontier wake scan only
  /// runs when the pipeline may actually be stalled, never on the loaded
  /// hot path.
  bool idle_suppressed_{false};
  /// relay_target() at the last rerelay_on_target_edge(), and whether this
  /// node may still hold work stranded since its own stripe passed (or
  /// since it learned it is skipped).
  NodeId last_relay_target_{~NodeId{0}};
  bool stranded_{false};

  // Reusable encode scratch (see encode_ms_payload): grows once to the
  // high-water message size, then every encode is a single freeze.
  serde::Writer scratch_;
  // Reusable scratch for view-change tallies and window sweeps.
  std::vector<View> view_scratch_;
  std::vector<Slot> slot_scratch_;
  std::vector<std::uint64_t> frame_hashes_;  // note_finalized, per frame

  bool record_timeline_{false};
  std::map<Slot, runtime::Time> notarized_at_;
  std::map<Slot, runtime::Time> first_proposal_at_;
};

/// Definition 2 (Consistency) over every pair of observed finalized chains,
/// compaction-aware: resident overlaps compare blocks byte-equal; prefixes
/// reaching below a tail compare through cumulative prefix digests. nullptr
/// entries (crashed/foreign nodes) are skipped. Shared by the workload rig,
/// the test cluster helpers and the examples.
[[nodiscard]] bool chains_prefix_consistent(const std::vector<MultishotNode*>& nodes);

/// Honest except it never proposes for the slots in `skip` (at any view):
/// drives the Fig. 3 failed-block scenario deterministically.
class SelectiveSilentLeader : public MultishotNode {
 public:
  SelectiveSilentLeader(MultishotConfig cfg, std::set<Slot> skip)
      : MultishotNode(cfg), skip_(std::move(skip)) {}

 protected:
  void do_propose(Slot s, View v, const Block& block) override {
    if (skip_.count(s) > 0) return;
    MultishotNode::do_propose(s, v, block);
  }

 private:
  std::set<Slot> skip_;
};

/// Equivocating proposer: sends two different blocks for its slots to the
/// two halves of the network.
class EquivocatingProposer : public MultishotNode {
 public:
  explicit EquivocatingProposer(MultishotConfig cfg) : MultishotNode(cfg) {}

 protected:
  void do_propose(Slot s, View v, const Block& block) override {
    Block alt = block;
    alt.payload.push_back(0xEE);  // different content, same parent
    const std::uint32_t n = config().n;
    for (NodeId dst = 0; dst < n; ++dst) {
      send_ms(dst, MsProposal{s, v, dst < n / 2 ? block : alt});
    }
  }
};

}  // namespace tbft::multishot
