#include "multishot/node.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "storage/durable_chain.hpp"

namespace tbft::multishot {

namespace {

/// Hash-indexed view of the pending candidates' frames for build_batch's
/// dedup probe: sorted (fnv1a64, frame) pairs, probed per entry in
/// O(log frames) with an exact byte comparison only on hash hits.
struct FrameIndex {
  explicit FrameIndex(const std::vector<std::span<const std::uint8_t>>& frames) {
    keyed.reserve(frames.size());
    for (const auto& f : frames) keyed.emplace_back(fnv1a64(f), f);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  [[nodiscard]] bool contains(std::uint64_t hash, std::span<const std::uint8_t> tx) const {
    auto it = std::lower_bound(keyed.begin(), keyed.end(), hash,
                               [](const auto& e, std::uint64_t h) { return e.first < h; });
    for (; it != keyed.end() && it->first == hash; ++it) {
      const auto& f = it->second;
      if (f.size() == tx.size() && std::equal(f.begin(), f.end(), tx.begin())) return true;
    }
    return false;
  }

  std::vector<std::pair<std::uint64_t, std::span<const std::uint8_t>>> keyed;
};
}  // namespace

std::vector<std::uint8_t> encode_ms(const MsMessage& m) {
  serde::Writer w;
  std::visit([&w](const auto& msg) { msg.encode(w); }, m);
  return w.take();
}

Payload encode_ms_payload(const MsMessage& m, serde::Writer& scratch, bool cache_decoded) {
  return encode_to_payload(m, scratch, cache_decoded);
}

std::optional<MsMessage> decode_ms(std::span<const std::uint8_t> payload) {
  serde::Reader r(payload);
  const auto tag = r.u8();
  if (!r.ok()) return std::nullopt;
  MsMessage out;
  switch (static_cast<MsType>(tag)) {
    case MsType::Proposal: out = MsProposal::decode(r); break;
    case MsType::Vote: out = MsVote::decode(r); break;
    case MsType::Suggest: out = MsSuggest::decode(r); break;
    case MsType::Proof: out = MsProof::decode(r); break;
    case MsType::ViewChange: out = MsViewChange::decode(r); break;
    case MsType::SyncRequest: out = MsSyncRequest::decode(r); break;
    case MsType::SyncChunk: out = MsSyncChunk::decode(r); break;
    case MsType::ForwardTx: out = MsForwardTx::decode(r); break;
    case MsType::CheckpointRequest: out = MsCheckpointRequest::decode(r); break;
    case MsType::CheckpointChunk: out = MsCheckpointChunk::decode(r); break;
    case MsType::BlockRequest: out = MsBlockRequest::decode(r); break;
    case MsType::BlockReply: out = MsBlockReply::decode(r); break;
    default: return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return out;
}

MultishotNode::MultishotNode(MultishotConfig cfg)
    : cfg_(cfg),
      qp_(cfg.quorum_params()),
      chain_(cfg.finalized_tail, LeaderSchedule(cfg.n, cfg.f, cfg.pipeline_depth)),
      mempool_(cfg.mempool_capacity) {
  // Both finalization paths (depth-4 rule and claim adoption) notify through
  // this one hook, before the block can be compacted out of the tail.
  chain_.set_on_finalized([this](const Block& b, std::uint64_t h) { note_finalized(b, h); });
  peers_.resize(cfg_.n);
}

void MultishotNode::on_start() {
  // A chain restored from durable state resumes at its recovered frontier,
  // not slot 1.
  const Slot first = chain_.first_unfinalized();
  for (PeerHealth& p : peers_) p.submitter_until = first + ChainStore::kWindow;
  start_slot(first);
  try_propose(first);
}

bool MultishotNode::submit_tx(std::vector<std::uint8_t> tx) {
  auto& metrics = ctx().metrics();
  // Same dedup the relay path runs, hashed once: a client retrying a
  // request this node already committed (commit index) or already holds
  // pending (pool probe, relayed-in copies included) gets success without a
  // second pool entry -- re-admitting either could commit the same bytes
  // twice and break exactly-once.
  std::uint64_t h = 0;
  if (!tx.empty()) {
    h = fnv1a64(tx);
    if (chain_.commit_slot(tx, h) != 0 || mempool_.contains(h, tx)) {
      metrics.counter("multishot.submit.deduped").add();
      return true;
    }
  }
  const bool admitted = mempool_.push(std::move(tx), cfg_.max_batch_bytes, h);
  metrics.counter(admitted ? "multishot.mempool.admitted" : "multishot.mempool.rejected").add();
  metrics.histogram("multishot.mempool.depth").record(static_cast<double>(mempool_.size()));
  if (!admitted) return false;

  // Single-hop relay: when another node leads the proposal frontier, hand
  // the request to it (the entry just pushed is back()).
  forward_if_foreign_leader(mempool_.at(mempool_.back()));
  after_admission();
  return true;
}

Slot MultishotNode::relay_slot() const {
  Slot t = proposal_frontier();
  if (cfg_.pipeline_depth > 1) {
    // The frontier slot's proposal is usually out already, so relaying to
    // its leader makes the request wait for that leader's next free slot --
    // up to a whole stripe rotation away. Target the first slot still
    // awaiting its proposal instead. Depth 1 keeps the frontier leader:
    // there the next slot's leader is typically about to propose already,
    // and the frontier target measured faster.
    const Slot limit = chain_.first_unfinalized() + ChainStore::kWindow;
    for (; t < limit; ++t) {
      const SlotState* st = slots_.find(t);
      if (st == nullptr || (!st->proposed && st->proposal_by_view.find(st->view) == nullptr)) {
        break;
      }
    }
  }
  return t;
}

NodeId MultishotNode::relay_target() const {
  const Slot t = relay_slot();
  return leader_of(t, view_of(t));
}

std::uint32_t MultishotNode::submitters() const {
  const Slot first = chain_.first_unfinalized();
  std::uint32_t count = 1;
  for (NodeId p = 0; p < peers_.size(); ++p) {
    if (p != ctx().id() && peers_[p].submitter_until >= first) ++count;
  }
  return count;
}

NodeId MultishotNode::aim_relay(BoundedMempool::Entry& e) {
  // Depth 1 keeps the frontier leader (relay_slot) and no ledger: its
  // rotation returns within n slots, and depth-1 traces stay byte-identical.
  if (cfg_.pipeline_depth <= 1) return relay_target();
  if (e.aim != 0) {  // re-aimed: the slot it left has room for another
    RelayAim& left = relay_ledger_[e.aim % relay_ledger_.size()];
    if (left.slot == e.aim && left.aimed != 0) --left.aimed;
  }
  // Fig. 2's cadence sends each proposal on receipt of the one before, one
  // delta apart: u = relay_slot() goes out the instant this node sees u-1's
  // proposal, and u+1 one delta later -- the instant a relay, one delta in
  // transit, lands. The first foreign proposal still unsent on arrival is
  // u+2; a slot of ours is caught from u on. Aimed earlier, a request
  // lands a slot or two late, and when those close the leader's stripe it
  // waits a whole rotation for its next one. A parked chain (this node saw
  // idle suppression act, as after_admission does) has no cadence: nobody
  // proposes u until its leader holds work, so u is the slot to catch.
  // Past the catchable slot, capacity decides: each slot takes at most
  // this node's share of a full batch, so a backlog queues across the next
  // slots in order. The share divides among the nodes seen submitting,
  // not all n: where one node takes every client request it hands each
  // slot a full batch.
  const NodeId self = ctx().id();
  const std::uint32_t sharers = submitters();
  const std::uint32_t share = (slot_capacity() + sharers - 1) / sharers;
  const Slot u = relay_slot();
  const Slot catchable = idle_suppressed_ ? u : u + 2;
  const Slot limit = chain_.first_unfinalized() + ChainStore::kWindow;
  for (Slot t = u; t <= limit; ++t) {
    RelayAim& cell = relay_ledger_[t % relay_ledger_.size()];
    if (cell.slot == t && cell.aimed >= share) continue;
    const NodeId leader = leader_of(t, view_of(t));
    if (leader != self && t < catchable) continue;
    if (cell.slot != t) cell = {t, 0};
    ++cell.aimed;
    e.aim = t;
    return leader;
  }
  e.aim = 0;
  return self;
}

void MultishotNode::forward_if_foreign_leader(BoundedMempool::Entry& e) {
  // Relay both into a suppressed (parked) chain -- resuming an idle chain in
  // ~1 delta instead of the ~9 delta view-change rotation -- and under load,
  // where the aimed leader batches the request into its proposal instead of
  // the bytes waiting up to n * pipeline_depth slots for the submitter's
  // own stripe. The loaded path was once disabled over a double-commit race
  // between the two pools' inclusion; that window is closed by the hold
  // below plus the commit-index and pending-candidate probes in build_batch
  // (verified by the ForwardSpec checker).
  const NodeId leader = aim_relay(e);
  if (leader != ctx().id()) relay(e, leader);
}

void MultishotNode::relay(BoundedMempool::Entry& e, NodeId leader) {
  // The relay owns the request for one retry period: holding the local
  // fallback copy out of our own batches keeps the same bytes from racing
  // into two different slots. If the leader fails its slot, the view change
  // that moves the slot off it takes the hold back at once
  // (take_back_relays); a relay lost to a live leader waits the hold out,
  // and then the local copy rides this node's own batches. An idle chain
  // commits the relayed copy orders of magnitude earlier, and a late
  // relayed duplicate is caught by the receiver's commit-index check.
  e.hold_until = ctx().now() + forward_retry();
  e.relay_to = leader;
  ctx().metrics().counter("multishot.forward.sent").add();
  send_ms(leader, MsForwardTx{e.tx, chain_.first_unfinalized()});
}

void MultishotNode::rerelay_on_target_edge() {
  // Depth 1 is exempt: its rotation returns to this node within n slots
  // and the filler momentum of the tx-bearing slots carries the chain
  // there, so a stranded pool costs little -- and depth-1 traces stay
  // byte-identical. A skipped node is not: its rotation does not return
  // before a probe, at any depth, so the pool it held when it learned of
  // the skip is stranded (note_finalized, checkpoint install) and goes to
  // the leaders that took its stripes.
  const bool skipped = self_skipped();
  if (!skipped && cfg_.pipeline_depth <= 1) return;
  if (skipped && !stranded_) return;
  const NodeId self = ctx().id();
  const NodeId target = relay_target();
  if (!skipped) {
    if (target == last_relay_target_) return;
    if (last_relay_target_ == self) stranded_ = true;  // our stripe passed
    last_relay_target_ = target;
  }
  if (target == self || !stranded_) return;
  // Only work this node admitted for itself is re-aimed (a relay gets the
  // usual hold); received relays are never re-forwarded (single hop). An
  // unskipped node relays an entry once: when that relay's hold lapses, its
  // own batches take the copy back. A skipped node batches nothing, so a
  // lapsed hold means the relay was lost or refused and the entry goes out
  // again; while a hold is live it stays stranded and keeps checking. The
  // ledger that aimed the fresh submissions aims these too, so the next
  // leaders are never handed more than their slots carry. Depth 1 has no
  // ledger: each new target gets at most one full batch.
  const Slot u = relay_slot();
  const runtime::Time now = ctx().now();
  std::size_t budget = cfg_.pipeline_depth > 1 ? SIZE_MAX : slot_capacity();
  stranded_ = false;
  for (auto h = mempool_.front(); h != BoundedMempool::kNone; h = mempool_.next(h)) {
    BoundedMempool::Entry& e = mempool_.at(h);
    if (e.inflight || e.relayed) continue;
    if (e.hold_until != 0 && !skipped) continue;
    if (e.hold_until > now) {
      stranded_ = true;
      continue;
    }
    if (e.aim >= u && leader_of(e.aim, view_of(e.aim)) == self) continue;  // a later stripe of ours
    if (budget == 0) {
      stranded_ = true;
      break;
    }
    --budget;
    const NodeId leader = aim_relay(e);
    if (leader == self && e.aim == 0) {  // no room left in the window
      stranded_ = true;
      break;
    }
    if (leader == self) continue;
    ctx().metrics().counter("multishot.forward.rerelayed").add();
    relay(e, leader);
  }
}

void MultishotNode::take_back_relays(NodeId failed) {
  // Each copy relayed to `failed` and still held here would otherwise sit
  // out forward_retry() -- twice the view timeout that just moved the slot
  // -- while the live leaders propose without it. The copy turns batchable
  // here at once: hold_until = now, not 0, so it keeps build_batch's twin
  // probes (the failed leader may have batched it after all). It is also
  // re-aimed, and relayed unless that lands on this node or `failed` again,
  // so the re-proposal of the moved slot can carry it; whichever proposal
  // comes first, the other copy's probes skip it. Holding the copies here
  // instead would funnel the whole backlog through this node's batches.
  const NodeId self = ctx().id();
  const runtime::Time now = ctx().now();
  std::uint64_t released = 0;
  for (auto h = mempool_.front(); h != BoundedMempool::kNone; h = mempool_.next(h)) {
    BoundedMempool::Entry& e = mempool_.at(h);
    if (e.inflight || e.relayed || e.hold_until <= now || e.relay_to != failed) continue;
    ++released;
    const NodeId leader = aim_relay(e);
    if (leader != self && leader != failed) relay(e, leader);
    e.hold_until = now;
  }
  if (released != 0) ctx().metrics().counter("multishot.forward.released").add(released);
}

void MultishotNode::after_admission() {
  // Idle-chain resume: a quiesced (or proposal-suppressed) network re-arms
  // at the proposal frontier and, if this node leads it, proposes the new
  // transaction right away. Gated on suppression having actually happened,
  // so the loaded hot path never pays the window scan.
  if (idle_suppressed_) {
    idle_suppressed_ = false;
    const Slot frontier = proposal_frontier();
    wake_slot(frontier);
    try_propose(frontier);
  }
}

View MultishotNode::view_of(Slot s) const {
  const SlotState* st = slots_.find(s);
  return st == nullptr ? 0 : st->view;
}

MultishotNode::SlotProbe MultishotNode::probe_slot(Slot s) const {
  const SlotState* st = slots_.find(s);
  if (st == nullptr) return {};
  return {st->view, st->proposed, st->proposal_by_view.find(st->view) != nullptr};
}

bool MultishotNode::tx_finalized(std::span<const std::uint8_t> tx) const {
  return chain_.commit_slot(tx) != 0;
}

MultishotNode::SlotState* MultishotNode::slot_state(Slot s, bool create) {
  if (!in_window(s)) return nullptr;
  if (!create) return slots_.find(s);
  SlotState* st = slots_.ensure(s);
  if (st != nullptr && st->vc_highest.size() != cfg_.n) st->size_for(cfg_.n);
  return st;
}

void MultishotNode::start_slot(Slot s) {
  SlotState* st = slot_state(s, true);
  if (st == nullptr || st->started) return;
  st->started = true;
  arm_timer(s);
  // A suspect's stripe asks for its view change as it starts. A node that
  // missed the suspicion joins through the echo. One request per stripe:
  // change_view moves the whole stripe.
  if (st->highest_vc_sent >= 1) return;
  const NodeId leader = leader_of(s, 0);
  if (peers_[leader].suspect_until < s || leader_of(s - 1, 0) == leader) return;
  st->highest_vc_sent = 1;
  ctx().metrics().counter("multishot.viewchange.suspected").add();
  ctx().metrics().counter("multishot.viewchange.sent").add();
  broadcast_ms(MsViewChange{s, 1});
  // The notarized slots below s finalize once s notarizes: they get a
  // fresh timeout, or one firing before s's change completes would move
  // them and drag s's successors into a second view change. A slot below
  // that is not notarized keeps its timer: it is stuck on its own.
  slots_.for_each([&](Slot t, const SlotState& ts) {
    if (t < s && ts.timer != 0 && chain_.notarized(t)) arm_timer(t);
  });
}

void MultishotNode::arm_timer(Slot s) {
  SlotState* st = slot_state(s, false);
  if (st == nullptr) return;
  if (st->timer != 0) ctx().cancel_timer(st->timer);
  st->timer = ctx().set_timer(cfg_.view_timeout());
}

void MultishotNode::wake_slot(Slot s) {
  SlotState* st = slot_state(s, true);
  if (st == nullptr) return;
  if (!st->started) {
    st->started = true;
    arm_timer(s);
  } else if (st->timer == 0) {
    arm_timer(s);
  }
}

bool MultishotNode::idle_quiescent() const {
  if (cfg_.max_slots != 0) return false;
  if (!mempool_.empty()) return false;
  // Idle means no *work* is pending -- the pipeline's own filler momentum
  // (un-notarized filler proposals ahead of the suffix) does not count, or
  // filler would self-sustain forever. Work is: a transaction-bearing (or
  // content-unknown) proposal/notarization at any unfinalized slot, or
  // view-change traffic newer than a slot's current view (recovery in
  // flight). Finality depth for filler blocks is worthless, so a quiesced
  // network may leave a filler tail unfinalized; resumption finalizes it in
  // passing.
  bool quiet = true;
  slots_.for_each([&](Slot t, const SlotState& st) {
    if (!quiet || chain_.is_finalized(t)) return;
    if (st.highest_vc_sent > st.view) {
      quiet = false;
      return;
    }
    for (const View v : st.vc_highest) {
      if (v > st.view) {
        quiet = false;
        return;
      }
    }
    if (chain_.slot_has_pending_txs(t)) {
      quiet = false;
      return;
    }
    if (const auto* h = st.proposal_by_view.find(st.view);
        h != nullptr && chain_.candidate_has_txs(t, *h)) {
      quiet = false;
    }
  });
  return quiet;
}

MultishotNode::BatchDraft MultishotNode::build_batch(Slot s, View view) {
  // Adaptive control law (DESIGN_PERF.md "Slot pipelining & adaptive
  // batching"): the effective caps start at the configured base and, under
  // backlog, grow toward the adaptive ceiling -- the backlog is spread
  // across this node's in-flight led slots (a deeper pipeline drains it over
  // more proposals), and the byte budget scales in proportion so the
  // transaction headroom is actually reachable. A pool at or below the base
  // cap keeps today's caps exactly. At depth > 1 the last slot of this
  // node's stripe spreads nothing and fills up to slot_capacity(): the
  // in-flight led slots it would divide by are already proposed and take
  // none of the backlog, its next proposal is a rotation away, and the
  // relay ledger aimed work at this slot counting on its capacity.
  std::uint32_t cap_txs = cfg_.max_batch_txs;
  std::uint64_t cap_bytes = cfg_.max_batch_bytes;
  if (cfg_.adaptive_batch_txs > cfg_.max_batch_txs && backlogged()) {
    const bool stripe_end =
        cfg_.pipeline_depth > 1 && leader_of(s + 1, view_of(s + 1)) != ctx().id();
    const std::uint64_t spread = stripe_end ? 1 : std::max<std::uint32_t>(1, led_inflight());
    const std::uint64_t want = (mempool_.available() + spread - 1) / spread;
    if (want > cap_txs) {
      cap_txs = static_cast<std::uint32_t>(std::min<std::uint64_t>(want, slot_capacity()));
      cap_bytes = std::max<std::uint64_t>(
          cap_bytes, static_cast<std::uint64_t>(cfg_.max_batch_bytes) * cap_txs /
                         std::max<std::uint32_t>(1, cfg_.max_batch_txs));
      ctx().metrics().histogram("multishot.batch.adaptive_cap")
          .record(static_cast<double>(cap_txs));
    }
  }
  BatchDraft draft;
  serde::Writer w;
  w.varint(static_cast<std::uint64_t>(view));  // nonce: distinct across views
  const runtime::Time now = ctx().now();
  // Dedup probes, lazy and loop-invariant: any entry with a twin elsewhere
  // (a held fallback copy whose hold expired, or a relayed copy whose origin
  // kept the fallback) must prove its bytes are not already riding another
  // live slot before it may ride this one.
  std::optional<FrameIndex> pending_index;
  for (auto h = mempool_.front(); h != BoundedMempool::kNone; h = mempool_.next(h)) {
    BoundedMempool::Entry& e = mempool_.at(h);
    if (e.inflight) continue;       // already in one of my outstanding proposals
    if (e.hold_until > now) continue;  // forwarded; the relay owns it for now
    if (e.hold_until != 0 || e.relayed) {
      // The twin may have committed in a block this node has not finalized
      // yet (reconciliation erases the entry only at its own finalization)
      // -- the O(1) index probe closes that re-commit window.
      if (chain_.commit_slot(e.tx, e.hash) != 0) continue;
      // The twin can also still be *in flight*: riding a pending proposal
      // that stalled behind faulty-leader view changes. Batching this copy
      // would put the same bytes in two live slots, so keep holding while
      // any pending candidate carries them (the slot's outcome settles the
      // copy either way).
      //
      // These probes are best-effort, not a proof: a twin can hide in a
      // notarized block whose content has not arrived here yet, and on slow
      // (WAN-shaped) links that is the *steady state* at propose time --
      // votes outrun the proposal broadcast, so a batch-time "window fully
      // known" guard starves batching outright. Exactly-once therefore
      // lives at the delivery layer (note_finalized filters frames already
      // committed at an earlier slot); the probes here just keep duplicate
      // *inclusion* rare so the chain does not carry dead bytes.
      if (!pending_index.has_value()) {
        pending_index.emplace(chain_.pending_candidate_frames());
      }
      if (pending_index->contains(e.hash, e.tx)) {
        e.hold_until = now + forward_retry();
        continue;
      }
    }
    if (draft.entries.size() >= cap_txs) break;
    const std::size_t frame = serde::varint_size(e.tx.size()) + e.tx.size();
    if (!draft.entries.empty() && w.size() + frame > cap_bytes) break;
    w.bytes(e.tx);
    draft.entries.push_back(h);
  }
  draft.payload = w.take();
  if (draft.payload.size() < cfg_.default_payload_bytes) {
    draft.payload.resize(cfg_.default_payload_bytes, 0);
  }
  return draft;
}

void MultishotNode::commit_batch(BatchDraft& draft, Slot s, std::size_t payload_bytes) {
  for (const auto h : draft.entries) mempool_.mark_inflight(h, s);
  auto& metrics = ctx().metrics();
  metrics.histogram("multishot.batch.txs").record(static_cast<double>(draft.entries.size()));
  metrics.histogram("multishot.batch.bytes").record(static_cast<double>(payload_bytes));
}

std::optional<std::uint64_t> MultishotNode::parent_for_proposal(Slot s) const {
  const Slot prev = s - 1;
  if (prev == 0) return kGenesisHash;
  // A finalized predecessor of an unfinalized slot is exactly the tip.
  if (chain_.is_finalized(prev)) return chain_.finalized_tip_hash();
  // A notarization of the previous slot is the convergent signal: build on
  // it whenever one exists (any view; value stability in try_propose keeps
  // re-proposals equal to notarizations, so this stays consistent across
  // view changes and across equivocation-split perceptions). Only in the
  // good-case pipelining window -- before the previous slot has notarized
  // at all -- build directly on the received proposal (Fig. 2 proposes on
  // *receipt* of the previous proposal).
  if (const auto n = chain_.notarized(prev)) return n->hash;
  if (const SlotState* pst = slots_.find(prev); pst != nullptr) {
    if (const auto* h = pst->proposal_by_view.find(pst->view)) return *h;
  }
  return std::nullopt;
}

void MultishotNode::try_propose(Slot s) {
  if (cfg_.max_slots != 0 && s > cfg_.max_slots) return;
  SlotState* st = slot_state(s, true);
  if (st == nullptr || st->proposed) return;
  if (leader_of(s, st->view) != ctx().id()) return;

  const auto parent = parent_for_proposal(s);
  if (!parent) return;

  Block block;
  std::uint64_t block_hash = 0;  // block.hash(), computed once
  if (st->view == 0) {
    // Stripe pacing (Fig. 2: the next leader proposes on *receipt* of the
    // previous proposal): inside a stripe the leader is its own next leader,
    // and its own broadcast reaches it at once, so without this check it
    // would propose its whole stripe in one instant. A fresh block on our
    // own un-notarized previous slot therefore waits until that slot is the
    // first one not yet notarized; on_notarized re-tries the frontier.
    if (s > proposal_frontier() + 1 && !chain_.notarized(s - 1) &&
        leader_of(s - 1, 0) == leader_of(s, 0)) {
      return;
    }
    // Idle-chain suppression (unbounded chains): a filler block that no
    // pending work needs is never proposed -- submissions wake the frontier.
    if (idle_quiescent()) {
      idle_suppressed_ = true;
      ctx().metrics().counter("multishot.idle.skipped_proposals").add();
      return;
    }
    BatchDraft draft = build_batch(s, 0);
    const std::size_t payload_bytes = draft.payload.size();
    block = Block{s, *parent, ctx().id(), std::move(draft.payload)};
    block_hash = block.hash();
    commit_batch(draft, s, payload_bytes);
  } else {
    // Rule 1 over this slot's suggest messages. The leader's "initial
    // value" is the slot's already-notarized block when one exists (value
    // stability: keeps notarizations from different views linked so the
    // depth-4 finality rule can complete across view changes even when a
    // crashed node leads one slot of the window in every view); a fresh
    // block otherwise.
    std::vector<core::SuggestFrom> suggests;
    for (NodeId p = 0; p < cfg_.n; ++p) {
      if (st->suggests[p] && st->suggests[p]->view == st->view) {
        suggests.push_back({p, st->suggests[p]->as_core()});
      }
    }
    std::optional<Block> preferred;
    std::uint64_t preferred_hash = 0;
    BatchDraft draft;
    bool fresh = false;
    if (const auto nt = chain_.notarized(s)) {
      if (const Block* nb = chain_.find_block(s, nt->hash);
          nb != nullptr && nb->parent_hash == *parent) {
        preferred = *nb;
        preferred_hash = nt->hash;
      }
    }
    if (!preferred) {
      draft = build_batch(s, st->view);
      preferred = Block{s, *parent, ctx().id(), std::move(draft.payload)};
      preferred_hash = preferred->hash();
      fresh = true;
    }
    const auto val =
        core::leader_find_safe_value(qp_, st->view, Value{preferred_hash}, suggests);
    if (!val) return;
    if (val->id == preferred_hash) {
      // Mark the batch only when the fresh block is actually proposed; a
      // Rule-1-forced value discards the draft at no cost.
      if (fresh) commit_batch(draft, s, preferred->payload.size());
      block = std::move(*preferred);
      block_hash = preferred_hash;
    } else {
      // Rule 1 forces a previously proposed block: re-propose it.
      const Block* existing = chain_.find_block(s, val->id);
      if (existing == nullptr) {
        // Content unknown: ask the network for the bytes instead of waiting
        // for a delivery that may never come (the voters that held them can
        // have crash-lost the unfinalized block since).
        request_block_content(s, val->id);
        return;
      }
      block = *existing;
      block_hash = val->id;
    }
  }

  st->proposed = true;
  chain_.add_block(block, block_hash);
  // The proposal is the leader's implicit vote for its own slot (paper
  // §6.1): record vote-1 locally; the broadcast is counted by receivers.
  if (st->voted.try_emplace(st->view, block_hash)) {
    const auto& high = st->record.highest(1);
    if (!high.present() || st->view > high.view) {
      st->record.record(1, st->view, Value{block_hash});
    }
  }
  do_propose(s, st->view, block);
}

std::uint32_t MultishotNode::led_inflight() const {
  std::uint32_t count = 0;
  slots_.for_each([&](Slot s, const SlotState& st) {
    if (st.proposed && !chain_.is_finalized(s) &&
        leader_of(s, st.view) == ctx().id()) {
      ++count;
    }
  });
  return count;
}

void MultishotNode::do_propose(Slot s, View v, const Block& block) {
  broadcast_ms(MsProposal{s, v, block});
}

void MultishotNode::try_vote(Slot s) {
  SlotState* st = slot_state(s, false);
  if (st == nullptr) return;
  if (st->voted.find(st->view) != nullptr) return;
  const auto* ph = st->proposal_by_view.find(st->view);
  if (ph == nullptr) return;
  const std::uint64_t h = *ph;
  const Block* b = chain_.find_block(s, h);
  if (b == nullptr) return;

  // Chaining condition (§6.1): the parent must be notarized and the block
  // must extend it.
  const auto parent = chain_.required_parent(s);
  if (!parent || *parent != b->parent_hash) return;

  // Safety condition: Rule 3 in views > 0 (all values safe in view 0).
  if (st->view > 0) {
    std::vector<core::ProofFrom> proofs;
    for (NodeId p = 0; p < cfg_.n; ++p) {
      if (st->proofs[p] && st->proofs[p]->view == st->view) {
        proofs.push_back({p, st->proofs[p]->as_core()});
      }
    }
    if (!core::proposal_is_safe(qp_, st->view, Value{h}, proofs)) return;
  }

  st->voted.try_emplace(st->view, h);
  record_vote_effects(s, st->view, *b, h);
  broadcast_ms(MsVote{s, st->view, h});
}

void MultishotNode::record_vote_effects(Slot s, View v, const Block& head,
                                        std::uint64_t head_hash) {
  // A head vote for slot s is vote-1 for s and implicitly vote-k for slot
  // s-k+1 along the parent chain (Fig. 2); phases are preserved in local
  // memory for future suggest/proof messages. Each ancestor's hash is its
  // child's parent_hash: the walk never rehashes a block.
  const Block* b = &head;
  std::uint64_t h = head_hash;
  for (int phase = 1; phase <= 4; ++phase) {
    const Slot target = s - static_cast<Slot>(phase - 1);
    if (target < 1 || s < static_cast<Slot>(phase - 1)) break;
    if (SlotState* ts = slot_state(target, false); ts != nullptr) {
      const auto& high = ts->record.highest(phase);
      if (!high.present() || v > high.view) {
        ts->record.record(phase, v, Value{h});
      }
    }
    if (phase == 4 || target == 1) break;
    const Slot parent_slot = target - 1;
    h = b->parent_hash;
    const Block* pb = chain_.find_block(parent_slot, h);
    if (pb == nullptr) {
      // A compacted ancestor (no stored hash) is content-unknown too.
      if (chain_.hash_at(parent_slot) != h) break;  // ancestor content unknown
      pb = chain_.block_at(parent_slot);
    }
    b = pb;
  }
}

void MultishotNode::on_notarized(Slot s) {
  if (record_timeline_) notarized_at_.try_emplace(s, ctx().now());
  heal_notarization_seams();
  finalize_progress();
  // A quorum of votes can notarize a hash whose block never reached this
  // node: chase the content right away -- finalization (and building the
  // next slot on a stored parent) needs the bytes.
  if (const auto nt = chain_.notarized(s);
      nt && !chain_.is_finalized(s) && chain_.find_block(s, nt->hash) == nullptr) {
    request_block_content(s, nt->hash);
  }
  try_vote(s);
  try_vote(s + 1);
  try_propose(s + 1);
  try_propose(proposal_frontier() + 1);  // a stripe slot held by pacing
  rerelay_on_target_edge();
}

// An equivocating leader can split one view's votes so that slot s
// notarizes twin A while slot s+1 notarizes a block built on twin B: every
// per-slot notarization is quorum-backed, but the cross-slot parent links
// are incoherent and the depth-4 finalization rule can never fire again --
// Rule 1 re-locks each slot on its own notarized value, so no amount of
// view changes repairs the seam (chaos seeds 63/188/297). The repair is
// the pipelined-vote inference: the quorum notarizing the child recorded
// phase votes for the child's parent at the child's view, so adopt that
// parent as the slot's notarization (and fetch its bytes if they never
// reached us). The inference holds in BOTH view orders: when the child's
// notarization is OLDER than a conflicting parent re-notarization (the
// pipelined child notarized first, then an equivocated view change
// re-notarized the parent differently -- chaos seed 83 at shards=4), the
// child still wins, because Rule 1 pins the child's value forever and the
// chain can only ever extend through the parent it cites; the newer parent
// notarization is a dead branch no honest quorum will build on. The
// adoption is recorded at the max of both views so retransmitted votes for
// the dead branch cannot flip the slot back before the suffix finalizes.
// Walk top-down so a cascade of seams heals in one pass.
void MultishotNode::heal_notarization_seams() {
  const Slot base = chain_.first_unfinalized();
  Slot top = base;
  while (chain_.notarized(top + 1).has_value()) ++top;  // bounded by the window
  for (Slot s = top; s > base; --s) {
    const auto child = chain_.notarized(s);
    const auto cur = chain_.notarized(s - 1);
    if (!child) continue;
    const Block* cb = chain_.find_block(s, child->hash);
    if (cb == nullptr) continue;  // content recovery will re-trigger the pass
    if (cur && cur->hash == cb->parent_hash) continue;  // coherent link
    const View adopt_view = std::max(child->view, cur ? cur->view : 0);
    if (chain_.adopt_parent_notarization(s - 1, adopt_view, cb->parent_hash)) {
      ctx().metrics().counter("multishot.seam.healed").add();
      if (chain_.find_block(s - 1, cb->parent_hash) == nullptr) {
        request_block_content(s - 1, cb->parent_hash);
      }
    }
  }
}

void MultishotNode::finalize_progress() {
  // note_finalized runs per block through the ChainStore hook.
  if (chain_.try_finalize() > 0) prune_slots();
}

void MultishotNode::note_finalized(const Block& b, std::uint64_t hash) {
  // Durability FIRST: the WAL record (and any due checkpoint) must be on
  // its way to disk before the commit is published or acknowledged -- a
  // crash right after the ack must recover the block.
  if (durable_ != nullptr) durable_->append(b, chain_.finalized());
  // Exactly-once DELIVERY over at-least-once inclusion: forwarding keeps a
  // fallback copy of every relayed request, and under sustained view-change
  // turbulence a fallback can be re-batched while the committing proposal
  // is still in flight (the batch-time probes cannot see an unreceived
  // block). The chain then carries the bytes twice, but delivery filters
  // any frame already committed at an earlier slot -- deterministically,
  // since every node filters the same chain prefix against the same commit
  // index. The common path (no duplicate) publishes the payload untouched.
  // Each frame is hashed once here; the reconciliation below reuses it.
  frame_hashes_.clear();
  bool has_dup = false;
  for_each_frame(b.payload, [&](std::span<const std::uint8_t> f) {
    frame_hashes_.push_back(fnv1a64(f));
    has_dup = has_dup || chain_.committed_before(f, frame_hashes_.back(), b.slot);
  });
  std::optional<Block> dedup;
  if (has_dup) {
    ctx().metrics().counter("multishot.delivery.filtered_dup").add();
    serde::Reader r(b.payload);
    serde::Writer w;
    w.varint(r.varint());  // view nonce survives verbatim
    std::size_t i = 0;
    for_each_frame(b.payload, [&](std::span<const std::uint8_t> f) {
      if (!chain_.committed_before(f, frame_hashes_[i++], b.slot)) w.bytes(f);
    });
    auto filtered = w.take();
    filtered.resize(b.payload.size(), 0);  // zero padding parses as filler
    dedup = Block{b.slot, b.parent_hash, b.proposer, std::move(filtered)};
  }
  const Block& delivered = dedup ? *dedup : b;
  ctx().publish_commit(b.slot, Value{hash}, delivered.payload);
  // Mempool reconciliation against the winning block, one index probe per
  // frame: transactions that made it into the chain leave the pool; my
  // inflight transactions attributed to this (or an earlier) slot whose
  // proposal lost/aborted become available again -- the slot's outcome is
  // now settled, so this cannot double-include.
  std::size_t i = 0;
  for_each_frame(b.payload, [&](std::span<const std::uint8_t> f) {
    mempool_.erase_tx(frame_hashes_[i++], f);
  });
  mempool_.release_through(b.slot);
  switch (chain_.finalized().last_outcome()) {
    case LeaderSchedule::Outcome::kSkipped:
      ctx().metrics().counter("multishot.leader.skipped").add();
      if (self_skipped()) stranded_ = true;
      break;
    case LeaderSchedule::Outcome::kProbe:
    case LeaderSchedule::Outcome::kReadmitted:
      ctx().metrics().counter("multishot.leader.probes").add();
      break;
    default:
      break;
  }
  if (commit_hook_) commit_hook_(delivered, ctx().now());
}

void MultishotNode::prune_slots() {
  const Slot first = chain_.first_unfinalized();
  slots_.advance_base(first, [this](Slot, SlotState& st) {
    if (st.timer != 0) {
      ctx().cancel_timer(st.timer);
      st.timer = 0;
    }
  });
}

void MultishotNode::on_message(NodeId from, const Payload& payload) {
  // Traffic from non-members (e.g. client actors with ids >= n) is ignored:
  // per-sender state below is sized for the n protocol participants.
  if (from >= cfg_.n) return;
  // Decode-once fast path for broadcasts (cache attached by the encoder of
  // these exact bytes); point-to-point payloads take the total decode.
  const MsMessage* msg = payload.cached<MsMessage>();
  std::optional<MsMessage> decoded;
  if (msg == nullptr) {
    decoded = decode_ms(payload.bytes());
    if (!decoded) {
      ctx().metrics().counter("multishot.malformed").add();
      return;
    }
    msg = &*decoded;
  }
  // A well-formed message ends its sender's suspicion: a restarted or
  // once-idle node proposes again, and asking for its stripes' view change
  // would race its proposals. A crashed or silent node sends nothing, and
  // junk bytes do not count.
  peers_[from].suspect_until = 0;
  std::visit([this, from](const auto& m) { handle(from, m); }, *msg);
}

void MultishotNode::handle(NodeId from, const MsProposal& m) {
  // The window first: only there does the schedule read history every
  // replica has finalized.
  if (!in_window(m.slot) || from != leader_of(m.slot, m.view)) return;
  // No honest leader builds a payload past the bound, so an oversize block
  // is Byzantine: storing it would let it win notarization and then
  // overflow every peer's frame limit in the range-sync chunks that carry
  // it. Refused, its view stalls and the view timer rotates the leader.
  if (m.block.payload.size() > cfg_.max_payload_bytes()) {
    ctx().metrics().counter("multishot.proposal.oversize").add();
    return;
  }
  SlotState* st = slot_state(m.slot, true);
  if (st == nullptr) return;
  // The one hash of a received block. A leader's own broadcast comes back to
  // it: the block stored under its vote needs no second hash once a byte
  // compare (far cheaper than hashing the payload) confirms it is the same.
  std::uint64_t h = 0;
  if (const auto* mine = from == ctx().id() ? st->voted.find(m.view) : nullptr) {
    if (const Block* b = chain_.find_block(m.slot, *mine); b != nullptr && *b == m.block) {
      h = *mine;
    }
  }
  if (h == 0) h = m.block.hash();
  // First proposal per view wins -- checked BEFORE the candidate store, so
  // an equivocating leader cannot flood the bounded per-slot storage. A few
  // *alternate* blocks per slot are still stored: if another variant wins
  // notarization elsewhere, this node holds its content and finalizes
  // without a recovery round. Beyond the per-slot bound (and for future-
  // view spam churning first-per-view slots), the view-change /
  // content-unknown recovery paths take over -- a bounded liveness delay,
  // never a safety issue (all state is content-addressed).
  if (const auto* recorded = st->proposal_by_view.find(m.view); recorded != nullptr) {
    if (*recorded != h && st->extra_candidates < kMaxExtraCandidatesPerSlot &&
        chain_.add_block(m.block, h)) {
      ++st->extra_candidates;
    }
    return;
  }
  // Record the view's proposal first: a view refused at the tracked-view
  // bound must leave no trace in the bounded candidate store either, or
  // stale-view spam could churn its displacement rotation.
  if (!st->proposal_by_view.try_emplace(m.view, h)) return;  // at the view bound
  if (!chain_.add_block(m.block, h)) return;  // window race: mapping alone is harmless
  if (record_timeline_) first_proposal_at_.try_emplace(m.slot, ctx().now());
  // Proposal activity revives a dormant (idle-suppressed) slot.
  if (st->started && st->timer == 0) arm_timer(m.slot);

  // Implicit leader vote (paper §6.1).
  NodeBitmap& voters = st->votes.voters(m.view, h, cfg_.n);
  voters.insert(from);
  if (qp_.is_quorum(voters.count()) && chain_.notarize(m.slot, m.view, h)) {
    on_notarized(m.slot);
  }

  if (m.view >= st->view) {
    // Receiving the proposal for slot s starts slot s+1 (§6.2) and lets the
    // next leader pipeline its own proposal (Fig. 2).
    start_slot(m.slot + 1);
    try_vote(m.slot);
    try_propose(m.slot + 1);
  }
}

void MultishotNode::handle(NodeId from, const MsVote& m) {
  SlotState* st = slot_state(m.slot, true);
  if (st == nullptr) return;
  // Vote traffic revives a dormant slot just like proposals do: a quorum of
  // votes can complete a content-unknown notarization this node must then
  // chase (view change -> finalized-block reply), which needs a live timer.
  if (st->started && st->timer == 0) arm_timer(m.slot);
  NodeBitmap& voters = st->votes.voters(m.view, m.block_hash, cfg_.n);
  voters.insert(from);
  if (qp_.is_quorum(voters.count()) && chain_.notarize(m.slot, m.view, m.block_hash)) {
    on_notarized(m.slot);
  }
}

void MultishotNode::handle(NodeId from, const MsSuggest& m) {
  if (!in_window(m.slot) || leader_of(m.slot, m.view) != ctx().id()) return;
  SlotState* st = slot_state(m.slot, true);
  if (st == nullptr) return;
  auto& slot_msg = st->suggests[from];
  if (!slot_msg || m.view > slot_msg->view) slot_msg = m;
  try_propose(m.slot);
}

void MultishotNode::handle(NodeId from, const MsProof& m) {
  SlotState* st = slot_state(m.slot, true);
  if (st == nullptr) return;
  auto& slot_msg = st->proofs[from];
  if (!slot_msg || m.view > slot_msg->view) slot_msg = m;
  try_vote(m.slot);
}

void MultishotNode::handle(NodeId from, const MsViewChange& m) {
  if (chain_.is_finalized(m.slot)) {
    // Catch-up help, frontier discovery: a short resident suffix plus our
    // frontier, or a refusal hint when the slot was compacted. Wider gaps
    // trigger the requester's range sync against the advertised frontier,
    // or its checkpoint fetch.
    if (from != ctx().id()) send_ms(from, sync_chunk(m.slot, m.slot + kViewChangeReplySlots));
    return;
  }
  SlotState* st = slot_state(m.slot, true);
  if (st == nullptr) return;
  if (m.view <= st->vc_highest[from]) return;
  st->vc_highest[from] = m.view;
  // A peer asking for a view change revives a dormant slot: this node must
  // be able to time out and echo for the quorum to form.
  if (st->started && st->timer == 0) arm_timer(m.slot);

  auto kth_highest = [this, st](std::size_t k) {
    view_scratch_.assign(st->vc_highest.begin(), st->vc_highest.end());
    std::sort(view_scratch_.begin(), view_scratch_.end(), std::greater<>());
    return view_scratch_[k - 1];
  };

  const View echo_target = kth_highest(qp_.blocking_size());
  if (echo_target > st->highest_vc_sent && echo_target > st->view) {
    st->highest_vc_sent = echo_target;
    ctx().metrics().counter("multishot.viewchange.sent").add();
    broadcast_ms(MsViewChange{m.slot, echo_target});
  }
  const View enter_target = kth_highest(qp_.quorum_size());
  if (enter_target > st->view) {
    // A quorum moved past this slot's view: a node that never started it
    // (no proposal for its predecessor reached it, as after a restart)
    // enters the view too, or the new leader would miss its suggest.
    st->started = true;
    change_view(m.slot, enter_target);
  }
}

void MultishotNode::change_view(Slot from_slot, View new_view) {
  // Move every started, unfinalized slot >= from_slot to the new view
  // (Algorithm 2); abort their tentative blocks and exchange suggest/proof
  // so the new leaders can re-propose safe values. The highest such slot's
  // stripe moves whole: its later slots never started (their predecessors'
  // proposals never came), and left at view 0 under the same failed leader
  // each would wait out a timeout of its own.
  Slot top = 0;
  View top_view = 0;    // the view `top` leaves: its leader failed it
  Slot open = 0;        // the first moved slot without a notarization
  bool silent = false;  // `open` still waited at view 0 for its proposal
  slots_.for_each([&](Slot t, const SlotState& ts) {
    if (t >= from_slot && ts.started && new_view > ts.view) {
      top = t;
      top_view = ts.view;
      if (open == 0 && !chain_.notarized(t)) {
        open = t;
        silent = ts.view == 0 && ts.proposal_by_view.find(0) == nullptr;
      }
    }
  });
  // The silent slot's view-0 leader becomes a suspect for the lag, until
  // the skip set can take over its stripes. Not from_slot's leader
  // (usually a notarized slot's, led by a live node), nor top's (under
  // equivocation the honest successor a view change drags along). A wrong
  // suspicion -- a restarted node blaming a slot whose proposal came while
  // it was down -- ends at the suspect's next message.
  if (silent) {
    const NodeId suspect = leader_of(open, 0);
    Slot& until = peers_[suspect].suspect_until;
    if (suspect != ctx().id() && until < open) until = open + kScheduleLag;
  }
  if (top != 0) {
    const NodeId failed = leader_of(top, 0);
    const Slot limit = chain_.first_unfinalized() + ChainStore::kWindow;
    for (Slot t = top + 1; t <= limit && leader_of(t, 0) == failed; ++t) start_slot(t);
  }
  slot_scratch_.clear();
  slots_.for_each([&](Slot t, SlotState& ts) {
    if (t < from_slot || !ts.started || new_view <= ts.view) return;
    ts.view = new_view;
    ts.proposed = false;
    arm_timer(t);
    slot_scratch_.push_back(t);
  });
  // Before the suggests go out: a copy re-relayed to a new leader then
  // reaches it ahead of this node's suggest, in time for its re-proposal.
  if (top != 0) {
    const NodeId left = leader_of(top, top_view);
    if (left != ctx().id()) take_back_relays(left);
  }
  for (const Slot t : slot_scratch_) {
    SlotState& ts = *slots_.find(t);
    broadcast_ms(MsProof{t, new_view, ts.record.highest(1), ts.record.prev(1),
                         ts.record.highest(4)});
    send_ms(leader_of(t, new_view),
            MsSuggest{t, new_view, ts.record.highest(2), ts.record.prev(2),
                      ts.record.highest(3)});
  }
  for (const Slot t : slot_scratch_) {
    try_propose(t);
    try_vote(t);  // a proposal for the new view may already be buffered
  }
}

Slot MultishotNode::lowest_unfinalized_started() const {
  Slot found = 0;
  slots_.for_each([&](Slot s, const SlotState& st) {
    if (found == 0 && st.started && !chain_.is_finalized(s)) found = s;
  });
  return found != 0 ? found : chain_.first_unfinalized();
}

void MultishotNode::on_timer(runtime::TimerId id) {
  if (id == sync_.timer) {
    // Range-sync progress timer: with adoptions since the last request,
    // keep the pipeline streaming (cursor re-request, which also rotates to
    // whichever peers are alive); a request window that adopted nothing
    // means the advertised frontier was stale or Byzantine (honest peers
    // only sent refusal hints) -- drop the sync rather than re-broadcast
    // forever. Genuine lag keeps producing fresh frontier hints through the
    // view-change reply path and re-triggers it; a forged frontier
    // costs at most one request round per poison message.
    sync_.timer = 0;
    if (sync_.target > chain_.first_unfinalized() && sync_.adopted_since_request > 0) {
      send_sync_request();
    } else {
      sync_.target = 0;
      sync_.requested_upto = 0;
    }
    return;
  }
  if (id == ckpt_.timer) {
    // Checkpoint-fetch progress timer: with new bytes or vouches since the
    // last firing, re-broadcast the request (responders may have rotated or
    // the chosen identity switched); a silent window abandons the fetch --
    // the next refusal round re-derives a fresh anchor from live hints.
    ckpt_.timer = 0;
    if (ckpt_.anchor == 0) return;
    if (chain_.finalized_count() >= ckpt_.anchor) {
      // Overtaken: range sync / adoption caught up past the anchor.
      finish_ckpt_fetch();
      return;
    }
    std::uint64_t progress = ckpt_.received;
    for (const auto& ident : ckpt_.identities) progress += ident.vouchers.count();
    if (progress > ckpt_.progress_mark) {
      ckpt_.progress_mark = progress;
      broadcast_ms(MsCheckpointRequest{ckpt_.anchor});
      ckpt_.timer = ctx().set_timer(sync_timeout());
    } else {
      finish_ckpt_fetch();
    }
    return;
  }
  // Resolve the timer to its slot by scanning the window: timers fire orders
  // of magnitude less often than votes arrive, so the bounded sweep beats
  // maintaining reverse-index maps on the hot path.
  Slot view_slot = 0;
  slots_.for_each([&](Slot s, SlotState& st) {
    if (st.timer == id) view_slot = s;
  });
  if (view_slot == 0) return;
  SlotState* st = slots_.find(view_slot);
  st->timer = 0;
  if (chain_.is_finalized(view_slot)) return;

  // Idle-chain suppression: with nothing pending, the slot goes dormant
  // instead of re-arming -- submissions, proposals and view-change messages
  // wake it again, so an idle network truly quiesces.
  if (idle_quiescent()) {
    idle_suppressed_ = true;
    ctx().metrics().counter("multishot.idle.dormant_timers").add();
    return;
  }

  // Ask for a view change at the lowest aborted (unfinalized) slot (§6.2).
  const Slot target_slot = lowest_unfinalized_started();
  SlotState* tst = slot_state(target_slot, true);
  if (tst != nullptr) {
    const View target = std::max(tst->view + 1, tst->highest_vc_sent);
    tst->highest_vc_sent = target;
    ctx().metrics().counter("multishot.viewchange.sent").add();
    broadcast_ms(MsViewChange{target_slot, target});
  }
  // Content-recovery retransmission, same cadence: when the slot blocking
  // the finalized suffix is notarized but content-unknown, re-request the
  // bytes (the first request can race the responders' own catch-up, or a
  // pre-GST drop).
  heal_notarization_seams();
  const Slot gap = proposal_frontier();
  if (const auto nt = chain_.notarized(gap);
      nt && chain_.find_block(gap, nt->hash) == nullptr) {
    request_block_content(gap, nt->hash, /*retransmit=*/true);
  }
  arm_timer(view_slot);  // retransmission against pre-GST loss
}

void MultishotNode::note_block_claim(NodeId from, const Block& b) {
  SlotState* st = slot_state(b.slot, true);
  if (st == nullptr) return;  // finalized, or past the window
  ClaimSet& claims = st->claims;
  const std::uint64_t h = b.hash();
  ClaimSet::Claim* claim = claims.find(h);
  if (claim == nullptr) {
    // One created claim per sender per slot: honest senders claim a
    // single hash, so only Byzantine fan-out is refused here.
    if (claims.sender_has_claim(from)) return;
    claim = claims.add(h, cfg_.n, max_claims_per_slot(cfg_.f));
    if (claim == nullptr) return;  // per-slot claim bound reached
    claim->block = b;
  }
  claim->senders.insert(from);
}

std::size_t MultishotNode::adopt_ready_claims() {
  // Adopt blocks with f+1 claims, in chain order (>= 1 honest claimer, and
  // honest finalized chains agree -- the unauthenticated model's only way
  // to trust a block without running consensus on it). note_finalized runs
  // per adopted block through the ChainStore hook.
  std::size_t adopted = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    SlotState* st = slots_.find(chain_.first_unfinalized());
    if (st == nullptr) break;
    for (std::size_t i = 0; i < st->claims.used; ++i) {
      ClaimSet::Claim& claim = st->claims.claims[i];
      if (!qp_.is_blocking(claim.senders.count())) continue;
      if (chain_.force_finalize(std::move(claim.block), claim.hash)) {
        progress = true;
        ++adopted;
        break;
      }
    }
  }
  if (adopted > 0) {
    prune_slots();
    // The freshly adopted chain may unblock voting/proposing.
    const Slot next = chain_.first_unfinalized();
    try_vote(next);
    try_propose(next);
    // A caught-up node with pending transactions restarts the pipeline.
    if (!mempool_.empty()) {
      const Slot frontier = proposal_frontier();
      wake_slot(frontier);
      try_propose(frontier);
    }
  }
  return adopted;
}

// --- Range-sync catch-up ---------------------------------------------------

void MultishotNode::note_frontier(Slot frontier) {
  if (frontier > sync_.target) sync_.target = frontier;
  maybe_request_sync();
}

void MultishotNode::maybe_request_sync() {
  const Slot first = chain_.first_unfinalized();
  if (sync_.target <= first) {
    // Caught up with every frontier we ever heard of: sync is over.
    if (sync_.timer != 0) {
      ctx().cancel_timer(sync_.timer);
      sync_.timer = 0;
    }
    sync_.target = 0;
    sync_.requested_upto = 0;
    return;
  }
  // A checkpoint fetch owns the catch-up: ranged requests would be refused
  // again (the gap reaches below every answering tail) -- no timer-spin.
  if (ckpt_.anchor != 0) return;
  // Small gaps heal through view-change replies without a round-trip.
  if (sync_.target <= first + kViewChangeReplySlots) return;
  // An in-flight request still covers unadopted slots: let it stream.
  if (sync_.timer != 0 && sync_.requested_upto > first) return;
  send_sync_request();
}

void MultishotNode::send_sync_request() {
  const Slot first = chain_.first_unfinalized();
  sync_.requested_upto = std::min(sync_.target, first + kSyncPipelineDepth);
  sync_.adopted_since_request = 0;
  if (sync_.timer != 0) ctx().cancel_timer(sync_.timer);
  sync_.timer = ctx().set_timer(sync_timeout());
  ctx().metrics().counter("multishot.sync.requests").add();
  // Broadcast: adoption needs f+1 matching copies in the unauthenticated
  // model, so the range must come from f+1 peers anyway; a timeout simply
  // re-broadcasts from the current frontier (re-requesting from whichever
  // peers are alive).
  broadcast_ms(MsSyncRequest{first, sync_.requested_upto});
}

MsSyncChunk MultishotNode::sync_chunk(Slot from, Slot upto) const {
  MsSyncChunk out;
  out.frontier = chain_.first_unfinalized();
  out.tail_first = chain_.tail_first();
  // Serve only resident finalized blocks. Otherwise refuse with a hint: the
  // range is compacted past our tail, or we hold nothing the requester
  // lacks. The (tail_first, frontier) pair tells the requester whether
  // checkpoint transfer is its only way back.
  const Slot stop =
      std::min({upto, out.frontier, from + slot_count(MsSyncChunk::kMaxBlocksPerChunk)});
  if (from < out.tail_first || from >= stop) return out;
  out.start = from;
  for (Slot t = from; t < stop; ++t) out.blocks.push_back(*chain_.block_at(t));
  return out;
}

void MultishotNode::handle(NodeId from, const MsSyncRequest& m) {
  if (from == ctx().id()) return;  // own broadcast
  // The pipeline bound defends responder bandwidth against Byzantine huge
  // ranges.
  const Slot upto = std::min(m.upto, m.from + kSyncPipelineDepth);
  MsSyncChunk out = sync_chunk(m.from, upto);
  if (out.blocks.empty()) {
    ctx().metrics().counter("multishot.sync.refused").add();
    send_ms(from, out);
    return;
  }
  while (!out.blocks.empty()) {
    const Slot next = out.start + slot_count(out.blocks.size());
    ctx().metrics().counter("multishot.sync.chunks_sent").add();
    send_ms(from, out);
    out = sync_chunk(next, upto);
  }
}

void MultishotNode::handle(NodeId from, const MsSyncChunk& m) {
  if (from == ctx().id()) return;
  for (const Block& b : m.blocks) note_block_claim(from, b);
  if (const std::size_t adopted = adopt_ready_claims(); adopted > 0) {
    sync_.adopted_since_request += adopted;
    ctx().metrics().counter("multishot.sync.blocks_adopted").add(adopted);
  }
  // A refusal whose tail starts past our frontier proves this peer cannot
  // serve our gap from resident blocks: record its servable checkpoint
  // range and pivot to checkpoint transfer once f+1 peers agree (instead of
  // spinning on the progress timer re-requesting a compacted range).
  if (m.start == 0 && m.blocks.empty() && m.frontier > chain_.first_unfinalized() &&
      m.tail_first > chain_.first_unfinalized()) {
    note_ckpt_range(from, m.tail_first, m.frontier);
  }
  // Continuation cursor: adopting up to requested_upto makes the next
  // maybe_request_sync issue the follow-up range; a fresher frontier in the
  // chunk extends the target first.
  note_frontier(m.frontier);
}

// --- Checkpoint state transfer ---------------------------------------------

void MultishotNode::note_ckpt_range(NodeId from, Slot tail_first, Slot frontier) {
  if (ckpt_.peers.size() != cfg_.n) ckpt_.peers.assign(cfg_.n, {});
  ckpt_.peers[from] = CkptFetch::PeerRange{tail_first, frontier};
  maybe_start_ckpt_fetch();
}

void MultishotNode::maybe_start_ckpt_fetch() {
  if (ckpt_.anchor != 0) return;  // one fetch at a time
  // Anchor choice: the lowest advertised tip (frontier - 1). Checkpoints
  // only trail tips, so every roughly-caught-up peer can recompute its
  // checkpoint there; peers whose compaction already passed it (tail_first
  // - 1 > S) do not qualify. The fetch starts only when a blocking set
  // (f+1: at least one honest) can serve the anchor -- fewer could mean f
  // Byzantine hints fabricating an unservable slot.
  Slot anchor = 0;
  for (const auto& p : ckpt_.peers) {
    if (p.frontier == 0) continue;
    if (anchor == 0 || p.frontier - 1 < anchor) anchor = p.frontier - 1;
  }
  if (anchor == 0 || anchor <= chain_.finalized_count()) return;
  std::uint32_t servers = 0;
  for (const auto& p : ckpt_.peers) {
    if (p.frontier == 0) continue;
    if (p.tail_first - 1 <= anchor && anchor <= p.frontier - 1) ++servers;
  }
  if (!qp_.is_blocking(servers)) return;
  ckpt_.reset_transfer();
  ckpt_.anchor = anchor;
  if (ckpt_.timer != 0) ctx().cancel_timer(ckpt_.timer);
  ckpt_.timer = ctx().set_timer(sync_timeout());
  ctx().metrics().counter("multishot.ckpt.requests").add();
  broadcast_ms(MsCheckpointRequest{anchor});
}

void MultishotNode::handle(NodeId from, const MsCheckpointRequest& m) {
  if (from == ctx().id()) return;  // own broadcast
  const auto cp = chain_.finalized().checkpoint_at(m.at);
  if (!cp.has_value()) {
    // Outside [checkpoint.slot, tip]: compacted below, or not finalized yet.
    ctx().metrics().counter("multishot.ckpt.refused").add();
    return;
  }
  serde::Writer w;
  chain_.finalized().encode_commit_state(w, m.at);
  const std::vector<std::uint8_t> blob = w.take();
  const std::uint64_t state_hash = fnv1a64(blob);
  ctx().metrics().counter("multishot.ckpt.served").add();
  for (std::size_t off = 0; off < blob.size(); off += MsCheckpointChunk::kMaxChunkBytes) {
    MsCheckpointChunk out;
    out.cp = *cp;
    out.state_hash = state_hash;
    out.state_size = blob.size();
    out.offset = off;
    const std::size_t len = std::min(MsCheckpointChunk::kMaxChunkBytes, blob.size() - off);
    out.data.assign(blob.begin() + static_cast<std::ptrdiff_t>(off),
                    blob.begin() + static_cast<std::ptrdiff_t>(off + len));
    send_ms(from, out);
  }
}

void MultishotNode::handle(NodeId from, const MsCheckpointChunk& m) {
  if (from == ctx().id()) return;
  if (ckpt_.anchor == 0 || m.cp.slot != ckpt_.anchor) return;  // stale / unsolicited
  // Identity of the offered state: checkpoint fields + blob hash + size.
  // Vouching is over the identity; the bytes themselves are verified against
  // state_hash before install, so only ONE sender's bytes are ever buffered.
  std::uint64_t idhash = hash_combine(m.cp.slot, m.cp.chain_hash);
  idhash = hash_combine(idhash, m.cp.tx_count);
  idhash = hash_combine(idhash, m.cp.boundary_hash);
  idhash = hash_combine(idhash, m.state_hash);
  idhash = hash_combine(idhash, m.state_size);

  std::size_t idx = ckpt_.identities.size();
  for (std::size_t i = 0; i < ckpt_.identities.size(); ++i) {
    if (ckpt_.identities[i].idhash == idhash) {
      idx = i;
      break;
    }
  }
  if (idx == ckpt_.identities.size()) {
    if (idx == max_ckpt_identities(cfg_.f)) return;  // Byzantine fan-out bound
    CkptFetch::Identity ident;
    ident.idhash = idhash;
    ident.cp = m.cp;
    ident.state_hash = m.state_hash;
    ident.state_size = m.state_size;
    ident.vouchers.reset(cfg_.n);
    ckpt_.identities.push_back(std::move(ident));
  }
  CkptFetch::Identity& ident = ckpt_.identities[idx];
  ident.vouchers.insert(from);

  if (ckpt_.chosen == SIZE_MAX) ckpt_.chosen = idx;
  if (ckpt_.chosen == idx) {
    // Contiguous fill of the chosen identity's blob (chunks may repeat on
    // re-request; overlaps are tolerated, gaps wait for re-delivery).
    if (m.offset <= ckpt_.received && m.offset + m.data.size() > ckpt_.received) {
      const std::size_t skip = static_cast<std::size_t>(ckpt_.received - m.offset);
      ckpt_.buf.insert(ckpt_.buf.end(),
                       m.data.begin() + static_cast<std::ptrdiff_t>(skip), m.data.end());
      ckpt_.received = m.offset + m.data.size();
    }
  } else if (qp_.is_blocking(ident.vouchers.count())) {
    // A different identity reached the vouching bar first (the initially
    // chosen sender was Byzantine or rotation-skewed): switch to it and
    // re-request its bytes.
    ckpt_.chosen = idx;
    ckpt_.buf.clear();
    ckpt_.received = 0;
    broadcast_ms(MsCheckpointRequest{ckpt_.anchor});
    return;
  }

  const CkptFetch::Identity& chosen = ckpt_.identities[ckpt_.chosen];
  if (qp_.is_blocking(chosen.vouchers.count()) && ckpt_.received == chosen.state_size &&
      fnv1a64(ckpt_.buf) == chosen.state_hash) {
    install_fetched_checkpoint(chosen);
  }
}

void MultishotNode::install_fetched_checkpoint(const CkptFetch::Identity& ident) {
  const Slot old_first = chain_.first_unfinalized();
  if (!chain_.install_checkpoint(ident.cp, ckpt_.buf)) {
    finish_ckpt_fetch();  // overtaken while the transfer streamed
    return;
  }
  ctx().metrics().counter("multishot.ckpt.installed").add();
  // Mempool reconciliation against the adopted prefix. The installed digest
  // set covers (cp.slot - H, cp.slot]: when that spans every skipped slot,
  // entries it reports committed leave the pool (their blocks are
  // compacted -- the per-block reconciliation in note_finalized never saw
  // them) and inflight entries attributed to swallowed slots are settled
  // either way. A jump of H or more leaves skipped slots no window can
  // decide, so every pre-install entry expires instead (the dedup horizon
  // contract in finalized_store.hpp).
  if (ident.cp.slot >= old_first + kDedupHorizon) {
    ctx().metrics().counter("multishot.mempool.expired").add(mempool_.size());
    mempool_.clear();
  }
  for (auto h = mempool_.front(); h != BoundedMempool::kNone;) {
    const auto next = mempool_.next(h);
    const BoundedMempool::Entry& e = mempool_.at(h);
    if (chain_.commit_slot(e.tx, e.hash) != 0) mempool_.erase(h);
    h = next;
  }
  mempool_.release_through(ident.cp.slot);
  if (self_skipped()) stranded_ = true;
  finish_ckpt_fetch();
  prune_slots();
  // Resume: the remaining gap (anchor .. live frontier) is range-syncable
  // again, and the freshly advanced chain may unblock voting/proposing.
  const Slot next = chain_.first_unfinalized();
  wake_slot(next);
  try_vote(next);
  try_propose(next);
  maybe_request_sync();
}

void MultishotNode::finish_ckpt_fetch() {
  if (ckpt_.timer != 0) {
    ctx().cancel_timer(ckpt_.timer);
    ckpt_.timer = 0;
  }
  ckpt_.reset_transfer();
  // Peer ranges are cleared too: they described a gap that no longer exists
  // (or hints that went stale); the next refusal round repopulates them.
  ckpt_.peers.assign(ckpt_.peers.size(), {});
}

// --- Unfinalized-block content recovery -------------------------------------

void MultishotNode::request_block_content(Slot s, std::uint64_t hash, bool retransmit) {
  SlotState* st = slot_state(s, true);
  if (st == nullptr) return;  // outside the window: nothing to recover into
  // try_propose / on_notarized re-enter on nearly every message; broadcast
  // only when the want changes, and otherwise ride the view-timer cadence
  // (the retransmit path) so a wedged slot costs one request per timeout.
  if (st->wanted_hash == hash && !retransmit) return;
  st->wanted_hash = hash;
  ctx().metrics().counter("multishot.blockreq.sent").add();
  // Broadcast: the hash authenticates the reply, so any single holder --
  // a voter that kept its candidate, or a node that already finalized the
  // slot -- suffices. Retransmission rides the view-timer cadence.
  broadcast_ms(MsBlockRequest{s, hash});
}

void MultishotNode::handle(NodeId from, const MsBlockRequest& m) {
  if (from == ctx().id()) return;  // own broadcast
  const Block* b = chain_.find_block(m.slot, m.block_hash);
  if (b == nullptr) {
    // The slot may have finalized here (candidates pruned): serve from the
    // resident finalized tail when the hash matches.
    if (chain_.hash_at(m.slot) == m.block_hash) b = chain_.block_at(m.slot);
  }
  if (b == nullptr) return;
  ctx().metrics().counter("multishot.blockreq.served").add();
  send_ms(from, MsBlockReply{m.slot, *b});
}

void MultishotNode::handle(NodeId from, const MsBlockReply& m) {
  if (from == ctx().id() || chain_.is_finalized(m.slot)) return;
  SlotState* st = slot_state(m.slot, false);
  const std::uint64_t h = m.block.hash();
  // Accept only content this node is actually waiting for: its recorded
  // recovery want or the slot's current notarization. Anything else is a
  // Byzantine plant and may not occupy candidate storage.
  const bool wanted = (st != nullptr && st->wanted_hash == h) ||
                      [&] {
                        const auto nt = chain_.notarized(m.slot);
                        return nt && nt->hash == h;
                      }();
  if (!wanted) return;
  if (!chain_.add_block(m.block, h)) return;  // window race: drop
  if (st != nullptr && st->wanted_hash == h) st->wanted_hash = 0;
  ctx().metrics().counter("multishot.blockreq.adopted").add();
  // The recovered bytes can complete a notarization's finalization chain,
  // expose a parent-link seam that now has enough content to heal, satisfy
  // a pending vote, or unblock the Rule-1-forced re-proposal that asked
  // for them.
  heal_notarization_seams();
  finalize_progress();
  const Slot next = chain_.first_unfinalized();
  try_vote(m.slot);
  try_propose(m.slot);
  try_vote(next);
  try_propose(next);
}

// --- Client-request forwarding ---------------------------------------------

void MultishotNode::handle(NodeId from, const MsForwardTx& m) {
  auto& metrics = ctx().metrics();
  // The sender submits: it shares the next window's slots (submitters()).
  peers_[from].submitter_until = chain_.first_unfinalized() + ChainStore::kWindow;
  // A relay stamped too far behind our chain may have a twin committed at
  // a slot the commit index no longer covers (kDedupHorizon): admitting it
  // could commit the bytes twice. The sender's held copy still carries it.
  constexpr Slot kStale = kDedupHorizon - ChainStore::kWindow;
  const Slot first = chain_.first_unfinalized();
  if (first > kStale && m.first_unfinalized < first - kStale) {
    metrics.counter("multishot.forward.expired").add();
    return;
  }
  // Dedup, hashed once: committed requests answer from the commit index;
  // a copy already pending here -- submitted directly, or an earlier relay
  // of the same request (a client retrying via different nodes) -- from
  // the pool probe.
  const std::uint64_t h = fnv1a64(m.tx);
  if (chain_.commit_slot(m.tx, h) != 0 || mempool_.contains(h, m.tx)) {
    metrics.counter("multishot.forward.deduped").add();
    return;
  }
  if (!mempool_.push(std::vector<std::uint8_t>(m.tx), cfg_.max_batch_bytes, h)) {
    metrics.counter("multishot.forward.rejected").add();
    return;
  }
  mempool_.at(mempool_.back()).relayed = true;
  metrics.counter("multishot.forward.received").add();
  // Single hop: a relayed request is never re-forwarded; it wakes the idle
  // chain exactly like a local submission.
  after_admission();
}

bool chains_prefix_consistent(const std::vector<MultishotNode*>& nodes) {
  // All pairs, not just each-vs-longest: with per-node compaction two nodes
  // can be incomparable against the longest chain (its checkpoint passed
  // their tips) yet still comparable against each other. A pair where no
  // common slot is resident on both sides AND the digest floor lies above
  // the common tip is vacuously consistent -- the witnessing data no longer
  // exists anywhere; production tails (4096) keep every in-simulation
  // overlap resident, so this only arises in deliberate tiny-tail tests.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const MultishotNode* a = nodes[i];
    if (a == nullptr) continue;
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const MultishotNode* b = nodes[j];
      if (b == nullptr) continue;
      const Slot common = std::min(a->finalized_count(), b->finalized_count());
      if (common == 0) continue;
      // Resident overlap: blocks must be byte-equal.
      const Slot lo = std::max(a->chain().tail_first(), b->chain().tail_first());
      for (Slot s = lo; s <= common; ++s) {
        const Block* ba = a->block_at(s);
        const Block* bb = b->block_at(s);
        if (ba == nullptr || bb == nullptr || !(*ba == *bb)) return false;
      }
      // Prefixes reaching below a tail: cumulative digests must agree at
      // the deepest slot both stores can still digest.
      const Slot dlo = std::max(a->chain().checkpoint().slot, b->chain().checkpoint().slot);
      if (dlo <= common) {
        const auto da = a->chain().prefix_digest(common);
        const auto db = b->chain().prefix_digest(common);
        if (!da || !db || *da != *db) return false;
      }
    }
  }
  return true;
}

}  // namespace tbft::multishot
