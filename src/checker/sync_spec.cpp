#include "checker/sync_spec.hpp"

#include <array>
#include <cstddef>
#include <string>

#include "common/assert.hpp"

namespace tbft::checker {

// --- Range-sync adoption ----------------------------------------------------
//
// State: per claimer the id it has claimed (0 = none yet, 1 = truth,
// 2 = lie), plus the laggard's adopted id (0 = none). Claimers 0..byz-1 are
// the Byzantine wildcards.

namespace {

struct SyncState {
  std::array<std::int8_t, 8> claim{};  // 0 none / 1 truth / 2 lie
  std::int8_t adopted{0};

  friend bool operator==(const SyncState&, const SyncState&) = default;
};

struct SyncStateHash {
  std::size_t operator()(const SyncState& s) const noexcept {
    std::size_t h = static_cast<std::size_t>(s.adopted);
    for (std::int8_t c : s.claim) h = h * 31 + static_cast<std::size_t>(c + 1);
    return h;
  }
};

int count_claims(const SyncState& s, int claimers, std::int8_t id) {
  int c = 0;
  for (int p = 0; p < claimers; ++p) c += (s.claim[p] == id) ? 1 : 0;
  return c;
}

}  // namespace

ExploreResult explore_sync(const SyncSpecConfig& cfg) {
  TBFT_ASSERT(cfg.claimers() <= 8);   // sync spec is bounded to 8 claimers
  TBFT_ASSERT(cfg.byz <= cfg.f);      // Byzantine claimers within the budget
  const auto check = [](const SyncState& s) {
    return std::string(s.adopted == 2 ? "AdoptedIsTruth" : "");
  };
  const auto expand = [&cfg](const SyncState& s, auto&& emit) {
    // Claim(p, id): each claimer speaks once; honest claimers report the
    // ground truth, wildcards say whatever helps.
    for (int p = 0; p < cfg.claimers(); ++p) {
      if (s.claim[p] != 0) continue;
      for (std::int8_t id = 1; id <= 2; ++id) {
        if (p >= cfg.byz && id != 1) continue;  // honest: truth only
        SyncState t = s;
        t.claim[p] = id;
        emit(t);
      }
    }
    // Adopt(id): threshold distinct claimers agree. The laggard has no way
    // to tell truth from lie except the count -- this is the guard under
    // test.
    if (s.adopted == 0) {
      for (std::int8_t id = 1; id <= 2; ++id) {
        if (count_claims(s, cfg.claimers(), id) < cfg.threshold()) continue;
        SyncState t = s;
        t.adopted = id;
        emit(t);
      }
    }
  };
  return explore_breadth_first<SyncStateHash>(
      SyncState{}, [](const SyncState& s) { return s; }, check, expand);
}

// --- Forwarded-transaction exactly-once -------------------------------------
//
// Three holders: 0 = the leader the relay targets, 1 = the origin, and
// 2 = the leader a released copy is re-relayed to. Per holder a copy state,
// whether it knows of a twin (a relayed copy, or the origin's copy once
// relayed -- only those copies run the dedup probes), and a candidate-block
// state. Delivery is abstracted away (candidates are globally visible --
// the BFS interleavings already cover "probed before the other proposed").

namespace {

enum class Copy : std::int8_t { kNone, kHold, kBatchable, kSpent };
enum class Cand : std::int8_t { kNone, kPending, kCommitted, kAbandoned };

constexpr int kHolders = 3;
constexpr int kLeader = 0;
constexpr int kOrigin = 1;
constexpr int kSecond = 2;

struct FwdState {
  std::array<Copy, kHolders> copy{Copy::kNone, Copy::kBatchable, Copy::kNone};
  std::array<bool, kHolders> twin{false, false, false};
  std::array<Cand, kHolders> cand{Cand::kNone, Cand::kNone, Cand::kNone};

  friend bool operator==(const FwdState&, const FwdState&) = default;
};

struct FwdStateHash {
  std::size_t operator()(const FwdState& s) const noexcept {
    std::size_t h = 0;
    for (int i = 0; i < kHolders; ++i) {
      h = h * 16 + static_cast<std::size_t>(s.copy[i]);
      h = h * 2 + (s.twin[i] ? 1 : 0);
      h = h * 16 + static_cast<std::size_t>(s.cand[i]);
    }
    return h;
  }
};

int commit_count(const FwdState& s) {
  int c = 0;
  for (const Cand x : s.cand) c += x == Cand::kCommitted ? 1 : 0;
  return c;
}

}  // namespace

ExploreResult explore_forward(const ForwardSpecConfig& cfg) {
  using Mutation = ForwardSpecConfig::Mutation;
  const bool probe_pending = cfg.mutation != Mutation::NoPendingProbe;
  const bool relay_holds = cfg.mutation != Mutation::ReRelayDropsHold;
  const bool release_probes = cfg.mutation != Mutation::ReleaseUnprobed;
  const auto check = [](const FwdState& s) {
    return std::string(commit_count(s) > 1 ? "AtMostOneCommit" : "");
  };
  const auto expand = [=](const FwdState& s, auto&& emit) {
    // Relay: once per tx, from the origin's twin-free copy while no pending
    // candidate carries it (a batchable copy is never inflight) -- at
    // admission, or as the re-relay when the origin's stripe has passed.
    // Received copies are never re-forwarded (single hop).
    if (s.copy[kOrigin] == Copy::kBatchable && !s.twin[kOrigin] &&
        s.copy[kLeader] == Copy::kNone) {
      FwdState t = s;
      t.copy[kLeader] = Copy::kBatchable;
      t.twin[kLeader] = true;
      if (relay_holds) {
        t.copy[kOrigin] = Copy::kHold;
        t.twin[kOrigin] = true;
      }
      emit(t);
    }
    // Release: a view change moves the slot off the leader the origin
    // relayed to (take_back_relays). Not a guard on the leader's fate -- a
    // suspected leader may still have batched its copy. The origin's held
    // copy turns batchable but keeps its twin, so it still probes (hold =
    // now, not 0); when the new target is another leader, that leader gets
    // a twin copy too (once: received copies are never re-forwarded, and a
    // second release finds the copy batchable here already).
    if (s.copy[kOrigin] == Copy::kHold) {
      FwdState t = s;
      t.copy[kOrigin] = Copy::kBatchable;
      if (!release_probes) t.twin[kOrigin] = false;
      emit(t);
      if (s.copy[kSecond] == Copy::kNone) {
        t.copy[kSecond] = Copy::kBatchable;
        t.twin[kSecond] = true;
        emit(t);
      }
    }
    for (int i = 0; i < kHolders; ++i) {
      // Expire(i): the hold timeout fires. Timeouts are not guards -- the
      // copy simply becomes batchable again; build_batch's probe decides.
      if (s.copy[i] == Copy::kHold) {
        FwdState t = s;
        t.copy[i] = Copy::kBatchable;
        emit(t);
      }
      // Propose(i): build_batch. A copy with a twin probes first: skip when
      // any other candidate already carries the tx -- committed
      // (tx_finalized) always, pending (the pending_candidate_frames probe)
      // unless mutated away. A twin-free copy batches unprobed.
      if (s.copy[i] == Copy::kBatchable &&
          (s.cand[i] == Cand::kNone || s.cand[i] == Cand::kAbandoned)) {
        bool carried = false;
        for (int j = 0; j < kHolders; ++j) {
          carried = carried || (j != i && (s.cand[j] == Cand::kCommitted ||
                                           (probe_pending && s.cand[j] == Cand::kPending)));
        }
        if (!(s.twin[i] && carried)) {
          FwdState t = s;
          t.cand[i] = Cand::kPending;
          t.copy[i] = Copy::kSpent;
          emit(t);
        }
      }
      // Commit(i) / Abandon(i): consensus decides the candidate's fate.
      if (s.cand[i] == Cand::kPending) {
        FwdState t = s;
        t.cand[i] = Cand::kCommitted;
        emit(t);
        FwdState u = s;
        u.cand[i] = Cand::kAbandoned;
        // The batch's txs return to the holder: a twin's copy as a held
        // fallback, a twin-free copy batchable as before.
        u.copy[i] = s.twin[i] ? Copy::kHold : Copy::kBatchable;
        emit(u);
      }
    }
  };
  return explore_breadth_first<FwdStateHash>(
      FwdState{}, [](const FwdState& s) { return s; }, check, expand);
}

}  // namespace tbft::checker
