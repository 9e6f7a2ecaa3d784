#pragma once
// Abstract specs for the two catch-up paths the main spec (spec.hpp) does not
// cover: range-sync adoption (MsSyncRequest / MsSyncChunk) and client-request
// forwarding (MsForwardTx). Both follow the same recipe as the single-shot
// spec: a tiny abstract state, Byzantine behavior as per-guard wildcards, an
// invariant, and one mutation per load-bearing guard clause that the
// exhaustive explorer must catch.
//
// SyncSpec -- a laggard adopting a finalized block it missed. Peers claim
// "slot s finalized with id v"; honest peers claim the ground truth, the byz
// wildcards claim anything. The laggard adopts once f+1 DISTINCT peers agree
// on an id: any f+1 set contains an honest member, so the id is the truth.
// Invariant: the laggard never adopts a non-truth id. The BlockingOffByOne
// mutation (threshold f) lets an all-Byzantine claimer set force a lie.
//
// ForwardSpec -- one client transaction, three holders: the origin admitted
// it, the leader may receive a relayed copy, and a second leader may
// receive the copy the origin takes back. Until the origin relays, its
// copy has no twin and batches without probing. The relay is one action,
// taken either at admission or later, when the origin's stripe has passed
// with the copy still in its pool (the re-relay of a stranded pool); it is
// enabled only while the origin holds no pending candidate for the tx. It
// hands the leader a batchable copy and holds the origin's. The release is
// the take-back when a view change moves the slot off that leader: the
// origin's held copy turns batchable, still probed, and may also go to the
// second leader. From then on every copy runs the real build_batch rule:
// batch only when NO other pending or committed candidate already carries
// the tx. Holds expire freely (timeouts are not guards); the probe at batch
// time is the guard. Invariant: at most one commit. Each mutation drops
// one guard clause: NoPendingProbe (batch checks committed blocks only)
// reproduces exactly the double-commit race the chaos fuzzer found in seeds
// 205/362; ReRelayDropsHold (the origin relays but keeps its copy
// twin-free and batchable) lets both copies ride live slots; and
// ReleaseUnprobed (the release clears the hold to 0, so the origin's copy
// skips the probes) rides the origin's copy beside the leader's.

#include <cstdint>

#include "checker/bfs.hpp"

namespace tbft::checker {

// --- Range-sync adoption ----------------------------------------------------

struct SyncSpecConfig {
  int n{4};  // total nodes: 1 laggard + n-1 potential claimers
  int f{1};  // fault budget
  int byz{1};  // Byzantine claimers (<= f)

  enum class Mutation : std::uint8_t {
    None = 0,
    BlockingOffByOne,  // adopt at f distinct claimers instead of f+1
  };
  Mutation mutation{Mutation::None};

  [[nodiscard]] int claimers() const noexcept { return n - 1; }
  [[nodiscard]] int threshold() const noexcept {
    return mutation == Mutation::BlockingOffByOne ? f : f + 1;
  }
};

/// Exhaustively explore all claim interleavings. Ids are abstracted to
/// {truth = 1, lie = 2}; honest claimers only ever claim 1, Byzantine
/// claimers claim either. Violation: the laggard adopts 2.
ExploreResult explore_sync(const SyncSpecConfig& cfg);

// --- Forwarded-transaction exactly-once -------------------------------------

struct ForwardSpecConfig {
  enum class Mutation : std::uint8_t {
    None = 0,
    NoPendingProbe,    // build_batch ignores pending candidates (pre-fix bug)
    ReRelayDropsHold,  // the relay leaves the origin's copy batchable, unprobed
    ReleaseUnprobed,   // the release sets hold_until = 0: the copy skips the probes
  };
  Mutation mutation{Mutation::None};
};

/// Exhaustively explore relay / release / propose / commit / abandon /
/// expire interleavings of one tx across its three holders. Violation: two
/// commits.
ExploreResult explore_forward(const ForwardSpecConfig& cfg);

}  // namespace tbft::checker
