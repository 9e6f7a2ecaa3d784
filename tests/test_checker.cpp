// Model-checker tests (paper §5 analogue): guard semantics, small-bound
// exhaustive safety, and mutation testing -- every deliberately weakened
// rule clause must produce a reachable agreement violation, validating both
// the checker and the necessity of the clause.

#include <gtest/gtest.h>

#include <utility>

#include "checker/explorer.hpp"
#include "checker/sync_spec.hpp"

namespace tbft::checker {
namespace {

SpecConfig small_cfg() {
  SpecConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.byz = 1;
  cfg.rounds = 2;
  cfg.values = 2;
  return cfg;
}

TEST(SpecGuards, InitialStateHasOnlyStartRoundAndRound0Votes) {
  const Spec spec(small_cfg());
  const State init = spec.initial_state();
  for (const auto& a : spec.enabled_actions(init)) {
    EXPECT_EQ(a.kind, Action::Kind::StartRound);
  }
}

TEST(SpecGuards, Vote1EnabledAtRoundZeroAfterStart) {
  const Spec spec(small_cfg());
  State s = spec.initial_state();
  s = spec.apply(s, {Action::Kind::StartRound, 0, 0, 0});
  bool vote1_enabled = false;
  for (const auto& a : spec.enabled_actions(s)) {
    if (a.kind == Action::Kind::Vote1 && a.node == 0) vote1_enabled = true;
  }
  EXPECT_TRUE(vote1_enabled);  // round 0: every value is safe
}

TEST(SpecGuards, AcceptedNeedsQuorumMinusByzantineHonestVotes) {
  const Spec spec(small_cfg());  // quorum 3, byz 1 => 2 honest votes needed
  State s = spec.initial_state();
  for (int p = 0; p < 2; ++p) {
    s = spec.apply(s, {Action::Kind::StartRound, p, 0, 0});
    s = spec.apply(s, {Action::Kind::Vote1, p, 0, 1});
  }
  EXPECT_TRUE(spec.accepted(s, 1, 0, 1));
  EXPECT_FALSE(spec.accepted(s, 2, 0, 1));
}

TEST(SpecGuards, ClaimsSafeAtMatchesRuleFour) {
  const Spec spec(small_cfg());
  State s = spec.initial_state();
  // Round 0 claims are universal.
  EXPECT_TRUE(spec.claims_safe_at(s, 0, 1, 1, 0, 1));
  // A phase-1 vote at round 0 for value 1 claims value 1 safe at r2=... any
  // r2 <= 0 within r=1: here r2 must be 0 (universal anyway). Set up a vote
  // and check the value-match branch at r2 = 1 with rounds = 3.
  SpecConfig cfg = small_cfg();
  cfg.rounds = 3;
  const Spec spec3(cfg);
  State t = spec3.initial_state();
  t = spec3.apply(t, {Action::Kind::StartRound, 0, 1, 0});
  t = spec3.apply(t, {Action::Kind::Vote1, 0, 1, 1});
  EXPECT_TRUE(spec3.claims_safe_at(t, 0, 1, 2, 1, 1));   // vote at (1, ph1, v1)
  EXPECT_FALSE(spec3.claims_safe_at(t, 0, 2, 2, 1, 1));  // wrong value, no prev
}

TEST(SpecGuards, CanonicalizationIsStableAndSymmetric) {
  const Spec spec(small_cfg());
  State s = spec.initial_state();
  s = spec.apply(s, {Action::Kind::StartRound, 0, 0, 0});
  s = spec.apply(s, {Action::Kind::Vote1, 0, 0, 1});

  // The same history under value relabeling 1<->2 and on another node must
  // canonicalize identically.
  State t = spec.initial_state();
  t = spec.apply(t, {Action::Kind::StartRound, 2, 0, 0});
  t = spec.apply(t, {Action::Kind::Vote1, 2, 0, 2});

  EXPECT_EQ(spec.canonicalize(s), spec.canonicalize(t));
  EXPECT_EQ(spec.canonicalize(s), spec.canonicalize(spec.canonicalize(s)));
}

TEST(CheckerExhaustive, TwoRoundsTwoValuesSafe) {
  const Spec spec(small_cfg());
  const auto res = explore_bfs(spec);
  EXPECT_TRUE(res.exhaustive_ok()) << res.violated_property;
  EXPECT_GT(res.states, 100u);
}

TEST(CheckerExhaustive, ThreeRoundsTwoValuesSafe) {
  SpecConfig cfg = small_cfg();
  cfg.rounds = 3;
  const auto res = explore_bfs(Spec(cfg), 3'000'000);
  EXPECT_FALSE(res.violation) << res.violated_property;
  // Either fully exhausted or capped without violation; record which.
  if (res.capped) {
    SUCCEED() << "capped at " << res.states << " states without violation";
  }
}

TEST(CheckerMutations, UnguardedVote1ViolatesAgreement) {
  SpecConfig cfg = small_cfg();
  cfg.mutation = SpecConfig::Mutation::UnguardedVote1;
  const auto res = explore_bfs(Spec(cfg));
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "Consistency");
}

TEST(CheckerMutations, MissingValueMatchAtR2ViolatesAgreement) {
  SpecConfig cfg = small_cfg();
  cfg.mutation = SpecConfig::Mutation::NoValueMatchAtR2;
  const auto res = explore_bfs(Spec(cfg));
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "Consistency");
}

TEST(CheckerMutations, BlockingOffByOneViolatesAgreement) {
  // The f-sized blocking set only bites with an intermediate round (decide
  // at round 0, skip round 1, revote at round 2) -- a 20-step trace that is
  // too deep a needle for capped BFS or random walks, so we drive the
  // counterexample explicitly and check every step is enabled under the
  // mutation. Under the unmutated spec the pivotal Vote1 is disabled
  // (asserted at the bottom): the f+1 blocking threshold is exactly what
  // blocks it.
  SpecConfig cfg = small_cfg();
  cfg.rounds = 3;
  cfg.mutation = SpecConfig::Mutation::BlockingOffByOne;
  const Spec spec(cfg);

  using K = Action::Kind;
  const std::vector<Action> trace = {
      // Round 0: nodes 0 and 1 run the full cascade and decide value 1.
      {K::StartRound, 0, 0, 0}, {K::StartRound, 1, 0, 0},
      {K::Vote1, 0, 0, 1},      {K::Vote1, 1, 0, 1},
      {K::Vote2, 0, 0, 1},      {K::Vote2, 1, 0, 1},
      {K::Vote3, 0, 0, 1},      {K::Vote3, 1, 0, 1},
      {K::Vote4, 0, 0, 1},      {K::Vote4, 1, 0, 1},
      // Round 2: nodes 1 and 2 revote value 2 (round 1 skipped, so the
      // vote-4s at round 0 pass the r2=1 member filter; only the blocking
      // claim should forbid this -- and the mutation waived it).
      {K::StartRound, 1, 2, 0}, {K::StartRound, 2, 2, 0},
      {K::Vote1, 1, 2, 2},      {K::Vote1, 2, 2, 2},
      {K::Vote2, 1, 2, 2},      {K::Vote2, 2, 2, 2},
      {K::Vote3, 1, 2, 2},      {K::Vote3, 2, 2, 2},
      {K::Vote4, 1, 2, 2},      {K::Vote4, 2, 2, 2},
  };

  auto enabled = [](const Spec& sp, const State& st, const Action& a) {
    for (const auto& e : sp.enabled_actions(st)) {
      if (e.kind == a.kind && e.node == a.node && e.round == a.round &&
          (a.kind == K::StartRound || e.value == a.value)) {
        return true;
      }
    }
    return false;
  };

  State s = spec.initial_state();
  State at_pivot{};  // state right before the first round-2 Vote1
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i == 12) at_pivot = s;
    ASSERT_TRUE(enabled(spec, s, trace[i])) << "step " << i;
    s = spec.apply(s, trace[i]);
  }
  EXPECT_FALSE(spec.consistent(s));
  EXPECT_EQ(spec.decided_values(s).size(), 2u);

  // The unmutated spec rejects the pivotal Vote1 at the same state.
  SpecConfig sound = cfg;
  sound.mutation = SpecConfig::Mutation::None;
  const Spec sound_spec(sound);
  EXPECT_FALSE(enabled(sound_spec, at_pivot, trace[12]));
}

TEST(CheckerMutations, QuorumOffByOneViolatesAgreement) {
  SpecConfig cfg = small_cfg();
  cfg.mutation = SpecConfig::Mutation::QuorumOffByOne;
  const auto res = explore_bfs(Spec(cfg));
  EXPECT_TRUE(res.violation);
}

TEST(CheckerRandom, PaperBoundsRandomWalksFindNoViolation) {
  // The paper's bounds: 4 nodes, 1 Byzantine, 3 values, 5 views. Exhaustive
  // exploration is run by bench_checker; here a randomized smoke pass.
  SpecConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.byz = 1;
  cfg.rounds = 5;
  cfg.values = 3;
  const auto res = explore_random(Spec(cfg), 300, 60, 0xC0FFEE);
  EXPECT_FALSE(res.violation) << res.violated_property;
}

TEST(CheckerRandom, RandomWalksCatchMutantQuickly) {
  SpecConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.byz = 1;
  cfg.rounds = 3;
  cfg.values = 2;
  cfg.mutation = SpecConfig::Mutation::UnguardedVote1;
  const auto res = explore_random(Spec(cfg), 3000, 60, 7);
  EXPECT_TRUE(res.violation);
}

TEST(CheckerExhaustive, SevenNodesTwoByzSmallBounds) {
  SpecConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.byz = 2;
  cfg.rounds = 2;
  cfg.values = 2;
  const auto res = explore_bfs(Spec(cfg), 2'000'000);
  EXPECT_FALSE(res.violation) << res.violated_property;
}

// --- Catch-up path specs (sync_spec.hpp) ------------------------------------

TEST(SyncSpec, AdoptionAtFPlusOneIsSafeExhaustively) {
  // n = 4 / f = 1 and n = 7 / f = 2, Byzantine budget saturated: every
  // claim interleaving, the laggard only ever adopts the ground truth.
  for (const auto& [n, f] : {std::pair{4, 1}, std::pair{7, 2}}) {
    SyncSpecConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.byz = f;
    const auto res = explore_sync(cfg);
    EXPECT_TRUE(res.exhaustive_ok()) << "n=" << n << ": " << res.violated_property;
    EXPECT_GT(res.states, 1u);
  }
}

TEST(SyncSpec, BlockingOffByOneLetsByzantinesForgeASlot) {
  // Threshold f instead of f+1: the f wildcards alone clear it and the
  // laggard adopts a block that never existed.
  SyncSpecConfig cfg;
  cfg.byz = cfg.f;
  cfg.mutation = SyncSpecConfig::Mutation::BlockingOffByOne;
  const auto res = explore_sync(cfg);
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "AdoptedIsTruth");
}

TEST(ForwardSpec, PendingProbeKeepsCommitsExactlyOnce) {
  // Relay at admission and the re-relay of a stranded copy are one action
  // in the spec; every interleaving of it and of the view-change release
  // (origin copy batchable and probed, a twin to a second leader) with
  // proposals, commits, aborts and hold expiry commits the tx at most once.
  const auto res = explore_forward(ForwardSpecConfig{});
  EXPECT_TRUE(res.exhaustive_ok()) << res.violated_property;
  EXPECT_GT(res.states, 1u);
}

TEST(ForwardSpec, ReRelayWithoutTheHoldDoubleCommits) {
  // A stranded copy re-relayed to the next leader must be held at the
  // origin: left batchable (and twin-free, so unprobed) it rides the
  // origin's next proposal while the leader's copy rides another slot.
  ForwardSpecConfig cfg;
  cfg.mutation = ForwardSpecConfig::Mutation::ReRelayDropsHold;
  const auto res = explore_forward(cfg);
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "AtMostOneCommit");
}

TEST(ForwardSpec, ReleaseWithoutTheProbesDoubleCommits) {
  // The release must leave the origin's copy marked as having a twin (hold
  // = now, not 0): cleared to 0 it batches unprobed while the leader it was
  // relayed to -- suspected, not proven, crashed -- commits its own copy.
  ForwardSpecConfig cfg;
  cfg.mutation = ForwardSpecConfig::Mutation::ReleaseUnprobed;
  const auto res = explore_forward(cfg);
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "AtMostOneCommit");
}

TEST(ForwardSpec, DroppingThePendingProbeDoubleCommits) {
  // The exact race the chaos fuzzer surfaced (seeds 205/362 pre-fix): the
  // origin's hold expires while the leader's candidate is still pending;
  // without the pending_candidate_frames probe it re-batches, and both
  // candidates commit.
  ForwardSpecConfig cfg;
  cfg.mutation = ForwardSpecConfig::Mutation::NoPendingProbe;
  const auto res = explore_forward(cfg);
  EXPECT_TRUE(res.violation);
  EXPECT_EQ(res.violated_property, "AtMostOneCommit");
}

}  // namespace
}  // namespace tbft::checker
