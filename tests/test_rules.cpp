// Handcrafted scenarios for Rules 1-4 (paper §3.2) and their helper
// algorithms. Each test encodes one clause of a rule or one lemma scenario
// from the security analysis (§4).

#include "core/rules.hpp"

#include <gtest/gtest.h>

#include "core/rules_reference.hpp"

namespace tbft::core {
namespace {

constexpr Value A{1}, B{2}, C{3}, INIT{100};

Suggest sug(VoteRef vote2, VoteRef prev_vote2, VoteRef vote3, View view = 1) {
  return Suggest{view, vote2, prev_vote2, vote3};
}
Proof prf(VoteRef vote1, VoteRef prev_vote1, VoteRef vote4, View view = 1) {
  return Proof{view, vote1, prev_vote1, vote4};
}
constexpr VoteRef none{};

// ---------------------------------------------------------------- claims_safe

TEST(ClaimsSafe, ViewZeroIsUniversallySafe) {
  EXPECT_TRUE(claims_safe(none, none, 0, A));
  EXPECT_TRUE(claims_safe(VoteRef{5, B}, none, 0, A));
}

TEST(ClaimsSafe, HighestVoteAtOrAboveViewWithMatchingValue) {
  EXPECT_TRUE(claims_safe(VoteRef{3, A}, none, 3, A));
  EXPECT_TRUE(claims_safe(VoteRef{5, A}, none, 3, A));
  EXPECT_FALSE(claims_safe(VoteRef{2, A}, none, 3, A));  // view too low
  EXPECT_FALSE(claims_safe(VoteRef{5, B}, none, 3, A));  // wrong value
}

TEST(ClaimsSafe, SecondHighestVoteIsValueAgnostic) {
  // Rule 2/4 item 3: prev.view >= v' claims *any* value safe.
  EXPECT_TRUE(claims_safe(VoteRef{5, B}, VoteRef{3, C}, 3, A));
  EXPECT_TRUE(claims_safe(VoteRef{5, B}, VoteRef{4, C}, 3, Value{999}));
  EXPECT_FALSE(claims_safe(VoteRef{5, B}, VoteRef{2, C}, 3, A));
}

TEST(ClaimsSafe, AbsentVotesClaimNothingAboveViewZero) {
  EXPECT_FALSE(claims_safe(none, none, 1, A));
  EXPECT_FALSE(claims_safe(none, none, 5, A));
}

// ------------------------------------------------------- leader_find_safe_value

TEST(Rule1, ViewZeroProposesInitial) {
  const QuorumParams qp(4, 1);
  EXPECT_EQ(leader_find_safe_value(qp, 0, INIT, {}), INIT);
}

TEST(Rule1, QuorumWithoutVote3MakesAnyValueSafe) {
  // Item 2a: a quorum reports never sending vote-3 => initial value safe.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(none, none, none)},
      {1, sug(VoteRef{0, A}, none, none)},
      {2, sug(none, none, none)},
  };
  EXPECT_EQ(leader_find_safe_value(qp, 1, INIT, s), INIT);
}

TEST(Rule1, InsufficientSuggestsYieldNothing) {
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(none, none, none)},
      {1, sug(none, none, none)},
  };
  EXPECT_EQ(leader_find_safe_value(qp, 1, INIT, s), std::nullopt);
}

TEST(Rule1, Lemma2ScenarioForcesVotedValue) {
  // A quorum voted-3 for A at view 0 (a decision may exist): the only safe
  // value is A, backed by blocking vote-2 claims.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(VoteRef{0, A}, none, VoteRef{0, A})},
      {1, sug(VoteRef{0, A}, none, VoteRef{0, A})},
      {2, sug(VoteRef{0, A}, none, VoteRef{0, A})},
  };
  EXPECT_EQ(leader_find_safe_value(qp, 1, INIT, s), A);
  EXPECT_TRUE(reference::rule1_safe(qp, 1, A, s));
  EXPECT_FALSE(reference::rule1_safe(qp, 1, INIT, s));
}

TEST(Rule1, ConflictingVote3ReportersAreExcludedFromQuorum) {
  // Nodes 0-2 voted-3 A at view 0; node 3 (Byzantine) reports vote-3 B at 0.
  // The quorum must avoid node 3 (item 2(b)ii) and A remains proposable.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(VoteRef{0, A}, none, VoteRef{0, A})},
      {1, sug(VoteRef{0, A}, none, VoteRef{0, A})},
      {2, sug(VoteRef{0, A}, none, VoteRef{0, A})},
      {3, sug(VoteRef{0, B}, none, VoteRef{0, B})},
  };
  EXPECT_EQ(leader_find_safe_value(qp, 1, INIT, s), A);
}

TEST(Rule1, HigherVote3WinsOverLower) {
  // vote-3 for A at view 0, then for B at view 1; in view 2 the latest
  // vote-3 view that a quorum is compatible with is 1, value B.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(VoteRef{1, B}, VoteRef{0, A}, VoteRef{1, B}, 2)},
      {1, sug(VoteRef{1, B}, VoteRef{0, A}, VoteRef{1, B}, 2)},
      {2, sug(VoteRef{1, B}, VoteRef{0, A}, VoteRef{1, B}, 2)},
  };
  const auto v = leader_find_safe_value(qp, 2, INIT, s);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, B);
  EXPECT_TRUE(reference::rule1_safe(qp, 2, B, s));
  EXPECT_FALSE(reference::rule1_safe(qp, 2, A, s));
}

TEST(Rule1, BlockingClaimRequiredEvenWhenQuorumCompatible) {
  // One node reports vote-3 A at view 0 but *nobody* claims A safe at 0 via
  // vote-2 -- impossible honestly, but Byzantine suggests can craft it. The
  // claim check (item 2(b)iii) fails for v'=0?  No: v'=0 claims are
  // universal. So craft at v'=1: node 0 voted-3 A at view 1, but no vote-2
  // claims at >= 1 exist. No value is determinable.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(none, none, VoteRef{1, A}, 2)},
      {1, sug(none, none, none, 2)},
      {2, sug(none, none, none, 2)},
  };
  // Quorum {0,1,2} has node 0 with vote-3 at view 1: v' must be 1 for a
  // quorum including node 0, needing blocking claims of A at 1: none.
  // Excluding node 0 leaves 2 suggests < quorum.
  EXPECT_EQ(leader_find_safe_value(qp, 2, INIT, s), std::nullopt);
  EXPECT_FALSE(reference::rule1_safe(qp, 2, A, s));
}

TEST(Rule1, HighestCompatibleViewWinsOverVote3History) {
  // vote-2 for B at view 2 proves a quorum voted-1 B at 2, above the
  // vote-3 for A at view 1: with v'=2 no quorum member voted-3 at or above
  // v', so B is safe at the highest v' and is returned; A is also safe (at
  // v'=1, where prev claims are value-agnostic), per the literal rule.
  const QuorumParams qp(4, 1);
  std::vector<SuggestFrom> s = {
      {0, sug(VoteRef{2, B}, VoteRef{1, A}, VoteRef{1, A}, 3)},
      {1, sug(VoteRef{2, B}, VoteRef{1, A}, VoteRef{1, A}, 3)},
      {2, sug(VoteRef{2, B}, VoteRef{1, A}, VoteRef{1, A}, 3)},
  };
  EXPECT_EQ(leader_find_safe_value(qp, 3, INIT, s), B);
  EXPECT_TRUE(reference::rule1_safe(qp, 3, B, s));
  EXPECT_TRUE(reference::rule1_safe(qp, 3, A, s));
  EXPECT_FALSE(reference::rule1_safe(qp, 3, C, s));
}

// --------------------------------------------------------------- proposal_is_safe

TEST(Rule3, ViewZeroAlwaysSafe) {
  const QuorumParams qp(4, 1);
  EXPECT_TRUE(proposal_is_safe(qp, 0, A, {}));
}

TEST(Rule3, QuorumWithoutVote4MakesAnyValueSafe) {
  const QuorumParams qp(4, 1);
  std::vector<ProofFrom> p = {
      {0, prf(VoteRef{0, A}, none, none)},
      {1, prf(none, none, none)},
      {2, prf(none, none, none)},
  };
  EXPECT_TRUE(proposal_is_safe(qp, 1, B, p));
  EXPECT_TRUE(reference::rule3_safe(qp, 1, B, p));
}

TEST(Rule3, InsufficientProofsReject) {
  const QuorumParams qp(4, 1);
  std::vector<ProofFrom> p = {
      {0, prf(none, none, none)},
      {1, prf(none, none, none)},
  };
  EXPECT_FALSE(proposal_is_safe(qp, 1, B, p));
}

TEST(Rule3, DecidedValueForcedLemma8Scenario) {
  // A was (possibly) decided in view 0: honest proofs show vote-4 (0, A).
  // B must be rejected; A must be accepted.
  const QuorumParams qp(4, 1);
  std::vector<ProofFrom> p = {
      {0, prf(VoteRef{0, A}, none, VoteRef{0, A})},
      {1, prf(VoteRef{0, A}, none, VoteRef{0, A})},
      {2, prf(VoteRef{0, A}, none, VoteRef{0, A})},
      {3, prf(none, none, none)},  // Byzantine pretends to know nothing
  };
  EXPECT_FALSE(proposal_is_safe(qp, 1, B, p));
  EXPECT_FALSE(reference::rule3_safe(qp, 1, B, p));
  EXPECT_TRUE(proposal_is_safe(qp, 1, A, p));
  EXPECT_TRUE(reference::rule3_safe(qp, 1, A, p));
}

TEST(Rule3, TwoBlockingSetsCaseAcceptsThirdValue) {
  // Rule 3 item 2(b)iiiB: blocking claims of A-safe-at-1 and B-safe-at-2
  // jointly prove no decision before view 2 could exist, so a third value C
  // is safe at view 3.
  const QuorumParams qp(7, 2);
  std::vector<ProofFrom> p = {
      {0, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {1, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {2, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {3, prf(VoteRef{2, B}, none, none, 3)},
      {4, prf(VoteRef{2, B}, none, none, 3)},
      {5, prf(VoteRef{2, B}, none, none, 3)},
      {6, prf(none, none, none, 3)},
  };
  EXPECT_TRUE(proposal_is_safe(qp, 3, C, p));
  EXPECT_TRUE(reference::rule3_safe(qp, 3, C, p));
}

TEST(Rule3, TwoBlockingSetsRequireDistinctValues) {
  // Same shape but both blocking sets claim the same value A: the B-case
  // must not fire, and C stays unsafe.
  const QuorumParams qp(7, 2);
  std::vector<ProofFrom> p = {
      {0, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {1, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {2, prf(VoteRef{1, A}, none, VoteRef{0, A}, 3)},
      {3, prf(VoteRef{2, A}, none, none, 3)},
      {4, prf(VoteRef{2, A}, none, none, 3)},
      {5, prf(VoteRef{2, A}, none, none, 3)},
      {6, prf(none, none, none, 3)},
  };
  EXPECT_FALSE(proposal_is_safe(qp, 3, C, p));
  EXPECT_FALSE(reference::rule3_safe(qp, 3, C, p));
  // ...while A itself is safe (blocking claims at view 2).
  EXPECT_TRUE(proposal_is_safe(qp, 3, A, p));
}

TEST(Rule3, Vote4AboveVPrimeBlocksQuorum) {
  // Item 2(b)i: a member with vote-4 above every candidate v' compatible
  // with value B prevents a quorum.
  const QuorumParams qp(4, 1);
  std::vector<ProofFrom> p = {
      {0, prf(VoteRef{2, A}, none, VoteRef{2, A}, 3)},
      {1, prf(VoteRef{2, A}, none, VoteRef{2, A}, 3)},
      {2, prf(VoteRef{2, A}, none, VoteRef{2, A}, 3)},
      {3, prf(VoteRef{2, B}, none, none, 3)},
  };
  EXPECT_FALSE(proposal_is_safe(qp, 3, B, p));
  // A is claimed safe at 2 by a blocking set (vote-1 at 2 for A) and the
  // quorum at v'=2 is compatible.
  EXPECT_TRUE(proposal_is_safe(qp, 3, A, p));
}

TEST(Rule3, EfficientNeverMorePermissiveThanReferenceOnTheseCases) {
  const QuorumParams qp(4, 1);
  const std::vector<std::vector<ProofFrom>> cases = {
      {{0, prf(VoteRef{0, A}, none, VoteRef{0, A})},
       {1, prf(VoteRef{0, B}, none, VoteRef{0, B})},
       {2, prf(none, none, none)},
       {3, prf(none, none, none)}},
      {{0, prf(VoteRef{3, A}, VoteRef{2, B}, VoteRef{1, C}, 4)},
       {1, prf(VoteRef{2, B}, VoteRef{1, A}, none, 4)},
       {2, prf(VoteRef{1, C}, none, VoteRef{1, C}, 4)},
       {3, prf(none, none, VoteRef{3, A}, 4)}},
  };
  for (const auto& proofs : cases) {
    const View view = proofs.front().msg.view;
    for (Value val : {A, B, C}) {
      if (proposal_is_safe(qp, view, val, proofs)) {
        EXPECT_TRUE(reference::rule3_safe(qp, view, val, proofs));
      }
    }
  }
}

}  // namespace
}  // namespace tbft::core
