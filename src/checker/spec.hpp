#pragma once
// C++ port of the paper's TLA+ specification of single-shot TetraBFT
// (Appendix B): abstract protocol state -- per-node vote sets and rounds, no
// network -- with the actions StartRound, Vote1..Vote4 and the guards
// ClaimsSafeAt / ShowsSafeAt / Accepted, transcribed clause by clause.
//
// Byzantine nodes are modeled as per-guard wildcards: a quorum predicate is
// satisfied if enough *honest* members satisfy it, with the B Byzantine
// members assumed to claim whatever helps. This has the same reachable
// honest-state space as the TLA+ ByzantineHavoc action (which may rewrite
// Byzantine votes before every step) but needs no Byzantine state, which is
// what makes bounded-exhaustive exploration feasible where the paper
// reports TLC ran out of room.
//
// Mutations deliberately weaken one guard clause each; the explorer must
// find an agreement violation for every one of them (validating both the
// checker and the necessity of each clause).

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace tbft::checker {

/// Exploration bounds. Rounds * 4 * Values must fit in 60 bits per node.
struct SpecConfig {
  int n{4};        // total nodes
  int f{1};        // fault budget (quorum = n-f, blocking = f+1)
  int byz{1};      // Byzantine wildcards (<= f); honest = n - byz
  int rounds{3};   // rounds 0..rounds-1
  int values{2};   // values 1..values

  enum class Mutation : std::uint8_t {
    None = 0,
    UnguardedVote1,       // drop ShowsSafeAt from Vote1 entirely
    NoValueMatchAtR2,     // drop ShowsSafeAt item "vt.round == r2 => value == v"
    BlockingOffByOne,     // blocking sets of size f instead of f+1
    QuorumOffByOne,       // Accepted with n-f-1 instead of n-f votes
  };
  Mutation mutation{Mutation::None};

  [[nodiscard]] int honest() const noexcept { return n - byz; }
  [[nodiscard]] int quorum() const noexcept { return n - f; }
  [[nodiscard]] int blocking() const noexcept {
    return mutation == Mutation::BlockingOffByOne ? f : f + 1;
  }
  /// Honest members a quorum must contain (Byzantines fill the rest).
  [[nodiscard]] int quorum_honest() const noexcept {
    const int q = mutation == Mutation::QuorumOffByOne ? n - f - 1 : n - f;
    return std::max(0, q - byz);
  }
  [[nodiscard]] int blocking_honest() const noexcept { return std::max(0, blocking() - byz); }

  [[nodiscard]] int vote_bits() const noexcept { return rounds * 4 * values; }
};

inline constexpr int kMaxHonest = 6;

/// Abstract state: per honest node, a 60-bit vote set (round x phase x
/// value) and the current round packed into the top 4 bits.
struct State {
  std::array<std::uint64_t, kMaxHonest> votes{};  // bit (r*4 + ph-1)*V + (v-1)
  std::array<std::int8_t, kMaxHonest> round{};    // kNoRound = -1

  friend bool operator==(const State&, const State&) = default;
};

inline constexpr std::int8_t kNoRound = -1;

/// One enabled transition (for trace reporting).
struct Action {
  enum class Kind : std::uint8_t { StartRound, Vote1, Vote2, Vote3, Vote4 } kind;
  int node;
  int round;
  int value;  // unused for StartRound
};

class Spec {
 public:
  explicit Spec(SpecConfig cfg);

  [[nodiscard]] const SpecConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] State initial_state() const;

  /// All transitions enabled in `s`.
  [[nodiscard]] std::vector<Action> enabled_actions(const State& s) const;

  /// Apply `a` to `s` (must be enabled).
  [[nodiscard]] State apply(const State& s, const Action& a) const;

  /// The paper's Consistency property: no two distinct decided values.
  [[nodiscard]] bool consistent(const State& s) const;
  /// Values decided in `s` (quorum of honest phase-4 votes plus wildcards).
  [[nodiscard]] std::vector<int> decided_values(const State& s) const;

  /// Auxiliary invariants from the paper's inductive proof.
  [[nodiscard]] bool no_future_vote(const State& s) const;
  [[nodiscard]] bool one_value_per_phase_per_round(const State& s) const;
  [[nodiscard]] bool vote_has_quorum_in_previous_phase(const State& s) const;

  /// Canonical form under value- and node-permutation symmetry (both are
  /// full symmetries of the spec, cutting the state space ~|V|! * |H|!).
  [[nodiscard]] State canonicalize(const State& s) const;

  // --- guard building blocks (exposed for unit tests) ---
  [[nodiscard]] bool has_vote(const State& s, int p, int r, int phase, int v) const;
  [[nodiscard]] bool accepted(const State& s, int v, int r, int phase) const;
  [[nodiscard]] bool claims_safe_at(const State& s, int p, int v, int r, int r2,
                                    int phase) const;
  [[nodiscard]] bool shows_safe_at(const State& s, int v, int r, int phase_a,
                                   int phase_b) const;

 private:
  [[nodiscard]] int bit_index(int r, int phase, int v) const noexcept {
    return (r * 4 + (phase - 1)) * cfg_.values + (v - 1);
  }

  SpecConfig cfg_;
};

}  // namespace tbft::checker
