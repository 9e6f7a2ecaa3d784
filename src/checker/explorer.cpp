#include "checker/explorer.hpp"

#include "common/hash.hpp"

namespace tbft::checker {

namespace {

struct StateKey {
  std::array<std::uint64_t, kMaxHonest> packed;

  friend bool operator==(const StateKey&, const StateKey&) = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const noexcept {
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t w : k.packed) h = hash_combine(h, w);
    return h;
  }
};

StateKey key_of(const State& s, int honest) {
  StateKey k{};
  for (int p = 0; p < honest; ++p) {
    k.packed[p] = s.votes[p] | (static_cast<std::uint64_t>(s.round[p] + 1) << 60);
  }
  return k;
}

/// Returns the violated property name, or empty when all checked properties
/// hold in `s`.
std::string check_state(const Spec& spec, const State& s, bool check_aux) {
  if (!spec.consistent(s)) return "Consistency";
  if (check_aux) {
    if (!spec.no_future_vote(s)) return "NoFutureVote";
    if (!spec.one_value_per_phase_per_round(s)) return "OneValuePerPhasePerRound";
    if (!spec.vote_has_quorum_in_previous_phase(s)) return "VoteHasQuorumInPreviousPhase";
  }
  return {};
}

}  // namespace

ExploreResult explore_bfs(const Spec& spec, std::uint64_t state_cap, bool check_aux) {
  const int honest = spec.config().honest();
  return explore_breadth_first<StateKeyHash>(
      spec.canonicalize(spec.initial_state()),
      [honest](const State& s) { return key_of(s, honest); },
      [&spec, check_aux](const State& s) { return check_state(spec, s, check_aux); },
      [&spec](const State& s, auto&& emit) {
        for (const Action& a : spec.enabled_actions(s)) emit(spec.canonicalize(spec.apply(s, a)));
      },
      state_cap);
}

ExploreResult explore_random(const Spec& spec, std::uint64_t walks, int depth,
                             std::uint64_t seed, bool check_aux) {
  ExploreResult res;
  Rng rng(seed);
  for (std::uint64_t walk = 0; walk < walks; ++walk) {
    State state = spec.initial_state();
    for (int step = 0; step < depth; ++step) {
      const auto actions = spec.enabled_actions(state);
      if (actions.empty()) break;
      state = spec.apply(state, actions[rng.index(actions.size())]);
      ++res.transitions;
      ++res.states;  // counts visited (not deduplicated) states
      res.max_depth = std::max(res.max_depth, step + 1);
      const auto violated = check_state(spec, state, check_aux);
      if (!violated.empty()) {
        res.violation = true;
        res.violated_property = violated;
        return res;
      }
    }
  }
  return res;
}

}  // namespace tbft::checker
