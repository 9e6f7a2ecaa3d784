#pragma once
// The one breadth-first loop behind every exhaustive explorer here: the
// single-shot spec (explorer.hpp) and the catch-up specs (sync_spec.hpp)
// differ only in their state, its dedup key, the invariants and the
// successor relation.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>

namespace tbft::checker {

struct ExploreResult {
  std::uint64_t states{0};       // distinct canonical states visited
  std::uint64_t transitions{0};  // actions applied
  int max_depth{0};
  bool capped{false};            // state cap hit before exhausting
  bool violation{false};
  std::string violated_property;

  [[nodiscard]] bool exhaustive_ok() const noexcept { return !capped && !violation; }
};

/// Explore every state reachable from `init`, breadth first. States are
/// deduplicated by `key(state)`, hashed with KeyHash. Each dequeued state
/// is checked by `check(state)`, which names a violated property or returns
/// an empty string, and then expanded by `expand(state, emit)`, which calls
/// `emit(next)` once per enabled transition. Stops at the first violation,
/// or once `state_cap` distinct states have been seen.
template <class KeyHash, class State, class KeyFn, class CheckFn, class ExpandFn>
ExploreResult explore_breadth_first(State init, KeyFn key, CheckFn check, ExpandFn expand,
                                    std::uint64_t state_cap = UINT64_MAX) {
  using Key = std::decay_t<std::invoke_result_t<KeyFn&, const State&>>;
  ExploreResult res;
  std::unordered_set<Key, KeyHash> seen;
  std::deque<std::pair<State, int>> frontier;

  seen.insert(key(init));
  frontier.emplace_back(std::move(init), 0);
  res.states = 1;

  while (!frontier.empty()) {
    const State state = std::move(frontier.front().first);
    const int depth = frontier.front().second;
    frontier.pop_front();
    res.max_depth = std::max(res.max_depth, depth);

    if (std::string violated = check(state); !violated.empty()) {
      res.violation = true;
      res.violated_property = std::move(violated);
      return res;
    }

    expand(state, [&](State next) {
      if (res.capped) return;
      ++res.transitions;
      if (!seen.insert(key(next)).second) return;
      ++res.states;
      if (res.states >= state_cap) {
        res.capped = true;
        return;
      }
      frontier.emplace_back(std::move(next), depth + 1);
    });
    if (res.capped) return res;
  }
  return res;
}

}  // namespace tbft::checker
