#pragma once
// State-space exploration over the abstract spec: bounded-exhaustive BFS
// with symmetry reduction (the paper's §5 verification analogue), plus a
// randomized walker for bounds too large to exhaust.

#include <cstdint>

#include "checker/bfs.hpp"
#include "checker/spec.hpp"
#include "common/rng.hpp"

namespace tbft::checker {

/// Breadth-first exhaustive exploration of the reachable state space (after
/// canonicalization). Checks Consistency and, when `check_aux`, the paper's
/// auxiliary invariants on every state. Stops at `state_cap` states.
ExploreResult explore_bfs(const Spec& spec, std::uint64_t state_cap = 2'000'000,
                          bool check_aux = true);

/// Randomized exploration: `walks` random walks of length `depth` from the
/// initial state, checking invariants at every step.
ExploreResult explore_random(const Spec& spec, std::uint64_t walks, int depth,
                             std::uint64_t seed, bool check_aux = true);

}  // namespace tbft::checker
