// Reproduces the paper's §5 formal-verification result with the C++ port of
// the Appendix-B TLA+ spec: exhaustive exploration of the reachable state
// space under a Byzantine wildcard adversary for growing bounds, plus
// randomized coverage of the paper's full bounds (4 nodes, 1 Byzantine,
// 3 values, 5 views) and the mutation kill-matrix.

#include <chrono>
#include <cstdio>

#include "checker/explorer.hpp"
#include "checker/sync_spec.hpp"

namespace {

using namespace tbft::checker;

double run_and_report(const char* label, const SpecConfig& cfg, std::uint64_t cap) {
  const auto start = std::chrono::steady_clock::now();
  const auto res = explore_bfs(Spec(cfg), cap);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("%-28s %12llu %14llu %7d %10s %8.2fs\n", label,
              static_cast<unsigned long long>(res.states),
              static_cast<unsigned long long>(res.transitions), res.max_depth,
              res.violation ? res.violated_property.c_str() : (res.capped ? "capped" : "SAFE"),
              secs);
  return secs;
}

}  // namespace

int main() {
  std::printf(
      "================================================================\n"
      "§5 verification analogue -- C++ bounded model checker over the\n"
      "Appendix-B spec (Byzantine havoc as per-guard wildcards; value- and\n"
      "node-permutation symmetry reduction). The paper verified an inductive\n"
      "invariant with Apalache for 4 nodes / 1 Byz / 3 values / 5 views; we\n"
      "exhaustively enumerate reachable states for growing bounds and check\n"
      "Consistency plus the paper's auxiliary invariants on every state.\n"
      "================================================================\n\n");

  std::printf("%-28s %12s %14s %7s %10s %9s\n", "bounds (n/f/byz/R/V)", "states",
              "transitions", "depth", "result", "time");

  {
    SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 2, .values = 2};
    run_and_report("4/1/1 R2 V2", cfg, 4'000'000);
  }
  {
    SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 2, .values = 3};
    run_and_report("4/1/1 R2 V3", cfg, 4'000'000);
  }
  {
    SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 3, .values = 2};
    run_and_report("4/1/1 R3 V2", cfg, 4'000'000);
  }
  {
    SpecConfig cfg{.n = 7, .f = 2, .byz = 2, .rounds = 2, .values = 2};
    run_and_report("7/2/2 R2 V2", cfg, 4'000'000);
  }

  std::printf(
      "\nrandomized coverage of the paper's full bounds (4/1/1, 5 views,\n"
      "3 values): 2000 walks x depth 80\n");
  {
    SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 5, .values = 3};
    const auto res = explore_random(Spec(cfg), 2000, 80, 0x7e7a, true);
    std::printf("  visited %llu states, %s\n", static_cast<unsigned long long>(res.states),
                res.violation ? res.violated_property.c_str() : "no violation");
  }

  std::printf(
      "\nmutation kill-matrix (each weakened clause must break agreement;\n"
      "see tests/test_checker.cpp for the per-mutation witnesses):\n");
  const struct {
    const char* name;
    SpecConfig::Mutation mutation;
    int rounds;
  } mutations[] = {
      {"Vote1 without ShowsSafeAt", SpecConfig::Mutation::UnguardedVote1, 2},
      {"no value match at r2", SpecConfig::Mutation::NoValueMatchAtR2, 2},
      {"quorum off by one", SpecConfig::Mutation::QuorumOffByOne, 2},
  };
  for (const auto& m : mutations) {
    SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = m.rounds, .values = 2};
    cfg.mutation = m.mutation;
    const auto res = explore_bfs(Spec(cfg), 4'000'000);
    std::printf("  %-28s -> %s\n", m.name,
                res.violation ? "violation found (killed)" : "NOT KILLED");
  }
  std::printf(
      "  %-28s -> %s\n", "blocking set of size f",
      "killed by explicit 20-step witness (CheckerMutations.BlockingOffByOne)");

  std::printf(
      "\nforwarded-tx exactly-once (ForwardSpec: origin, leader, second\n"
      "leader; relay, view-change release, propose, commit, abort, expiry):\n");
  const struct {
    const char* name;
    ForwardSpecConfig::Mutation mutation;
  } forward[] = {
      {"as implemented", ForwardSpecConfig::Mutation::None},
      {"no pending-candidate probe", ForwardSpecConfig::Mutation::NoPendingProbe},
      {"re-relay drops the hold", ForwardSpecConfig::Mutation::ReRelayDropsHold},
      {"release skips the probes", ForwardSpecConfig::Mutation::ReleaseUnprobed},
  };
  for (const auto& m : forward) {
    const auto res = explore_forward(ForwardSpecConfig{m.mutation});
    std::printf("  %-28s %8llu states %8llu transitions -> %s\n", m.name,
                static_cast<unsigned long long>(res.states),
                static_cast<unsigned long long>(res.transitions),
                res.violation ? res.violated_property.c_str() : (res.capped ? "capped" : "SAFE"));
  }
  return 0;
}
