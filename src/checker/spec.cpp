#include "checker/spec.hpp"

#include <algorithm>

namespace tbft::checker {

Spec::Spec(SpecConfig cfg) : cfg_(cfg) {
  TBFT_ASSERT(cfg.n > 3 * cfg.f);
  TBFT_ASSERT(cfg.byz <= cfg.f);
  TBFT_ASSERT(cfg.honest() <= kMaxHonest);
  TBFT_ASSERT_MSG(cfg.vote_bits() <= 60, "rounds*4*values must fit in 60 bits");
}

State Spec::initial_state() const {
  State s;
  s.votes.fill(0);
  s.round.fill(kNoRound);
  return s;
}

bool Spec::has_vote(const State& s, int p, int r, int phase, int v) const {
  return (s.votes[p] >> bit_index(r, phase, v)) & 1;
}

bool Spec::accepted(const State& s, int v, int r, int phase) const {
  int count = 0;
  for (int p = 0; p < cfg_.honest(); ++p) {
    if (has_vote(s, p, r, phase, v)) ++count;
  }
  return count >= cfg_.quorum_honest();
}

bool Spec::claims_safe_at(const State& s, int p, int v, int r, int r2, int phase) const {
  if (r2 == 0) return true;
  // exists vt1 in votes[p]: vt1.round < r, r2 <= vt1.round, vt1.phase = phase
  for (int r1 = r2; r1 < r && r1 < cfg_.rounds; ++r1) {
    for (int v1 = 1; v1 <= cfg_.values; ++v1) {
      if (!has_vote(s, p, r1, phase, v1)) continue;
      if (v1 == v) return true;
      // or exists vt2: r2 <= vt2.round < vt1.round, same phase, other value
      for (int rr = r2; rr < r1; ++rr) {
        for (int v2 = 1; v2 <= cfg_.values; ++v2) {
          if (v2 != v1 && has_vote(s, p, rr, phase, v2)) return true;
        }
      }
    }
  }
  return false;
}

bool Spec::shows_safe_at(const State& s, int v, int r, int phase_a, int phase_b) const {
  if (r == 0) return true;

  // Member predicate: in the chosen quorum, round >= r. Per-member
  // conditions are independent, so "exists a quorum all satisfying X" is
  // "count(X) + byz >= quorum".
  auto in_round = [&](int p) { return s.round[p] >= r; };

  // Disjunct 1: members never voted phase_a before r.
  {
    int count = 0;
    for (int p = 0; p < cfg_.honest(); ++p) {
      if (!in_round(p)) continue;
      bool voted_a = false;
      for (int rr = 0; rr < r && rr < cfg_.rounds; ++rr) {
        for (int vv = 1; vv <= cfg_.values; ++vv) {
          if (has_vote(s, p, rr, phase_a, vv)) voted_a = true;
        }
      }
      if (!voted_a) ++count;
    }
    if (count >= cfg_.quorum_honest()) return true;
  }

  // Disjunct 2: exists r2 < r bounding the phase_a votes, all phase_a votes
  // at exactly r2 carry v, and a blocking set claims v safe at r2.
  for (int r2 = 0; r2 < r; ++r2) {
    int quorum_count = 0;
    for (int p = 0; p < cfg_.honest(); ++p) {
      if (!in_round(p)) continue;
      bool ok = true;
      for (int rr = 0; rr < r && rr < cfg_.rounds && ok; ++rr) {
        for (int vv = 1; vv <= cfg_.values && ok; ++vv) {
          if (!has_vote(s, p, rr, phase_a, vv)) continue;
          if (rr > r2) ok = false;
          if (cfg_.mutation != SpecConfig::Mutation::NoValueMatchAtR2 && rr == r2 && vv != v) {
            ok = false;
          }
        }
      }
      if (ok) ++quorum_count;
    }
    if (quorum_count < cfg_.quorum_honest()) continue;

    int claimers = 0;
    for (int p = 0; p < cfg_.honest(); ++p) {
      if (claims_safe_at(s, p, v, r, r2, phase_b)) ++claimers;
    }
    if (claimers >= cfg_.blocking_honest()) return true;
  }
  return false;
}

std::vector<Action> Spec::enabled_actions(const State& s) const {
  std::vector<Action> out;
  const int H = cfg_.honest();

  auto voted_phase_in_round = [&](int p, int r, int phase) {
    for (int v = 1; v <= cfg_.values; ++v) {
      if (has_vote(s, p, r, phase, v)) return true;
    }
    return false;
  };

  for (int p = 0; p < H; ++p) {
    // StartRound(p, r) for any r > round[p].
    for (int r = s.round[p] + 1; r < cfg_.rounds; ++r) {
      out.push_back({Action::Kind::StartRound, p, r, 0});
    }

    // Vote1(p, v, r): only at the node's current round.
    const int r1 = s.round[p];
    if (r1 >= 0 && !voted_phase_in_round(p, r1, 1)) {
      for (int v = 1; v <= cfg_.values; ++v) {
        const bool safe = cfg_.mutation == SpecConfig::Mutation::UnguardedVote1 ||
                          shows_safe_at(s, v, r1, 4, 1);
        if (safe) out.push_back({Action::Kind::Vote1, p, r1, v});
      }
    }

    // Vote2..4(p, v, r) for r >= round[p], gated by the previous phase.
    for (int phase = 2; phase <= 4; ++phase) {
      for (int r = std::max<int>(0, s.round[p]); r < cfg_.rounds; ++r) {
        if (voted_phase_in_round(p, r, phase)) continue;
        for (int v = 1; v <= cfg_.values; ++v) {
          if (!accepted(s, v, r, phase - 1)) continue;
          const auto kind = phase == 2   ? Action::Kind::Vote2
                            : phase == 3 ? Action::Kind::Vote3
                                         : Action::Kind::Vote4;
          out.push_back({kind, p, r, v});
        }
      }
    }
  }
  return out;
}

State Spec::apply(const State& s, const Action& a) const {
  State next = s;
  switch (a.kind) {
    case Action::Kind::StartRound:
      next.round[a.node] = static_cast<std::int8_t>(a.round);
      return next;
    case Action::Kind::Vote1:
      next.votes[a.node] |= 1ULL << bit_index(a.round, 1, a.value);
      return next;
    case Action::Kind::Vote2:
    case Action::Kind::Vote3:
    case Action::Kind::Vote4: {
      const int phase = a.kind == Action::Kind::Vote2 ? 2 : a.kind == Action::Kind::Vote3 ? 3 : 4;
      next.votes[a.node] |= 1ULL << bit_index(a.round, phase, a.value);
      next.round[a.node] = static_cast<std::int8_t>(a.round);
      return next;
    }
  }
  return next;
}

std::vector<int> Spec::decided_values(const State& s) const {
  std::vector<int> out;
  for (int v = 1; v <= cfg_.values; ++v) {
    bool decided = false;
    for (int r = 0; r < cfg_.rounds && !decided; ++r) {
      int count = 0;
      for (int p = 0; p < cfg_.honest(); ++p) {
        if (has_vote(s, p, r, 4, v)) ++count;
      }
      if (count >= std::max(0, cfg_.quorum() - cfg_.byz)) decided = true;
    }
    if (decided) out.push_back(v);
  }
  return out;
}

bool Spec::consistent(const State& s) const { return decided_values(s).size() <= 1; }

bool Spec::no_future_vote(const State& s) const {
  for (int p = 0; p < cfg_.honest(); ++p) {
    for (int r = 0; r < cfg_.rounds; ++r) {
      for (int phase = 1; phase <= 4; ++phase) {
        for (int v = 1; v <= cfg_.values; ++v) {
          if (has_vote(s, p, r, phase, v) && r > s.round[p]) return false;
        }
      }
    }
  }
  return true;
}

bool Spec::one_value_per_phase_per_round(const State& s) const {
  for (int p = 0; p < cfg_.honest(); ++p) {
    for (int r = 0; r < cfg_.rounds; ++r) {
      for (int phase = 1; phase <= 4; ++phase) {
        int count = 0;
        for (int v = 1; v <= cfg_.values; ++v) {
          if (has_vote(s, p, r, phase, v)) ++count;
        }
        if (count > 1) return false;
      }
    }
  }
  return true;
}

bool Spec::vote_has_quorum_in_previous_phase(const State& s) const {
  for (int p = 0; p < cfg_.honest(); ++p) {
    for (int r = 0; r < cfg_.rounds; ++r) {
      for (int phase = 2; phase <= 4; ++phase) {
        for (int v = 1; v <= cfg_.values; ++v) {
          if (has_vote(s, p, r, phase, v) && !accepted(s, v, r, phase - 1)) return false;
        }
      }
    }
  }
  return true;
}

State Spec::canonicalize(const State& s) const {
  const int H = cfg_.honest();
  const int V = cfg_.values;

  std::vector<int> perm(V);
  for (int i = 0; i < V; ++i) perm[i] = i;

  State best = s;
  bool have_best = false;

  auto pack = [&](const State& st, int p) {
    return st.votes[p] | (static_cast<std::uint64_t>(st.round[p] + 1) << 60);
  };
  auto less_state = [&](const State& a, const State& b) {
    for (int p = 0; p < H; ++p) {
      const auto ka = pack(a, p), kb = pack(b, p);
      if (ka != kb) return ka < kb;
    }
    return false;
  };

  do {
    State t;
    t.votes.fill(0);
    t.round = s.round;
    // Apply the value permutation bit by bit.
    for (int p = 0; p < H; ++p) {
      std::uint64_t bits = s.votes[p];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        const int v = b % V;
        const int rest = b / V;
        t.votes[p] |= 1ULL << (rest * V + perm[v]);
      }
    }
    // Node symmetry: sort nodes by packed key. An insertion sort over the
    // H <= kMaxHonest nodes: std::sort's large-range branch cannot run here,
    // but inlined over this small array it trips -Warray-bounds.
    std::array<std::uint64_t, kMaxHonest> keys{};
    std::array<int, kMaxHonest> order{};
    for (int p = 0; p < H; ++p) {
      keys[p] = pack(t, p);
      int i = p;
      for (; i > 0 && keys[order[i - 1]] > keys[p]; --i) order[i] = order[i - 1];
      order[i] = p;
    }
    State sorted;
    sorted.votes.fill(0);
    sorted.round.fill(kNoRound);
    for (int i = 0; i < H; ++i) {
      sorted.votes[i] = t.votes[order[i]];
      sorted.round[i] = t.round[order[i]];
    }
    if (!have_best || less_state(sorted, best)) {
      best = sorted;
      have_best = true;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  return best;
}

}  // namespace tbft::checker
