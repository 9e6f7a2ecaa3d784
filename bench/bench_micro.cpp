// Micro-benchmarks (google-benchmark): implementation costs of the pieces
// the paper's complexity analysis talks about -- wire encode/decode, the
// constant-time VoteRecord update, and the safe-value algorithms
// (Algorithms 4 and 5, O(v*m*n)) as n and the view number grow -- plus the
// mempool's per-transaction admit/reconcile cost as the pool grows.

#include <benchmark/benchmark.h>

#include "checker/explorer.hpp"
#include "core/messages.hpp"
#include "core/rules.hpp"
#include "core/vote_record.hpp"
#include "multishot/block.hpp"
#include "multishot/mempool.hpp"

namespace {

using namespace tbft;
using namespace tbft::core;

void BM_EncodeVote(benchmark::State& state) {
  const Vote v{2, 12345, Value{0xDEADBEEF}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(Message{v}));
  }
}
BENCHMARK(BM_EncodeVote);

void BM_DecodeVote(benchmark::State& state) {
  const auto bytes = encode_message(Message{Vote{2, 12345, Value{0xDEADBEEF}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_message(bytes));
  }
}
BENCHMARK(BM_DecodeVote);

void BM_EncodeSuggest(benchmark::State& state) {
  Suggest s{9, VoteRef{8, Value{1}}, VoteRef{5, Value{2}}, VoteRef{7, Value{1}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(Message{s}));
  }
}
BENCHMARK(BM_EncodeSuggest);

void BM_VoteRecordUpdate(benchmark::State& state) {
  std::uint64_t view = 0;
  VoteRecord record;
  for (auto _ : state) {
    record.record(1, static_cast<View>(view), Value{view % 3});
    ++view;
  }
}
BENCHMARK(BM_VoteRecordUpdate);

/// Synthetic suggest sets with alternating vote histories up to `view`.
std::vector<SuggestFrom> synthetic_suggests(std::uint32_t n, View view) {
  std::vector<SuggestFrom> out;
  for (NodeId p = 0; p < n; ++p) {
    Suggest s;
    s.view = view;
    s.vote2 = VoteRef{view - 1, Value{1 + p % 3}};
    s.prev_vote2 = VoteRef{view - 2, Value{1 + (p + 1) % 3}};
    s.vote3 = VoteRef{view - 2, Value{1 + p % 3}};
    out.push_back({p, s});
  }
  return out;
}

std::vector<ProofFrom> synthetic_proofs(std::uint32_t n, View view) {
  std::vector<ProofFrom> out;
  for (NodeId p = 0; p < n; ++p) {
    Proof pr;
    pr.view = view;
    pr.vote1 = VoteRef{view - 1, Value{1 + p % 3}};
    pr.prev_vote1 = VoteRef{view - 2, Value{1 + (p + 1) % 3}};
    pr.vote4 = VoteRef{view - 3, Value{1 + p % 3}};
    out.push_back({p, pr});
  }
  return out;
}

void BM_Rule1LeaderFindSafeValue(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const View view = state.range(1);
  const QuorumParams qp = QuorumParams::max_faults(n);
  const auto suggests = synthetic_suggests(n, view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(leader_find_safe_value(qp, view, Value{42}, suggests));
  }
}
BENCHMARK(BM_Rule1LeaderFindSafeValue)
    ->Args({4, 4})
    ->Args({4, 16})
    ->Args({4, 64})
    ->Args({16, 16})
    ->Args({64, 16});

void BM_Rule3ProposalIsSafe(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const View view = state.range(1);
  const QuorumParams qp = QuorumParams::max_faults(n);
  const auto proofs = synthetic_proofs(n, view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proposal_is_safe(qp, view, Value{1}, proofs));
  }
}
BENCHMARK(BM_Rule3ProposalIsSafe)
    ->Args({4, 4})
    ->Args({4, 16})
    ->Args({4, 64})
    ->Args({16, 16})
    ->Args({64, 16});

void BM_CheckerCanonicalize(benchmark::State& state) {
  using namespace tbft::checker;
  SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 3, .values = 3};
  const Spec spec(cfg);
  State s = spec.initial_state();
  s = spec.apply(s, {Action::Kind::StartRound, 0, 1, 0});
  s = spec.apply(s, {Action::Kind::Vote1, 0, 1, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.canonicalize(s));
  }
}
BENCHMARK(BM_CheckerCanonicalize);

void BM_CheckerEnabledActions(benchmark::State& state) {
  using namespace tbft::checker;
  SpecConfig cfg{.n = 4, .f = 1, .byz = 1, .rounds = 3, .values = 3};
  const Spec spec(cfg);
  State s = spec.initial_state();
  for (int p = 0; p < 3; ++p) s = spec.apply(s, {Action::Kind::StartRound, p, 0, 0});
  for (int p = 0; p < 3; ++p) s = spec.apply(s, {Action::Kind::Vote1, p, 0, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.enabled_actions(s));
  }
}
BENCHMARK(BM_CheckerEnabledActions);

/// The mempool's share of one committed transaction, as the node runs it,
/// with `range(0)` entries already resident: admit a 256-transaction batch
/// (hash, the submit-path dedup probe, push), mark it inflight as a
/// proposal does, then reconcile the finalized 256-frame block that carries
/// it (one index probe per frame, then the slot's inflight release). The
/// pool returns to its resident size every iteration. Report-only: per-item
/// time should stay flat across pool sizes.
void BM_MempoolAdmitReconcile(benchmark::State& state) {
  using multishot::BoundedMempool;
  constexpr std::size_t kFrames = 256;
  const auto resident = static_cast<std::size_t>(state.range(0));
  auto make_tx = [](std::uint64_t id) {
    std::vector<std::uint8_t> tx(32, 0x5A);
    for (int i = 0; i < 8; ++i) tx[i] = static_cast<std::uint8_t>(id >> (8 * i));
    return tx;
  };
  BoundedMempool pool(resident + kFrames);
  for (std::uint64_t id = 0; id < resident; ++id) pool.push(make_tx(id));
  std::vector<std::vector<std::uint8_t>> batch;
  serde::Writer block;
  block.varint(0);  // view nonce
  for (std::uint64_t id = resident; id < resident + kFrames; ++id) {
    batch.push_back(make_tx(id));
    block.bytes(batch.back());
  }
  const std::vector<std::uint8_t> payload = block.take();
  Slot slot = 0;
  for (auto _ : state) {
    ++slot;
    for (const auto& tx : batch) {
      const std::uint64_t h = fnv1a64(tx);
      if (!pool.contains(h, tx)) pool.push(tx, 0, h);
      pool.mark_inflight(pool.back(), slot);
    }
    multishot::for_each_frame(payload, [&pool](std::span<const std::uint8_t> f) {
      pool.erase_tx(fnv1a64(f), f);
    });
    pool.release_through(slot);
    benchmark::DoNotOptimize(pool.size());
  }
  if (pool.size() != resident) state.SkipWithError("pool did not return to its resident size");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kFrames));
}
BENCHMARK(BM_MempoolAdmitReconcile)->Arg(64)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
