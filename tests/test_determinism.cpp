// Determinism regression: a simulation run is a pure function of its
// configuration and seed. Two runs with identical seeds must produce
// identical traces -- the same running digest over every send and decision
// in event order, the same message counters and end time -- across the
// zero-copy payload path, the typed 4-ary event heap, and the
// generation-counted timer slots (equal-timestamp FIFO order included).
// Guards the event-queue/payload rewrite against any source of
// nondeterminism (iteration order, slot recycling, tie-breaking).

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "cluster_helpers.hpp"
#include "equivalence_helpers.hpp"
#include "ms_cluster_helpers.hpp"
#include "sim/adversary.hpp"
#include "tetrabft.hpp"
#include "workload/scenarios.hpp"

namespace tbft::test {
namespace {

struct TraceSnapshot {
  std::uint64_t digest{0};
  sim::SimTime end{0};
  std::uint64_t messages{0};
  std::uint64_t bytes{0};
  std::uint64_t dropped{0};
};

TraceSnapshot snapshot(sim::Simulation& s) {
  const sim::Trace& t = s.trace();
  return TraceSnapshot{t.digest(), s.now(), t.total_messages(), t.total_bytes(),
                       t.dropped_messages()};
}

void expect_identical(const TraceSnapshot& a, const TraceSnapshot& b) {
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.dropped, b.dropped);
}

/// A good-case plus pre-GST-chaos single-shot run: stochastic drops/delays
/// before GST exercise the RNG, timer churn (view changes) exercises slot
/// recycling, and the uniform delay model exercises tie-breaking.
TraceSnapshot run_single_shot(std::uint64_t seed) {
  ClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.seed = seed;
  opts.gst = 40 * sim::kMillisecond;
  opts.delay_model = sim::DelayModel::Uniform;
  opts.delta_min = 1 * sim::kMillisecond;
  opts.delta_actual = 3 * sim::kMillisecond;
  auto cluster = make_cluster(opts);
  cluster.run_until_all_decided(600 * sim::kSecond);
  EXPECT_GT(cluster.decided_count(), 0u);
  cluster.sim->run_until(cluster.sim->now() + 2 * opts.delta_bound);
  return snapshot(*cluster.sim);
}

TEST(Determinism, SingleShotTracesAreByteIdenticalAcrossRuns) {
  const auto a = run_single_shot(0xC0FFEE);
  const auto b = run_single_shot(0xC0FFEE);
  ASSERT_GT(a.messages, 0u);
  expect_identical(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: pre-GST randomness must make
  // different seeds produce different schedules.
  const auto a = run_single_shot(1);
  const auto b = run_single_shot(2);
  EXPECT_NE(a.digest, b.digest);
}

TraceSnapshot run_multishot(std::uint64_t seed) {
  MsClusterOptions opts;
  opts.n = 4;
  opts.f = 1;
  opts.seed = seed;
  opts.max_slots = 12;
  auto cluster = make_ms_cluster(opts);
  cluster.sim->run_until(2 * sim::kSecond);
  return snapshot(*cluster.sim);
}

TEST(Determinism, MultishotTracesAreByteIdenticalAcrossRuns) {
  const auto a = run_multishot(77);
  const auto b = run_multishot(77);
  ASSERT_GT(a.messages, 0u);
  expect_identical(a, b);
}

// With generators active (Poisson arrivals, closed-loop replenishment,
// batching, commit tracking), a run must still be a pure function of seed +
// config: byte-identical traces and identical WorkloadReports.

workload::ScenarioOptions loaded_opts(bool closed_loop, std::uint64_t seed) {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.closed_loop = closed_loop;
  opts.seed = seed;
  opts.load_duration = 150 * sim::kMillisecond;
  opts.rate_per_sec = 600;
  opts.outstanding = 6;
  return opts;
}

TEST(Determinism, OpenLoopWorkloadIsDeterministic) {
  const auto a = workload::run_scenario(loaded_opts(false, 0xBEEF));
  const auto b = workload::run_scenario(loaded_opts(false, 0xBEEF));
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_TRUE(a.report == b.report);
}

TEST(Determinism, ClosedLoopWorkloadIsDeterministic) {
  const auto a = workload::run_scenario(loaded_opts(true, 0xF00D));
  const auto b = workload::run_scenario(loaded_opts(true, 0xF00D));
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_TRUE(a.report == b.report);
}

TEST(Determinism, WorkloadSeedsDiverge) {
  const auto a = workload::run_scenario(loaded_opts(false, 1));
  const auto b = workload::run_scenario(loaded_opts(false, 2));
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

// pipeline_depth = 1 must reproduce the pre-pipelining protocol BYTE-
// identically: the pipelining machinery (striped leader schedule, stripe
// pacing, adaptive caps, the first-unproposed-slot relay target and the
// stranded-pool re-relay) is a strict no-op at depth 1. Comparing against a
// second run of the same config would prove nothing, so the run is pinned
// to the trace digest and end time recorded before stripe pacing landed.
// The digest also covers MsForwardTx's first_unfinalized stamp, recorded
// with the same committed count and end time as without it. The digest was
// re-recorded once when the trace began folding sends and decisions in
// event order; the committed count and end time did not move.
TEST(Determinism, DepthOneIsByteIdenticalToUnpipelined) {
  auto opts = loaded_opts(false, 0xABCD);
  opts.pipeline_depth = 1;
  opts.adaptive_batch_txs = 0;
  const auto depth1 = workload::run_scenario(opts);
  EXPECT_EQ(depth1.report.committed, 176u);
  EXPECT_EQ(depth1.trace_digest, 0x06778ced71842943ULL);
  EXPECT_EQ(depth1.elapsed, 157572);
}

// The facade's cross-host equivalence run (equivalence_helpers.hpp: 24
// one-tx blocks seeded at the slot-1 leader, relay on) is pinned to its
// trace digest and end time at depth 1 and depth 4, so a refactor of the
// facade, the one-shard mux or the relay cannot move it unnoticed. At
// depth 4 the pin also covers the relay ledger: at a batch cap of 1 each
// slot takes one of node 1's requests, so it keeps 8 of the 24 for its
// stripes (slots 1-4 and 17-20) and relays each of the other 16 to the
// leader of a slot of its own. Slots 1-24 carry one transaction each and
// no view change is needed.
TEST(Determinism, FacadeEquivalenceRunIsPinned) {
  const auto run = [](std::uint32_t depth) {
    auto cluster = equivalence_builder().pipelining(depth).build_sim();
    EXPECT_TRUE(seed_eq_txs(*cluster));
    cluster->start();
    EXPECT_TRUE(cluster->wait_for(
        [&] {
          for (const auto* c : cluster->shard_instances()) {
            for (std::uint32_t j = 0; j < kEqTxs; ++j) {
              if (!c->tx_finalized(eq_tx(j))) return false;
            }
          }
          return true;
        },
        300 * sim::kSecond));
    return std::make_pair(cluster->simulation().trace().digest(), cluster->simulation().now());
  };
  EXPECT_EQ(run(1), std::make_pair(std::uint64_t{0x80c9205022320c6b}, sim::SimTime{97000}));
  EXPECT_EQ(run(4), std::make_pair(std::uint64_t{0x5639cf1865f166b9}, sim::SimTime{28000}));
}

// A pipelined + adaptive run is still a pure function of seed + config.
TEST(Determinism, PipelinedWorkloadIsDeterministic) {
  auto opts = loaded_opts(false, 0x9A9A);
  opts.rate_per_sec = 4000;
  opts.pipeline_depth = 4;
  opts.adaptive_batch_txs = 512;
  const auto a = workload::run_scenario(opts);
  const auto b = workload::run_scenario(opts);
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_TRUE(a.report == b.report);
  // Pinned, not only compared run against run: depth 4 + adaptive batching
  // is the sim-lowload / sim-saturate configuration, so its trace must
  // survive refactors byte for byte.
  EXPECT_EQ(a.report.committed, 1204u);
  EXPECT_EQ(a.trace_digest, 0x3cd7930c62e66320ULL);
  EXPECT_EQ(a.elapsed, 156064);
  // And the depth axis has teeth: depth 4 schedules differently than depth 1.
  auto flat = opts;
  flat.pipeline_depth = 1;
  flat.adaptive_batch_txs = 0;
  const auto c = workload::run_scenario(flat);
  EXPECT_NE(a.trace_digest, c.trace_digest);
}

// The leader-crash preset at depth 4 with client retries runs the paths no
// steady-state pin reaches: node 0's later stripes are suspected and ask for
// their view change as they start, and each view change takes back the
// requests relayed to the failed leader. Pinned to the committed count,
// digest and end time recorded before the peer-health record replaced the
// per-peer vectors, so the liveness heuristics cannot move unnoticed.
TEST(Determinism, LeaderCrashWorkloadIsPinned) {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kLeaderCrashUnderLoad;
  opts.seed = 0xC4A5;
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 2000;
  opts.pipeline_depth = 4;
  opts.adaptive_batch_txs = 512;
  opts.client_retry_timeout = 200 * sim::kMillisecond;
  const auto res = workload::run_scenario(opts);
  EXPECT_EQ(res.report.committed, 1197u);
  EXPECT_EQ(res.trace_digest, 0xbb7b70b2728a6a5bULL);
  EXPECT_EQ(res.elapsed, 306251);
  // Both paths ran, so a re-recorded pin cannot lose them unnoticed.
  auto rig = workload::make_rig(opts);
  rig.sim->start();
  rig.sim->run_until(res.elapsed);
  EXPECT_GT(rig.sim->metrics().counter("multishot.viewchange.suspected").value(), 0u);
  EXPECT_GT(rig.sim->metrics().counter("multishot.forward.released").value(), 0u);
}

}  // namespace
}  // namespace tbft::test
