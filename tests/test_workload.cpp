// Workload engine tests: request tagging, open-/closed-loop generators on
// the client-actor hook, leader batching, mempool backpressure, and the
// exactly-once commit accounting of the WorkloadTracker.

#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "workload/request.hpp"
#include "workload/scenarios.hpp"

namespace tbft::workload {
namespace {

TEST(Request, TagRoundtrip) {
  const auto bytes = encode_request(7, 42, 64);
  EXPECT_EQ(bytes.size(), 64u);
  const auto tag = parse_request_tag(bytes);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(*tag, request_tag(7, 42));
  EXPECT_EQ(tag_client(*tag), 7u);
  EXPECT_EQ(tag_seq(*tag), 42u);
}

TEST(Request, EncodingIsDeterministic) {
  EXPECT_EQ(encode_request(3, 9, 128), encode_request(3, 9, 128));
  EXPECT_NE(encode_request(3, 9, 128), encode_request(3, 10, 128));
}

TEST(Request, GarbageIsNotARequest) {
  EXPECT_FALSE(parse_request_tag(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(parse_request_tag(std::vector<std::uint8_t>{1, 2, 3}).has_value());
  auto almost = encode_request(1, 1, 16);
  almost[0] ^= 0xFF;  // wrong magic
  EXPECT_FALSE(parse_request_tag(almost).has_value());
}

TEST(Request, FillerPaddingYieldsNoFrames) {
  // A filler block (varint nonce + zero padding) must parse as zero frames:
  // zero-length "frames" alias nothing in the mempool.
  std::vector<std::uint8_t> filler(8, 0);
  EXPECT_TRUE(multishot::payload_frames(filler).empty());
  serde::Writer w;
  w.varint(3);
  w.bytes(encode_request(1, 1, 16));
  auto payload = w.take();
  payload.resize(payload.size() + 5, 0);
  EXPECT_EQ(multishot::payload_frames(payload).size(), 1u);
}

TEST(Request, ExtractTagsWalksBatchedPayload) {
  serde::Writer w;
  w.varint(0);  // view nonce
  w.bytes(encode_request(1, 100, 32));
  w.bytes(std::vector<std::uint8_t>{0xAA, 0xBB});  // non-request transaction
  w.bytes(encode_request(2, 5, 16));
  auto payload = w.take();
  payload.resize(payload.size() + 6, 0);  // filler padding survives parsing
  const auto tags = extract_request_tags(payload);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], request_tag(1, 100));
  EXPECT_EQ(tags[1], request_tag(2, 5));
}

TEST(Workload, OpenLoopSteadyStateCommitsEverythingExactlyOnce) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.seed = 11;
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 500;
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.submitted, 50u);
  EXPECT_EQ(res.report.rejected, 0u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
  // End-to-end latency is at least the 5-hop finalization path.
  EXPECT_GT(res.report.latency_p50_ms, 0.0);
  EXPECT_GE(res.report.latency_max_ms, res.report.latency_p50_ms);
  EXPECT_GT(res.report.committed_tx_per_sec, 0.0);
  // Leader batching actually batched: some block carried > 1 transaction.
  EXPECT_GT(res.report.batch_txs_max, 1.0);
}

TEST(Workload, ClosedLoopKeepsOutstandingBoundedAndDrains) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.closed_loop = true;
  opts.clients = 3;
  opts.outstanding = 8;
  opts.seed = 12;
  opts.load_duration = 200 * sim::kMillisecond;
  const auto res = run_scenario(opts);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_EQ(res.report.rejected, 0u);
  EXPECT_GT(res.report.committed, 3u * 8u);
  // Closed loop: submissions never exceed commits + the k in flight per
  // client (every request beyond the initial window is funded by a commit).
  EXPECT_LE(res.report.submitted, res.report.committed + 3u * 8u);
}

TEST(Workload, BurstPresetCommitsEverything) {
  ScenarioOptions opts;
  opts.preset = Preset::kBurst;
  opts.seed = 13;
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 400;
  const auto res = run_scenario(opts);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
}

TEST(Workload, TinyMempoolAppliesBackpressure) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.seed = 14;
  opts.load_duration = 150 * sim::kMillisecond;
  opts.rate_per_sec = 4000;
  opts.clients = 2;
  opts.mempool_capacity = 4;
  opts.max_batch_txs = 2;  // drain slowly so the bound actually binds
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.rejected, 0u);
  EXPECT_EQ(res.report.rejected, res.report.mempool_rejected);
  EXPECT_GT(res.report.mempool_depth_max, 0.0);
  EXPECT_LE(res.report.mempool_depth_max, 4.0);
  // Backpressure must not break accounting: whatever was admitted commits
  // exactly once.
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
}

TEST(Workload, ClientRetryRescuesRequestsStrandedAtIsolatedReplica) {
  // ROADMAP open item (client-side retry): node 3 admits submissions but is
  // outbound-dead for the whole run -- the "crashed after admission, before
  // relaying" failure real client libraries retry around. Without a retry,
  // every request admitted at node 3 is stranded forever; with
  // client_retry_timeout set, the client re-submits the identical bytes to
  // the next replica, the tag commits once, and the tracker's exactly-once
  // accounting absorbs the duplicate submission.
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.seed = 44;
  opts.clients = 2;
  opts.rate_per_sec = 400;
  opts.load_duration = 200 * sim::kMillisecond;
  // Well above the worst-case honest commit latency here: every node-3-led
  // slot needs a ~9*Delta view change (its outbound is dead), so latencies
  // spike to a few hundred ms. A timeout below that would retry *healthy*
  // requests and deliberately open the at-least-once window (absorbed as
  // retry_duplicates); this test wants only genuinely stranded rescues.
  opts.client_retry_timeout = 500 * sim::kMillisecond;
  // Benign pre-GST network for the whole (bounded) run so the adversary
  // below may drop node 3's outbound traffic at any time.
  opts.gst = 1000 * sim::kSecond;
  opts.drain_deadline = 120 * sim::kSecond;

  WorkloadRig rig = make_rig(opts);
  rig.sim->network().set_adversary([](const sim::Envelope& env, sim::SimTime)
                                       -> std::optional<sim::DeliveryDecision> {
    if (env.src == 3) return sim::DeliveryDecision{/*drop=*/true, 0};
    return std::nullopt;  // benign stochastics (no drops, delta_actual delay)
  });
  rig.sim->start();
  const bool drained = rig.sim->run_until_pred(
      [&] {
        return rig.sim->now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
               rig.tracker->all_admitted_committed();
      },
      opts.drain_deadline);

  EXPECT_TRUE(drained) << "retries should rescue every request stranded at node 3";
  EXPECT_GT(rig.tracker->retried(), 0u) << "round-robin load must have hit node 3";
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_EQ(rig.tracker->retry_duplicates(), 0u)
      << "node 3 cannot commit its copy, so even the retry window stays clean";
  EXPECT_TRUE(rig.chains_consistent());

  // Accounting sanity: retries re-submit existing tags; they never mint new
  // logical requests.
  const auto report = rig.tracker->report(rig.sim->now());
  EXPECT_EQ(report.retried, rig.tracker->retried());
  EXPECT_EQ(report.committed, report.admitted);
}

TEST(Workload, RetryAccountingAbsorbsDuplicateSubmissions) {
  // Unit-level: a retry of an admitted tag bumps only the retry counters; a
  // retry that admits a previously rejected tag becomes its admission.
  MetricsRegistry metrics;
  WorkloadTracker tracker(metrics);
  tracker.on_submitted(request_tag(1, 0), 10, /*admitted=*/true);
  tracker.on_retry(request_tag(1, 0), 500, /*admitted=*/true);  // duplicate submission
  EXPECT_EQ(tracker.admitted(), 1u);
  EXPECT_EQ(tracker.retried(), 1u);

  tracker.on_submitted(request_tag(1, 1), 20, /*admitted=*/false);  // rejected original
  tracker.on_retry(request_tag(1, 1), 600, /*admitted=*/true);      // retry admits it
  EXPECT_EQ(tracker.admitted(), 2u);
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.retried(), 2u);
  EXPECT_TRUE(tracker.exactly_once());
}

// Workload reporting (p50/p95/p99 of submit->commit latency) leans on
// percentile(); the edges must be exact, not approximately sane.

TEST(Percentile, Interpolates) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_NEAR(percentile(v, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(v, 90), 90.1, 0.2);
}

TEST(Percentile, SingleSampleIsThatSampleAtEveryP) {
  const std::vector<double> v{7.5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 7.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 7.5);
}

TEST(Percentile, BoundsAreMinAndMaxRegardlessOfInsertionOrder) {
  const std::vector<double> v{9.0, 1.0, 5.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 9.0);
  EXPECT_NEAR(percentile(v, 50), 4.0, 1e-9);  // midpoint of 3 and 5
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> v{2.0, 4.0};
  // p outside [0, 100] must clamp, not index out of bounds.
  EXPECT_DOUBLE_EQ(percentile(v, -50), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1e9), 4.0);
}

TEST(Percentile, EmptyIsZeroForAnyP) {
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, -1), 0.0);
}

TEST(Workload, ReportPercentilesComeFromTheTrackersOwnSamples) {
  // The registry's histograms keep no samples; the tracker's latency
  // samples are what the report's percentiles read.
  MetricsRegistry metrics;
  WorkloadTracker tracker(metrics);
  const std::size_t observer = tracker.add_observer();
  const auto commit = [&](std::uint32_t seq, runtime::Time at) {
    tracker.on_submitted(request_tag(1, seq), 0, /*admitted=*/true);
    serde::Writer w;
    w.varint(0);  // view nonce
    w.bytes(encode_request(1, seq, 32));
    multishot::Block b;
    b.payload = w.take();
    tracker.on_finalized(observer, b, at);
  };
  commit(0, 1 * runtime::kMillisecond);
  commit(1, 3 * runtime::kMillisecond);
  commit(2, 2 * runtime::kMillisecond);
  EXPECT_EQ(tracker.latency_samples(), (std::vector<double>{1.0, 3.0, 2.0}));
  const WorkloadReport r = tracker.report(1 * runtime::kSecond);
  EXPECT_DOUBLE_EQ(r.latency_p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(r.latency_max_ms, 3.0);
  EXPECT_DOUBLE_EQ(r.latency_mean_ms, 2.0);
}

}  // namespace
}  // namespace tbft::workload
