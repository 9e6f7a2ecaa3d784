#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include "../bench/bench_alloc_count.hpp"

namespace tbft {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramSummaryStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Metrics, EmptyHistogramIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, HistogramRecordNeverAllocates) {
  // A long-running node records into its histograms on every submission and
  // proposal: their memory must not grow with the number of samples.
  Histogram h;
  const std::uint64_t before = bench::alloc_count().load();
  for (int i = 0; i < 1'000'000; ++i) h.record(static_cast<double>(i % 977));
  EXPECT_EQ(bench::alloc_count().load() - before, 0u);
  EXPECT_EQ(h.count(), 1'000'000u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 976.0);
}

TEST(Metrics, RegistryReturnsSameObjectByName) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(4);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  EXPECT_EQ(reg.counter("b").value(), 0u);
  reg.histogram("h").record(1.5);
  EXPECT_EQ(reg.histogram("h").count(), 1u);
}

TEST(Metrics, RepeatedLookupOfAnExistingNameIsTheSameObjectAndNeverAllocates) {
  // Per-transaction call sites look names up on every submission, relay and
  // batch; names past the small-string buffer must not allocate a key on a
  // hit, and only a miss inserts.
  MetricsRegistry reg;
  Counter& c = reg.counter("multishot.mempool.admitted");
  Histogram& h = reg.histogram("multishot.mempool.depth");
  bool same = true;
  const std::uint64_t before = bench::alloc_count().load();
  for (int i = 0; i < 1000; ++i) {
    same = same && &reg.counter("multishot.mempool.admitted") == &c &&
           &reg.histogram("multishot.mempool.depth") == &h;
  }
  EXPECT_EQ(bench::alloc_count().load() - before, 0u);
  EXPECT_TRUE(same);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(Metrics, HistogramReset) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  h.record(2);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

}  // namespace
}  // namespace tbft
