// selftest: checks the benchmark's own arithmetic, so a metric that looks
// wrong is the system's doing and not the benchmark's. Exits non-zero on
// the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "cpu_gauge.hpp"
#include "load.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

// Report the highest percentile with at least 10 samples beyond it.
void percentile_rule() {
  auto v = iota(2000);
  check(bench::quantile(v, 0.99) == 1980, "p99 of 2000 samples is the 1980th value");
  v = iota(2000);
  check(bench::quantile(v, 0.50) == 1000, "p50 of 2000 samples is the 1000th value");
  v = iota(500);  // the p99 value 495 has 5 beyond it; 490 is the highest with 10
  check(bench::quantile(v, 0.99) == 490, "p99 of 500 samples keeps 10 samples beyond it");
  v = iota(11);
  check(bench::quantile(v, 0.50) == 1, "with 11 samples only the minimum has 10 beyond it");
  v = iota(5);
  check(bench::quantile(v, 0.99) == 1, "too few samples report the minimum");
  v.clear();
  check(bench::quantile(v, 0.5) == 0, "an empty sample reports 0");
}

// A handler's self time excludes its children's time, and only its direct
// children: a grandchild is already inside its parent's span.
void nested_self_time() {
  bench::RunClock clock;
  bench::SpanBuffer b(clock);
  const auto span = [&](std::uint16_t name, std::int64_t t0, std::int64_t t1, std::uint32_t parent) {
    bench::Span s;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    s.parent = parent;
    b.push(s);
  };
  span(bench::kVote, 0, 100, 0);         // 1: handler
  span(bench::kBroadcast, 10, 30, 1);    // 2: child
  span(bench::kPublish, 40, 90, 1);      // 3: child
  span(bench::kCommitted, 50, 50, 3);    // 4: zero-length grandchild
  span(bench::kSetTimer, 60, 80, 3);     // 5: grandchild
  span(bench::kTimer, 200, 230, 0);      // 6: another root
  const auto self = bench::self_times(b);
  check(self[0] == 30, "handler self time = 100 - 20 - 50");
  check(self[1] == 20, "leaf child self time = its duration");
  check(self[2] == 30, "child self time = 50 - 20 (grandchild)");
  check(self[3] == 0 && self[4] == 20 && self[5] == 30, "grandchildren and other roots");

  // Live recording nests the same way.
  bench::SpanBuffer live(clock);
  const std::uint32_t h = live.open(bench::kProposal, 7);
  live.mark(bench::kProposed, 16, 12345);
  const std::uint32_t c = live.open(bench::kSend, 2);
  live.close(c, 11);
  live.close(h);
  check(live.size() == 3 && live[1].parent == h && live[2].parent == h,
        "open/mark/close record parent links");
  check(live[1].at == 12345 && live[1].t0 == live[1].t1, "a mark is zero-length at its instant");
  check(live[2].a == 11 && live[2].t1 >= live[2].t0, "close records the end and its value");
}

// The ledger's segments are consecutive, so they sum exactly to the
// latency; a stamp out of order shows as a negative segment.
void ledger_sums() {
  const bench::Stamps t = {1000, 1003, 1010, 1012, 4000, 9000, 9050};
  const bench::Segments seg = bench::ledger_segments(t);
  std::int64_t sum = 0;
  for (const std::int64_t s : seg) sum += s;
  check(sum == t.back() - t.front(), "segments sum exactly to the latency");
  check(seg == bench::Segments({3, 7, 2, 2988, 5000, 50}), "segments are consecutive differences");
  check(bench::ledger_reconciles(seg, 8050), "a consistent ledger reconciles");
  check(!bench::ledger_reconciles(seg, 9000), "a ledger off by more than 1% does not");
  bench::Stamps bad = t;
  bad[4] = 1005;  // proposed before admitted
  check(!bench::ledger_reconciles(bench::ledger_segments(bad), 8050),
        "a negative segment never reconciles");
}

// Costs scale by the gauge's speed to the sensitivity power: a CPU at half
// the reference speed doubles a cost that follows the kernel fully.
void cpu_gauge() {
  bench::CpuGauge g;
  check(g.speed() == 1.0 && g.to_ref() == 1.0, "a gauge with no pass reports the reference speed");
  for (int i = 0; i < 5; ++i) g.sample();
  check(g.speed() > 0 && g.spent_ns() > 0, "passes are timed and their CPU counted");
  check(std::abs(g.to_ref() - std::pow(g.speed(), bench::CpuGauge::kSensitivity)) < 1e-12,
        "to_ref is the speed to the sensitivity power");
}

void tx_codec() {
  const auto tx = bench::make_tx(7, 42);
  std::uint32_t id = 0;
  check(tx.size() == bench::kTxBytes && bench::parse_tx(7, tx, 100, id) && id == 42,
        "a submitted transaction parses back to its id");
  check(!bench::parse_tx(8, tx, 100, id), "another seed's bytes are foreign");
  check(!bench::parse_tx(7, tx, 42, id), "an id beyond the limit is foreign");
  const auto a = bench::poisson_schedule(3, 1000, 10'000'000'000);
  const auto b = bench::poisson_schedule(3, 1000, 10'000'000'000);
  check(a == b && a.size() > 9500 && a.size() < 10500, "the schedule is seeded and has the rate");
}

}  // namespace

int main() {
  percentile_rule();
  nested_self_time();
  ledger_sums();
  cpu_gauge();
  tx_codec();
  if (failures != 0) {
    std::printf("selftest: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
