// Reproduces Fig. 2 of the paper (multi-shot TetraBFT in the good case) and
// the §1/§6 throughput claim: pipelining commits one block per message delay
// -- in theory 5x the throughput of repeating single-shot instances.
//
// Output: the per-slot timeline (proposal / notarization / finalization
// times in units of the actual delay delta) and the measured pipelined vs
// sequential throughput ratio.

#include <cstdio>

#include "bench_common.hpp"
#include "ms_cluster_helpers.hpp"

namespace tbft::bench {
namespace {

void run_fig2() {
  print_header(
      "Fig. 2 -- Multi-shot TetraBFT, good case (n=4, constant delta)\n"
      "paper: one proposal per delay; vote for slot s is vote-1 for s,\n"
      "vote-2 for s-1, vote-3 for s-2, vote-4 for s-3; block s finalized\n"
      "once slots s..s+3 are notarized");

  test::MsClusterOptions opts;
  opts.max_slots = 24;
  auto c = test::make_ms_cluster(opts);
  for (auto* node : c.nodes) node->set_record_timeline(true);
  if (!c.run_until_finalized(20, 60 * sim::kSecond)) {
    std::printf("ERROR: pipeline failed to finalize 20 blocks\n");
    return;
  }

  const double delta = static_cast<double>(opts.delta_actual);
  const auto* node = c.nodes[0];
  std::printf("%6s %14s %14s %14s %10s\n", "slot", "proposed(d)", "notarized(d)",
              "finalized(d)", "leader");
  for (Slot s = 1; s <= 20; ++s) {
    const auto p = node->first_proposal_at().find(s);
    const auto nt = node->notarized_at().find(s);
    const auto fin = c.sim->trace().decision_of(0, s);
    std::printf("%6llu %14.1f %14.1f %14.1f %10llu\n", static_cast<unsigned long long>(s),
                p != node->first_proposal_at().end() ? p->second / delta : -1.0,
                nt != node->notarized_at().end() ? nt->second / delta : -1.0,
                fin ? fin->at / delta : -1.0,
                static_cast<unsigned long long>(s % opts.n));
  }

  // Steady-state rate: finalization times of consecutive slots are delta
  // apart (paper: one block per message delay).
  const auto f5 = c.sim->trace().decision_of(0, 5)->at;
  const auto f20 = c.sim->trace().decision_of(0, 20)->at;
  const double per_block = static_cast<double>(f20 - f5) / (15.0 * delta);
  std::printf("\nsteady-state finalization interval: %.2f delta per block (paper: 1)\n",
              per_block);
  std::printf("finality lag of slot 1: %.1f delta (paper: 5 = own + 3 successors' votes)\n",
              c.sim->trace().decision_of(0, 1)->at / delta);
}

void run_throughput_comparison() {
  print_header(
      "§1 / §6 throughput claim -- pipelined multi-shot vs repeated\n"
      "single-shot TetraBFT (same simulator, same delta)");

  // Pipelined: blocks finalized per delta.
  test::MsClusterOptions opts;
  opts.max_slots = 64;
  auto c = test::make_ms_cluster(opts);
  for (auto* node : c.nodes) node->set_record_timeline(true);
  if (!c.run_until_finalized(60, 120 * sim::kSecond)) {
    std::printf("ERROR: pipeline stalled\n");
    return;
  }
  const double delta = static_cast<double>(opts.delta_actual);
  const auto t60 = c.sim->trace().decision_of(0, 60)->at;
  const double pipelined = 60.0 / (static_cast<double>(t60) / delta);

  // Sequential single-shot: one instance decides every 5 delta; run a few
  // instances to confirm and use the measured latency.
  double single_latency_delta = 0;
  for (int i = 0; i < 5; ++i) {
    RunOptions so;
    so.seed = 10 + i;
    const auto r = run_tetra(so);
    single_latency_delta += r.hops / 5.0;
  }
  const double sequential = 1.0 / single_latency_delta;

  std::printf("pipelined throughput:  %.3f blocks per delay\n", pipelined);
  std::printf("sequential throughput: %.3f decisions per delay (latency %.1f delta)\n",
              sequential, single_latency_delta);
  std::printf("speedup: %.2fx   (paper: 5x in theory)\n", pipelined / sequential);
}

}  // namespace
}  // namespace tbft::bench

int main() {
  tbft::bench::run_fig2();
  tbft::bench::run_throughput_comparison();
  return 0;
}
