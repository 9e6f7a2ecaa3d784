// Workload bench: client-perceived performance of the multishot pipeline
// under generated load -- the metric TetraBFT's latency claims are about.
// Runs every scenario preset (open loop, closed loop, burst, and the fault
// presets) through src/workload/, prints committed throughput and the
// submit->commit latency distribution, and enforces the accounting contract
// by exit code: every committed request was admitted exactly once (no loss,
// no double-commit), and every preset with a reject-new mempool commits all
// admitted requests. A rate x batch x pipeline-depth frontier sweep adds
// throughput, low-load latency and tail-latency gates (see the sweep below).
//
// Run: bench_workload [--seed S] [--duration-ms D] [--n N] [--rate R]
//                     [--clients C] [--outstanding K] [--request-bytes B]
//                     [--batch-txs T] [--batch-bytes Y]
// Emits BENCH_workload.json for trajectory tracking.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "bench_json.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace tbft;
  using namespace tbft::bench;
  using workload::Preset;

  std::uint64_t seed = 1;
  std::uint64_t duration_ms = 500;
  std::uint32_t n = 4;
  double rate = 2000.0;
  std::uint32_t clients = 2;
  std::uint32_t outstanding = 16;
  std::uint32_t request_bytes = 64;
  std::uint32_t batch_txs = 64;
  std::uint32_t batch_bytes = 8192;

  Cli cli("bench_workload");
  cli.flag("seed", &seed, "deterministic run seed");
  cli.flag("duration-ms", &duration_ms, "load window per preset");
  cli.flag("n", &n, "cluster size (f = (n-1)/3)");
  cli.flag("rate", &rate, "open-loop arrivals/sec per client");
  cli.flag("clients", &clients, "generator count");
  cli.flag("outstanding", &outstanding, "closed-loop k per client");
  cli.flag("request-bytes", &request_bytes, "encoded request size");
  cli.flag("batch-txs", &batch_txs, "leader batch transaction cap");
  cli.flag("batch-bytes", &batch_bytes, "leader batch byte budget");
  if (!cli.parse(argc, argv)) return 2;

  const auto base_opts = [&](Preset preset, bool closed_loop) {
    workload::ScenarioOptions opts;
    opts.preset = preset;
    opts.closed_loop = closed_loop;
    opts.seed = seed;
    opts.n = n;
    opts.f = (n - 1) / 3;
    opts.load_duration = static_cast<sim::SimTime>(duration_ms) * sim::kMillisecond;
    opts.rate_per_sec = rate;
    opts.clients = clients;
    opts.outstanding = outstanding;
    opts.request_bytes = request_bytes;
    opts.max_batch_txs = batch_txs;
    opts.max_batch_bytes = batch_bytes;
    return opts;
  };

  struct Row {
    const char* title;
    workload::ScenarioOptions opts;
  };
  const std::vector<Row> rows = {
      {"open-loop steady", base_opts(Preset::kSteadyState, false)},
      {"closed-loop steady", base_opts(Preset::kSteadyState, true)},
      {"open-loop burst", base_opts(Preset::kBurst, false)},
      {"partition-during-load", base_opts(Preset::kPartitionDuringLoad, false)},
      {"leader-crash-under-load", base_opts(Preset::kLeaderCrashUnderLoad, false)},
      {"junk-flood-under-load", base_opts(Preset::kJunkFloodUnderLoad, false)},
  };

  std::printf(
      "workload bench: n=%u seed=%llu window=%llums rate=%g/s x%u clients, k=%u "
      "(closed loop), batch <= %u txs / %u bytes\n\n",
      n, static_cast<unsigned long long>(seed), static_cast<unsigned long long>(duration_ms),
      rate, clients, outstanding, batch_txs, batch_bytes);

  bool ok = true;
  std::vector<workload::ScenarioResult> results;
  for (const auto& row : rows) {
    const auto res = workload::run_scenario(row.opts);
    res.report.print(row.title);
    results.push_back(res);
    if (!res.report.exactly_once()) {
      std::printf("  ACCOUNTING VIOLATION: duplicates=%llu foreign=%llu\n",
                  static_cast<unsigned long long>(res.report.duplicates),
                  static_cast<unsigned long long>(res.report.foreign));
      ok = false;
    }
    if (!res.all_admitted_committed) {
      std::printf("  LOSS: %llu admitted requests never committed\n",
                  static_cast<unsigned long long>(res.report.outstanding()));
      ok = false;
    }
    if (!res.chains_consistent) {
      std::printf("  CONSISTENCY VIOLATION: finalized chains diverge\n");
      ok = false;
    }
  }

  // Latency/throughput frontier: a rate x batch-size x pipeline-depth sweep
  // over the steady-state preset, charting throughput against tail latency
  // as trajectory data instead of a single operating point. All rate points
  // sit at or above the base rate so every row can exercise batching (the
  // old rate/4 row committed identical bytes at every batch size); each
  // cell additionally reports whether its batch cap actually engaged.
  // Depth > 1 cells run pipelined leaders with the adaptive ceiling at
  // 16x the cell's batch cap -- the configuration the throughput gate below
  // is about. Each cell still enforces the accounting contract.
  std::vector<double> rates = {rate, rate * 4.0, rate * 16.0};
  std::vector<std::uint32_t> batches = {std::max(1u, batch_txs / 16),
                                        std::max(1u, batch_txs / 4), batch_txs};
  const std::vector<std::uint32_t> depths = {1, 4};
  // Extreme --rate / --batch-txs values collapse axis points onto each
  // other; deduplicate both axes so no cell runs twice and no JSON key is
  // emitted twice.
  std::sort(rates.begin(), rates.end());
  rates.erase(std::unique(rates.begin(), rates.end()), rates.end());
  std::sort(batches.begin(), batches.end());
  batches.erase(std::unique(batches.begin(), batches.end()), batches.end());
  struct Cell {
    std::string key;  // %g-formatted rate + batch + depth: unique per cell
    double rate;
    std::uint32_t batch;
    std::uint32_t depth;
    bool engaged;  // some proposal filled the cell's base batch cap
    workload::WorkloadReport report;
  };
  std::vector<Cell> frontier;
  std::printf("frontier sweep (open-loop steady, %zux%zux%zu cells):\n", rates.size(),
              batches.size(), depths.size());
  std::printf("  %10s %8s %6s %12s %12s %12s %8s\n", "rate/s", "batch", "depth",
              "tx/s", "p50 ms", "p99 ms", "engaged");
  for (const double r : rates) {
    for (const std::uint32_t b : batches) {
      for (const std::uint32_t d : depths) {
        // The (rate, batch_txs, 1) cell is byte-for-byte the open-loop
        // steady preset above; runs are seed-deterministic, so reuse its
        // report instead of re-simulating.
        workload::WorkloadReport cell_report;
        if (r == rate && b == batch_txs && d == 1) {
          cell_report = results[0].report;
        } else {
          auto opts = base_opts(Preset::kSteadyState, false);
          opts.rate_per_sec = r;
          opts.max_batch_txs = b;
          opts.pipeline_depth = d;
          if (d > 1) opts.adaptive_batch_txs = b * 16;
          const auto res = workload::run_scenario(opts);
          if (!res.report.exactly_once() || !res.all_admitted_committed ||
              !res.chains_consistent) {
            std::printf("  ACCOUNTING VIOLATION in frontier cell rate=%g batch=%u depth=%u\n",
                        r, b, d);
            ok = false;
          }
          cell_report = res.report;
        }
        char key[64];
        std::snprintf(key, sizeof key, "frontier_r%g_b%u_d%u_", r, b, d);
        const bool engaged = cell_report.batch_txs_max >= static_cast<double>(b);
        frontier.push_back({key, r, b, d, engaged, cell_report});
        std::printf("  %10.0f %8u %6u %12.0f %12.2f %12.2f %8s\n", r, b, d,
                    cell_report.committed_tx_per_sec, cell_report.latency_p50_ms,
                    cell_report.latency_p99_ms, engaged ? "yes" : "no");
      }
    }
  }

  // Frontier gates (enforced by exit code, like the accounting contract):
  //  - headline: some cell must clear 8x the base cell's committed tx/s
  //    while keeping p99 within 5x the base cell's p99 -- the pipelining +
  //    adaptive-batching throughput claim;
  //  - pipelining: at the top rate and the MID batch cap, the depth-4
  //    adaptive cell must at least double its depth-1 fixed-cap counterpart.
  //    The 2x claim is about the cap-bound regime, so it is enforced only
  //    when depth-1 is demonstrably capped: its batch cap engaged AND it
  //    commits under a quarter of the offered load. (Where depth-1 already
  //    keeps up with a large fraction of the offered rate, doubling it would
  //    exceed what clients submit -- arithmetically unsatisfiable.)
  const auto cell_at = [&](double r, std::uint32_t b, std::uint32_t d) -> const Cell* {
    for (const auto& c : frontier) {
      if (c.rate == r && c.batch == b && c.depth == d) return &c;
    }
    return nullptr;
  };
  const Cell* base_cell = cell_at(rates.front(), batches.back(), 1);
  if (base_cell != nullptr && base_cell->report.committed_tx_per_sec > 0) {
    const double tps_floor = 8.0 * base_cell->report.committed_tx_per_sec;
    const double p99_ceiling = 5.0 * base_cell->report.latency_p99_ms;
    const Cell* best = nullptr;
    for (const auto& c : frontier) {
      if (c.report.latency_p99_ms > p99_ceiling) continue;
      if (best == nullptr ||
          c.report.committed_tx_per_sec > best->report.committed_tx_per_sec) {
        best = &c;
      }
    }
    const double best_tps = best != nullptr ? best->report.committed_tx_per_sec : 0.0;
    std::printf("\nheadline gate: best %.0f tx/s (%s) vs floor %.0f (8x base %.0f) "
                "within p99 <= %.2fms: %s\n",
                best_tps, best != nullptr ? best->key.c_str() : "-", tps_floor,
                base_cell->report.committed_tx_per_sec, p99_ceiling,
                best_tps >= tps_floor ? "PASS" : "FAIL");
    if (best_tps < tps_floor) ok = false;
    const std::uint32_t mid_batch = batches[batches.size() / 2];
    const Cell* d1 = cell_at(rates.back(), mid_batch, 1);
    const Cell* d4 = cell_at(rates.back(), mid_batch, 4);
    const double offered = rates.back() * static_cast<double>(clients);
    if (d1 != nullptr && d4 != nullptr && d1->engaged &&
        d1->report.committed_tx_per_sec < 0.25 * offered) {
      const bool doubled =
          d4->report.committed_tx_per_sec >= 2.0 * d1->report.committed_tx_per_sec;
      std::printf("pipelining gate: depth-4 %.0f tx/s vs 2x depth-1 %.0f: %s\n",
                  d4->report.committed_tx_per_sec, d1->report.committed_tx_per_sec,
                  doubled ? "PASS" : "FAIL");
      if (!doubled) ok = false;
    }
    //  - low-load latency: at the base rate and the top batch cap, the
    //    depth-4 cell's p50 stays within 1.5x the depth-1 cell's; at the mid
    //    and top batch caps, so does its p99. Stripe pacing keeps proposals
    //    one slot ahead of notarization, and a fresh request is relayed to
    //    the first slot whose proposal is still unsent when the relay lands
    //    (not one already racing it, whose leader may have no slot left
    //    until its next stripe), so depth must tax neither the median nor
    //    the tail when there is no backlog;
    //  - saturated tail: at the top rate and the same batch caps, the
    //    depth-4 cell's p99 stays within 1.5x the depth-1 cell's p99 at the
    //    base rate. The relay ledger queues a backlog across the next slots
    //    in order, and a stripe's last slot leaves none of it behind, so no
    //    request waits a whole stripe rotation for its leader's next turn.
    const Cell* low4 = cell_at(rates.front(), batches.back(), 4);
    if (low4 != nullptr && base_cell->report.latency_p50_ms > 0) {
      const double ceiling = 1.5 * base_cell->report.latency_p50_ms;
      const bool paced = low4->report.latency_p50_ms <= ceiling;
      std::printf("low-load latency gate: depth-4 p50 %.2fms vs 1.5x depth-1 %.2fms: %s\n",
                  low4->report.latency_p50_ms, ceiling, paced ? "PASS" : "FAIL");
      if (!paced) ok = false;
    }
    std::vector<std::uint32_t> tail_batches = {mid_batch, batches.back()};
    tail_batches.erase(std::unique(tail_batches.begin(), tail_batches.end()),
                       tail_batches.end());
    const auto tail_gate = [&](const char* load, double r, std::uint32_t b, double ceiling) {
      const Cell* tail4 = cell_at(r, b, 4);
      if (tail4 == nullptr) return;
      const bool caught = tail4->report.latency_p99_ms <= ceiling;
      std::printf("%s tail gate (batch %u): depth-4 p99 %.2fms vs 1.5x depth-1 %.2fms: %s\n",
                  load, b, tail4->report.latency_p99_ms, ceiling, caught ? "PASS" : "FAIL");
      if (!caught) ok = false;
    };
    for (const std::uint32_t b : tail_batches) {
      const Cell* tail1 = cell_at(rates.front(), b, 1);
      if (tail1 == nullptr || tail1->report.latency_p99_ms <= 0) continue;
      const double ceiling = 1.5 * tail1->report.latency_p99_ms;
      tail_gate("low-load", rates.front(), b, ceiling);
      if (rates.size() > 1) tail_gate("saturated", rates.back(), b, ceiling);
    }
  }

  const auto& open = results[0].report;
  const auto& closed = results[1].report;
  JsonReport report("workload");
  report.field("n", n)
      .field("seed", seed)
      .field("duration_ms", duration_ms)
      .field("rate_per_sec", rate)
      .field("clients", clients)
      .field("outstanding", outstanding)
      .field("request_bytes", request_bytes)
      .field("open_committed", open.committed)
      .field("open_tx_per_sec", open.committed_tx_per_sec)
      .field("open_latency_p50_ms", open.latency_p50_ms)
      .field("open_latency_p95_ms", open.latency_p95_ms)
      .field("open_latency_p99_ms", open.latency_p99_ms)
      .field("open_batch_txs_mean", open.batch_txs_mean)
      .field("closed_committed", closed.committed)
      .field("closed_tx_per_sec", closed.committed_tx_per_sec)
      .field("closed_latency_p50_ms", closed.latency_p50_ms)
      .field("closed_latency_p95_ms", closed.latency_p95_ms)
      .field("closed_latency_p99_ms", closed.latency_p99_ms)
      .field("frontier_rates", static_cast<std::uint64_t>(rates.size()))
      .field("frontier_batches", static_cast<std::uint64_t>(batches.size()));
  for (const auto& cell : frontier) {
    report.field(cell.key + "tx_per_sec", cell.report.committed_tx_per_sec)
        .field(cell.key + "latency_p50_ms", cell.report.latency_p50_ms)
        .field(cell.key + "latency_p95_ms", cell.report.latency_p95_ms)
        .field(cell.key + "latency_p99_ms", cell.report.latency_p99_ms)
        .field(cell.key + "batch_txs_mean", cell.report.batch_txs_mean)
        .field(cell.key + "batch_engaged", static_cast<std::uint64_t>(cell.engaged));
  }
  report.field("exactly_once", ok ? "yes" : "NO");
  report.write();

  std::printf("\n%s\n", ok ? "ALL WORKLOAD ACCOUNTING INVARIANTS HOLD"
                           : "WORKLOAD ACCOUNTING VIOLATED");
  return ok ? 0 : 1;
}
