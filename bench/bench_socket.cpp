// Socket transport bench: wall-clock commit latency, throughput and per-tx
// costs of a TetraBFT cluster whose every message crosses a real TCP socket
// on loopback (ClusterBuilder::build_socket -- n SocketHosts, one loop
// thread each, the frame codec in the hot path). This is the first number
// in the repo that includes a real network stack: syscalls, kernel buffers,
// TCP_NODELAY wakeups -- everything except propagation delay.
//
// Load model: closed-loop client submitting `--txs` transactions round-robin
// with at most `--outstanding` uncommitted at once (stays under the mempool
// bound by construction). Latency is submit -> first commit observation on
// any replica's stream; throughput is committed tx over the load window.
// The default run commits for seconds, not milliseconds, and the whole run
// is repeated `--repeat` times on a fresh cluster: wall-clock numbers are
// reported as the median with the min..max spread. The per-tx costs --
// process CPU (getrusage), frames, sendmsg / recv calls, loop wakeups and
// voluntary context switches per committed tx -- are far less noisy than
// wall time, and name the layer a transport change moved.
//
// Exit code gates (the accounting contract over a real transport), on
// every repeat:
//  - every submitted transaction commits on EVERY replica exactly once
//    (no loss, no duplicates, no foreign bytes);
//  - the finalized chains of all replicas are prefix-consistent;
//  - p99 commit latency is finite (nonzero commits observed);
//  - no outbound payload was dropped at a full queue.
//
// Run: bench_socket [--seed S] [--n N] [--txs T] [--tx-bytes B] [--repeat R]
//                   [--outstanding K] [--batch-txs X] [--batch-bytes Y]
// Emits BENCH_socket.json for trajectory tracking.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_cli.hpp"
#include "bench_json.hpp"
#include "tetrabft.hpp"

namespace {

using namespace tbft;
using Clock = std::chrono::steady_clock;

struct Params {
  std::uint64_t seed = 1;
  std::uint32_t n = 4;
  std::uint32_t txs = 300'000;
  std::uint32_t tx_payload = 64;
  std::uint32_t outstanding = 512;
  std::uint32_t batch_txs = 64;
  std::uint32_t batch_bytes = 8192;
};

/// One repeat's measurements; per-tx figures divide by committed txs.
struct Run {
  bool exactly_once{false};
  bool consistent{false};
  std::uint64_t queue_dropped{0};
  double secs{0};
  double tx_per_sec{0};
  double p50_us{0}, p99_us{0}, mean_us{0};
  double cpu_us_per_tx{0};
  double ctx_switches_per_tx{0};
  double frames_per_tx{0}, sendmsg_per_tx{0}, recv_per_tx{0}, wakeups_per_tx{0};
  double wire_bytes_per_tx{0};
  std::uint64_t handshakes{0}, dials{0};
};

struct Usage {
  double cpu_us{0};
  double ctx_switches{0};
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), static_cast<double>(ru.ru_nvcsw)};
}

std::vector<std::uint8_t> tx_for(std::uint32_t id, std::uint32_t size) {
  std::vector<std::uint8_t> tx(size);
  tx[0] = 'b';
  tx[1] = 's';
  tx[2] = static_cast<std::uint8_t>(id >> 16);
  tx[3] = static_cast<std::uint8_t>(id >> 8);
  tx[4] = static_cast<std::uint8_t>(id);
  for (std::size_t k = 5; k < tx.size(); ++k) tx[k] = static_cast<std::uint8_t>(id * 31 + k);
  return tx;
}

Run run_once(const Params& p) {
  const std::uint32_t n = p.n;
  const std::uint32_t txs = p.txs;
  ClusterBuilder b;
  b.nodes(n)
      .seed(p.seed)
      .delta_bound(1 * runtime::kSecond)  // loopback: never view-change
      .batching(p.batch_txs, p.batch_bytes)
      .mempool(std::max<std::size_t>(4096, 2 * p.outstanding),
               multishot::MempoolPolicy::kRejectNew)
      .forwarding(true);
  auto cluster = b.build_socket();

  const auto epoch = Clock::now();
  const auto now_us = [&epoch] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch)
        .count();
  };

  // All commit accounting runs under the hub lock (callbacks are serialized).
  std::vector<std::int64_t> submit_us(txs, -1);
  std::vector<std::int64_t> first_commit_us(txs, -1);
  std::vector<std::vector<std::uint32_t>> per_node_seen(
      n, std::vector<std::uint32_t>(txs, 0));
  std::uint64_t foreign = 0;
  std::uint32_t fully_committed = 0;  // txs seen by ALL replicas
  std::uint32_t first_seen = 0;       // txs seen by at least one replica
  std::mutex done_mx;                 // cheap: only guards the two counters read outside

  cluster->on_commit([&](const runtime::Commit& c) {
    const std::int64_t at = now_us();
    for (const auto& frame : multishot::payload_frames(c.payload)) {
      if (frame.size() < 5 || frame[0] != 'b' || frame[1] != 's') {
        ++foreign;
        continue;
      }
      const std::uint32_t id = (static_cast<std::uint32_t>(frame[2]) << 16) |
                               (static_cast<std::uint32_t>(frame[3]) << 8) | frame[4];
      if (id >= txs) {
        ++foreign;
        continue;
      }
      if (++per_node_seen[c.node][id] == 1) {
        bool everywhere = true;
        for (std::uint32_t i = 0; i < n; ++i) {
          everywhere = everywhere && per_node_seen[i][id] > 0;
        }
        std::lock_guard<std::mutex> lk(done_mx);
        if (first_commit_us[id] < 0) {
          first_commit_us[id] = at;
          ++first_seen;
        }
        if (everywhere) ++fully_committed;
      }
    }
  });

  cluster->start();
  const Usage u0 = usage_now();
  const std::int64_t t_start = now_us();

  // Closed loop: never more than `outstanding` submitted-but-uncommitted.
  for (std::uint32_t id = 0; id < txs; ++id) {
    for (;;) {
      std::uint32_t committed_now;
      {
        std::lock_guard<std::mutex> lk(done_mx);
        committed_now = first_seen;
      }
      if (id - committed_now < p.outstanding) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    submit_us[id] = now_us();
    cluster->submit(id % n, tx_for(id, p.tx_payload));
  }

  const bool all_committed = cluster->wait_for(
      [&] { return fully_committed >= txs; }, 120 * runtime::kSecond);
  const std::int64_t t_end = now_us();
  const Usage u1 = usage_now();
  cluster->stop();

  Run r;
  r.exactly_once = all_committed && foreign == 0;
  for (std::uint32_t i = 0; i < n && r.exactly_once; ++i) {
    for (std::uint32_t id = 0; id < txs; ++id) {
      if (per_node_seen[i][id] != 1) {
        std::printf("GATE: tx %u seen %u times on node %u\n", id,
                    per_node_seen[i][id], i);
        r.exactly_once = false;
        break;
      }
    }
  }
  std::vector<multishot::MultishotNode*> replicas;
  for (NodeId i = 0; i < n; ++i) replicas.push_back(&cluster->replica(i));
  r.consistent = multishot::chains_prefix_consistent(replicas);

  std::vector<double> lat_us;
  lat_us.reserve(txs);
  for (std::uint32_t id = 0; id < txs; ++id) {
    if (submit_us[id] >= 0 && first_commit_us[id] >= submit_us[id]) {
      lat_us.push_back(static_cast<double>(first_commit_us[id] - submit_us[id]));
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&lat_us](double q) {
    if (lat_us.empty()) return std::numeric_limits<double>::quiet_NaN();
    return lat_us[static_cast<std::size_t>(q * static_cast<double>(lat_us.size() - 1))];
  };
  r.p50_us = pct(0.50);
  r.p99_us = pct(0.99);
  double sum = 0;
  for (const double v : lat_us) sum += v;
  r.mean_us = lat_us.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : sum / static_cast<double>(lat_us.size());
  r.secs = static_cast<double>(t_end - t_start) / 1e6;
  r.tx_per_sec = r.secs > 0 ? static_cast<double>(txs) / r.secs : 0.0;

  std::uint64_t frames = 0, sendmsgs = 0, recvs = 0, wakeups = 0, wire_bytes = 0;
  for (NodeId i = 0; i < n; ++i) {
    const runtime::NetStats& s = cluster->host(i).net_stats();
    frames += s.frames_tx.load();
    sendmsgs += s.sendmsg_calls.load();
    recvs += s.recv_calls.load();
    wakeups += s.loop_wakeups.load();
    wire_bytes += s.bytes_tx.load();
    r.handshakes += s.handshakes.load();
    r.queue_dropped += s.queue_dropped.load();
    r.dials += s.dials.load();
  }
  const auto per_tx = [txs](double v) { return v / static_cast<double>(txs); };
  r.cpu_us_per_tx = per_tx(u1.cpu_us - u0.cpu_us);
  r.ctx_switches_per_tx = per_tx(u1.ctx_switches - u0.ctx_switches);
  r.frames_per_tx = per_tx(static_cast<double>(frames));
  r.sendmsg_per_tx = per_tx(static_cast<double>(sendmsgs));
  r.recv_per_tx = per_tx(static_cast<double>(recvs));
  r.wakeups_per_tx = per_tx(static_cast<double>(wakeups));
  r.wire_bytes_per_tx = per_tx(static_cast<double>(wire_bytes));
  return r;
}

/// Median / min / max of one metric across repeats.
struct Spread {
  double median, min, max;
};
Spread spread(const std::vector<Run>& runs, double Run::*metric) {
  std::vector<double> v;
  for (const Run& r : runs) v.push_back(r.*metric);
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  const double median = v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
  return {median, v.front(), v.back()};
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  std::uint32_t repeat = 3;
  bench::Cli cli("bench_socket");
  cli.flag("seed", &p.seed, "deterministic run seed");
  cli.flag("n", &p.n, "cluster size (f = (n-1)/3)");
  cli.flag("txs", &p.txs, "transactions committed per repeat");
  cli.flag("tx-bytes", &p.tx_payload, "encoded transaction size");
  cli.flag("outstanding", &p.outstanding, "closed-loop in-flight cap");
  cli.flag("batch-txs", &p.batch_txs, "leader batch transaction cap");
  cli.flag("batch-bytes", &p.batch_bytes, "leader batch byte budget");
  cli.flag("repeat", &repeat, "runs on fresh clusters (median + spread reported)");
  if (!cli.parse(argc, argv)) return 2;
  p.tx_payload = std::max<std::uint32_t>(p.tx_payload, 8);
  p.txs = std::min<std::uint32_t>(std::max<std::uint32_t>(p.txs, 1), 1u << 24);  // 24-bit ids
  repeat = std::max<std::uint32_t>(repeat, 1);

  std::vector<Run> runs;
  bool exactly_once = true, consistent = true, p99_finite = true;
  std::uint64_t q_dropped = 0;
  for (std::uint32_t k = 0; k < repeat; ++k) {
    const Run r = run_once(p);
    std::printf("  run %u: %.0f tx/s in %.2fs, p50 %.0fus p99 %.0fus, %.1f cpu-us/tx\n", k + 1,
                r.tx_per_sec, r.secs, r.p50_us, r.p99_us, r.cpu_us_per_tx);
    exactly_once = exactly_once && r.exactly_once;
    consistent = consistent && r.consistent;
    p99_finite = p99_finite && std::isfinite(r.p99_us);
    q_dropped += r.queue_dropped;
    runs.push_back(r);
  }
  const bool nothing_dropped = q_dropped == 0;
  const bool ok = exactly_once && consistent && p99_finite && nothing_dropped;

  const Spread tps = spread(runs, &Run::tx_per_sec);
  const Spread p50 = spread(runs, &Run::p50_us);
  const Spread p99 = spread(runs, &Run::p99_us);
  const auto med = [&runs](double Run::*metric) { return spread(runs, metric).median; };
  std::printf(
      "socket bench: n=%u txs=%u x %uB, batch <= %u/%uB, outstanding <= %u, %u repeats\n"
      "  throughput: median %.0f tx/s (%.0f..%.0f) over loopback TCP\n"
      "  submit->commit latency: p50 %.0fus (%.0f..%.0f)  p99 %.0fus (%.0f..%.0f)\n"
      "  per committed tx: %.2f cpu-us, %.2f frames, %.2f sendmsg, %.2f recv, "
      "%.2f loop wakeups, %.2f voluntary ctx switches, %.0f wire bytes\n"
      "  gates: exactly-once %s, chains consistent %s, p99 finite %s, no drops %s\n",
      p.n, p.txs, p.tx_payload, p.batch_txs, p.batch_bytes, p.outstanding, repeat,
      tps.median, tps.min, tps.max, p50.median, p50.min, p50.max, p99.median, p99.min,
      p99.max, med(&Run::cpu_us_per_tx), med(&Run::frames_per_tx), med(&Run::sendmsg_per_tx),
      med(&Run::recv_per_tx), med(&Run::wakeups_per_tx), med(&Run::ctx_switches_per_tx),
      med(&Run::wire_bytes_per_tx), exactly_once ? "yes" : "NO", consistent ? "yes" : "NO",
      p99_finite ? "yes" : "NO", nothing_dropped ? "yes" : "NO");

  bench::JsonReport report("socket");
  report.field("n", p.n)
      .field("txs", p.txs)
      .field("tx_bytes", p.tx_payload)
      .field("batch_txs", p.batch_txs)
      .field("batch_bytes", p.batch_bytes)
      .field("outstanding", p.outstanding)
      .field("repeat", repeat)
      .field("duration_s", med(&Run::secs))
      .field("tx_per_sec", tps.median)
      .field("tx_per_sec_min", tps.min)
      .field("tx_per_sec_max", tps.max)
      .field("commit_latency_p50_us", p50.median)
      .field("commit_latency_p50_us_min", p50.min)
      .field("commit_latency_p50_us_max", p50.max)
      .field("commit_latency_p99_us", p99.median)
      .field("commit_latency_p99_us_min", p99.min)
      .field("commit_latency_p99_us_max", p99.max)
      .field("commit_latency_mean_us", med(&Run::mean_us))
      .field("cpu_us_per_tx", med(&Run::cpu_us_per_tx))
      .field("ctx_switches_per_tx", med(&Run::ctx_switches_per_tx))
      .field("frames_per_tx", med(&Run::frames_per_tx))
      .field("sendmsg_per_tx", med(&Run::sendmsg_per_tx))
      .field("recv_per_tx", med(&Run::recv_per_tx))
      .field("loop_wakeups_per_tx", med(&Run::wakeups_per_tx))
      .field("wire_bytes_per_tx", med(&Run::wire_bytes_per_tx))
      .field("handshakes", runs.back().handshakes)
      .field("dials", runs.back().dials)
      .field("queue_dropped", q_dropped)
      .field("exactly_once", exactly_once ? "yes" : "no")
      .field("chains_consistent", consistent ? "yes" : "no");
  report.write();

  if (!ok) {
    std::printf("socket bench: GATE FAILURE\n");
    return 1;
  }
  return 0;
}
