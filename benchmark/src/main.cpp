// tbft_benchmark: the repository benchmark (see benchmark/README.md).
//
//   tbft_benchmark [--workload NAME|all] [--seed N] [--seconds S]
//                  [--trace [0|1]]
//
// Runs rounds of each selected workload for --seconds each, every round a
// fresh child process (so rss_peak_mb belongs to that round alone), prints
// `<workload>.<metric> <value> <unit>` for every metric, writes the same
// data to results.json beside the binary, and exits non-zero when any
// correctness gate fails. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace every workload
// is also rerun with span recording on, and the per-layer metrics replace
// the end-to-end ones in that last line.

#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "run.hpp"

namespace {

using bench::RunResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; gated in BENCHMARK.json, so each must be
/// steady on every workload. Times are at the reference CPU speed
/// (cpu_gauge.hpp), except the simulated times of the sim-* workloads.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"tx_per_s", "tx/s"},      {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"cpu_us_per_tx", "us"},   {"rss_peak_mb", "MB"},
    {"committed_ratio", "ratio"},
};

/// Per-layer rows taken from the untraced rounds and printed on every run,
/// traced or not. The longest stall is not end-to-end: on sim-saturate it
/// is 17 ms at every seed (commits fall on the 1 ms link grid), and a time
/// that never changes cannot be gated; on threads-durable it spread 25%.
constexpr MetricDef kReportRows[] = {
    {"delivery.stall_max_ms", "ms"},
    {"calib.speed", "ratio"},
    {"calib.cpu_raw_us_per_tx", "us"},
};

/// One layer each, from the traced run; report-only. 0 where a layer is
/// absent from a workload (no network on the sim, no WAL in memory). The
/// per-layer set is these and then kReportRows (layer_defs).
constexpr MetricDef kPerLayer[] = {
    {"gen.cpu_us_per_tx", "us"},
    {"host.submit_queue_ms_p50", "ms"},
    {"host.submit_queue_ms_p99", "ms"},
    {"mempool.admit_us_p50", "us"},
    {"mempool.admit_us_p99", "us"},
    {"mempool.refused_ratio", "ratio"},
    {"mempool.wait_ms_p50", "ms"},
    {"mempool.wait_ms_p99", "ms"},
    {"batch.txs_mean", "count"},
    {"batch.bytes_mean", "B"},
    {"batch.dup_inclusions_per_tx", "ratio"},
    {"consensus.commit_phase_ms_p50", "ms"},
    {"consensus.commit_phase_ms_p99", "ms"},
    {"consensus.self_us_per_tx", "us"},
    {"consensus.proposal.self_us_p50", "us"},
    {"consensus.proposal.count_per_tx", "count"},
    {"consensus.vote.self_us_p50", "us"},
    {"consensus.vote.count_per_tx", "count"},
    {"consensus.forward.self_us_p50", "us"},
    {"consensus.forward.count_per_tx", "count"},
    {"consensus.viewchange.self_us_p50", "us"},
    {"consensus.viewchange.count_per_tx", "count"},
    {"consensus.timer.self_us_p50", "us"},
    {"consensus.timer.count_per_tx", "count"},
    {"consensus.view_changes", "count"},
    {"host.busy_frac_max", "ratio"},
    {"host.busy_frac_mean", "ratio"},
    {"host.msgs_per_tx", "count"},
    {"host.bytes_per_tx", "B"},
    {"net.frames_per_tx", "count"},
    {"net.wire_bytes_per_tx", "B"},
    {"net.queue_dropped", "count"},
    {"delivery.publish_us_p50", "us"},
    {"delivery.publish_us_p99", "us"},
    {"delivery.replica_lag_ms_p99", "ms"},
    {"storage.wal_appends_per_tx", "count"},
    {"storage.disk_bytes_per_tx", "B"},
    {"storage.checkpoints", "count"},
    {"storage.us_per_tx", "us"},
    {"ledger.gen_queue_ms_mean", "ms"},
    {"ledger.submit_queue_ms_mean", "ms"},
    {"ledger.admit_ms_mean", "ms"},
    {"ledger.wait_ms_mean", "ms"},
    {"ledger.commit_phase_ms_mean", "ms"},
    {"ledger.ack_ms_mean", "ms"},
    {"ledger.reconciled_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"baseline.n1.tx_per_s", "tx/s"},
    {"baseline.n1.cpu_us_per_tx", "us"},
    {"baseline.nowal.tx_per_s", "tx/s"},
    {"baseline.nowal.cpu_us_per_tx", "us"},
};

std::vector<MetricDef> layer_defs() {
  std::vector<MetricDef> v(std::begin(kPerLayer), std::end(kPerLayer));
  v.insert(v.end(), std::begin(kReportRows), std::end(kReportRows));
  return v;
}

/// A child run that outlives this is killed and counted as failed.
constexpr int kChildTimeoutS = 60;
/// Rounds per workload, however short --seconds is.
constexpr std::size_t kMinRounds = 3;

struct Args {
  std::string workload{"all"};
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool child{false};
  bench::Variant variant{bench::Variant::kNormal};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tbft_benchmark: %s\nusage: tbft_benchmark [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace [0|1]]\nworkloads:",
               why);
  for (const auto& w : bench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = true;
        if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
          a.trace = value() == "1";
        }
      } else if (k == "--child") {
        a.child = true;
      } else if (k == "--variant") {
        const std::string v = value();
        a.variant = v == "n1" ? bench::Variant::kSingleNode : bench::Variant::kNoWal;
        if (v != "n1" && v != "nowal") usage("unknown variant");
      } else {
        usage(("unknown argument " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (a.workload != "all" && bench::find_workload(a.workload) == nullptr) {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

std::filesystem::path exe_dir() {
  return std::filesystem::canonical("/proc/self/exe").parent_path();
}

/// Child mode: one run, reported line by line on stdout.
int child_main(const Args& a) {
  bench::RunSpec spec;
  spec.workload = bench::find_workload(a.workload);
  spec.seed = a.seed;
  spec.traced = a.trace;
  spec.variant = a.variant;
  spec.work_dir = exe_dir() / "work" / std::to_string(::getpid());
  spec.trace_dir = exe_dir() / "trace";
  try {
    const RunResult r = bench::run_workload(spec);
    std::printf("attempted %llu\nfailed %llu\n", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const auto& v : r.violations) std::printf("violation %s\n", v.c_str());
    for (const auto& [k, v] : r.metrics) std::printf("metric %s %.17g\n", k.c_str(), v);
  } catch (const std::exception& e) {
    std::printf("violation run aborted: %s\n", e.what());
  }
  std::printf("end\n");
  return 0;
}

/// Runs one child to completion and parses its report. A child that dies,
/// hangs, or reports no end counts as a violation.
RunResult spawn(const Args& a, bool traced, bench::Variant variant, const char* workload) {
  std::vector<std::string> args = {"tbft_benchmark", "--child", "--workload", workload,
                                   "--seed",         std::to_string(a.seed),
                                   "--trace",        traced ? "1" : "0"};
  if (variant != bench::Variant::kNormal) {
    args.emplace_back("--variant");
    args.emplace_back(variant == bench::Variant::kSingleNode ? "n1" : "nowal");
  }
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  RunResult r;
  int fds[2];
  if (::pipe(fds) != 0) {
    r.violations.emplace_back("pipe failed");
    return r;
  }
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string text;
  bool timed_out = false;
  if (pid > 0) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(kChildTimeoutS);
    char buf[4096];
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd p{fds[0], POLLIN, 0};
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) == 0) {
        timed_out = true;
        ::kill(pid, SIGKILL);
        break;
      }
      const ssize_t got = ::read(fds[0], buf, sizeof buf);
      if (got <= 0) break;
      text.append(buf, static_cast<std::size_t>(got));
    }
  }
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);

  std::istringstream in(text);
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "metric") {
      std::string name;
      double v = 0;
      ls >> name >> v;
      r.metrics.emplace_back(name, v);
    } else if (kind == "attempted") {
      ls >> r.attempted;
    } else if (kind == "failed") {
      ls >> r.failed;
    } else if (kind == "violation") {
      r.violations.push_back(line.substr(10));
    } else if (kind == "end") {
      ended = true;
    }
  }
  if (pid < 0) r.violations.emplace_back("fork failed");
  if (timed_out) r.violations.push_back("run exceeded " + std::to_string(kChildTimeoutS) + " s");
  if (pid > 0 && !timed_out && (!ended || !WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
    r.violations.push_back("run did not finish (status " + std::to_string(status) + ")");
  }
  return r;
}

struct Report {
  std::string workload;
  RunResult plain;
  std::map<std::string, double> layers;
  std::map<std::string, std::map<std::string, double>> baselines;  ///< variant -> per-layer
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> violations;
};

/// The per-layer values of a traced run, with the ones that compare runs.
std::map<std::string, double> layer_row(const RunResult& traced, const RunResult& plain) {
  std::map<std::string, double> row;
  for (const auto& d : kPerLayer) row[d.name] = traced.get(d.name);
  for (const auto& d : kReportRows) row[d.name] = plain.get(d.name);
  const double base = plain.get("cpu_us_per_tx");
  row["trace.overhead_pct"] = base > 0 ? (traced.get("cpu_us_per_tx") / base - 1.0) * 100.0 : 0.0;
  return row;
}

/// Rounds combined: each metric is the median over the rounds, except
/// committed_ratio, which pools them so that one round's failures always
/// show.
RunResult combine(const std::vector<RunResult>& rounds) {
  RunResult out;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    out.attempted += rounds[r].attempted;
    out.failed += rounds[r].failed;
    for (const auto& v : rounds[r].violations) {
      out.violations.push_back(rounds.size() > 1 ? "round " + std::to_string(r) + ": " + v : v);
    }
  }
  for (const auto& [name, first] : rounds.front().metrics) {
    std::vector<double> v;
    for (const RunResult& r : rounds) v.push_back(r.get(name));
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    double value = v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
    if (name == "committed_ratio") {
      value = out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.attempted - out.failed) /
                                       static_cast<double>(out.attempted);
    }
    out.metrics.emplace_back(name, value);
  }
  return out;
}

Report run_one(const Args& a, const bench::Workload& w) {
  Report rep;
  rep.workload = w.name;
  const auto absorb = [&rep](const RunResult& r, const char* label) {
    for (const auto& v : r.violations) rep.violations.push_back(std::string(label) + ": " + v);
  };
  // Rounds until the workload's time is spent: the simulator's rounds take
  // as long as the machine needs, so their number, not the run's length,
  // follows its speed.
  const auto t0 = std::chrono::steady_clock::now();
  const auto spent = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  std::vector<RunResult> rounds;
  while (rounds.size() < kMinRounds || spent() < a.seconds) {
    rounds.push_back(spawn(a, false, bench::Variant::kNormal, w.name));
  }
  rep.plain = combine(rounds);
  absorb(rep.plain, "run");
  rep.attempted = rep.plain.attempted;
  rep.failed = rep.plain.failed;
  if (!a.trace) return rep;

  const RunResult traced = spawn(a, true, bench::Variant::kNormal, w.name);
  absorb(traced, "traced run");
  rep.attempted = traced.attempted;
  rep.failed = traced.failed;
  rep.layers = layer_row(traced, rep.plain);
  if (w.wal) {
    // Report-only baselines: replication cost is the n=4 row minus the n=1
    // row; storage cost is the durable row minus the no-WAL row.
    const RunResult n1 = spawn(a, true, bench::Variant::kSingleNode, w.name);
    const RunResult nowal = spawn(a, true, bench::Variant::kNoWal, w.name);
    absorb(n1, "n=1 baseline");
    absorb(nowal, "no-WAL baseline");
    rep.baselines["n1"] = layer_row(n1, n1);
    rep.baselines["nowal"] = layer_row(nowal, nowal);
    rep.layers["baseline.n1.tx_per_s"] = n1.get("tx_per_s");
    rep.layers["baseline.n1.cpu_us_per_tx"] = n1.get("cpu_us_per_tx");
    rep.layers["baseline.nowal.tx_per_s"] = nowal.get("tx_per_s");
    rep.layers["baseline.nowal.cpu_us_per_tx"] = nowal.get("cpu_us_per_tx");
    rep.layers["storage.us_per_tx"] = traced.get("cpu_us_per_tx") - nowal.get("cpu_us_per_tx");
  }
  return rep;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Report& rep, bool trace) {
  for (const auto& d : kEndToEnd) {
    std::printf("%s.%s %s %s\n", rep.workload.c_str(), d.name, num(rep.plain.get(d.name)).c_str(),
                d.unit);
  }
  if (!trace) {
    for (const auto& d : kReportRows) {
      std::printf("%s.%s %s %s\n", rep.workload.c_str(), d.name, num(rep.plain.get(d.name)).c_str(),
                  d.unit);
    }
  } else {
    const bool side = !rep.baselines.empty();
    if (side) std::printf("# %s per-layer: n=4 | n=1 | no-WAL\n", rep.workload.c_str());
    for (const auto& d : layer_defs()) {
      std::printf("%s.%s %s %s", rep.workload.c_str(), d.name, num(rep.layers.at(d.name)).c_str(),
                  d.unit);
      if (side) {
        std::printf("  | %s | %s", num(rep.baselines.at("n1").at(d.name)).c_str(),
                    num(rep.baselines.at("nowal").at(d.name)).c_str());
      }
      std::printf("\n");
    }
  }
  for (const auto& v : rep.violations) {
    std::printf("%s.VIOLATION %s\n", rep.workload.c_str(), v.c_str());
  }
}

std::string json_metrics(const std::vector<std::pair<std::string, std::string>>& named,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, unit] : named) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(values.at(name)) + ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.child) {
    // glibc raises its mmap threshold each time it frees an mmapped chunk, so
    // peak RSS would depend on the order of large frees: a seed-dependent
    // step of ~6 MB on sim-lowload. Setting the trim threshold to its default
    // value turns that adaptation off and leaves every other default alone.
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    return child_main(a);
  }

  std::vector<Report> reports;
  for (const auto& w : bench::workloads()) {
    if (a.workload == "all" || a.workload == w.name) reports.push_back(run_one(a, w));
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, std::string>> named;
  std::map<std::string, double> values;
  const bool single = reports.size() == 1;
  std::string file = "{\"seed\": " + std::to_string(a.seed) + ", \"seconds\": " + num(a.seconds) +
                     ", \"workloads\": {";
  for (const Report& rep : reports) {
    print_report(rep, a.trace);
    correct = correct && rep.violations.empty();
    attempted += rep.attempted;
    failed += rep.failed;
    std::vector<std::pair<std::string, std::string>> e2e, layers;
    std::map<std::string, double> e2e_values;
    for (const auto& d : kEndToEnd) {
      e2e.emplace_back(d.name, d.unit);
      e2e_values[d.name] = rep.plain.get(d.name);
    }
    for (const auto& d : layer_defs()) layers.emplace_back(d.name, d.unit);
    const auto& chosen = a.trace ? layers : e2e;
    const auto& chosen_values = a.trace ? rep.layers : e2e_values;
    for (const auto& [name, unit] : chosen) {
      const std::string key = single ? name : rep.workload + "." + name;
      named.emplace_back(key, unit);
      values[key] = chosen_values.at(name);
    }
    if (&rep != &reports.front()) file += ", ";
    file += "\"" + rep.workload + "\": {\"attempted\": " + std::to_string(rep.attempted) +
            ", \"failed\": " + std::to_string(rep.failed) +
            ", \"correct\": " + (rep.violations.empty() ? "true" : "false") +
            ", \"end_to_end\": " + json_metrics(e2e, e2e_values);
    if (a.trace) {
      file += ", \"per_layer\": " + json_metrics(layers, rep.layers);
      for (const auto& [variant, row] : rep.baselines) {
        file += ", \"per_layer_" + variant + "\": " + json_metrics(layers, row);
      }
    }
    file += "}";
  }
  file += "}}\n";

  const std::filesystem::path json_path = exe_dir() / "results.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(file.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics(named, values).c_str());
  return correct ? 0 : 1;
}
