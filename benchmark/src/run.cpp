// One measured round of one workload (run.hpp).
//
// Timeline: set up kSetups fresh clusters (each built, started, and proven
// live by one probe request) and keep the last; load it for the window;
// drain until every live replica committed every admitted request; stop;
// check; compute. Per-request accounting lives in flat arrays indexed by
// transaction id, so the benchmark's own cost per request stays constant.

#include "run.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "cpu_gauge.hpp"
#include "load.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_node.hpp"

namespace bench {
namespace {

namespace rt = tbft::runtime;
namespace ms = tbft::multishot;
using tbft::NodeId;

constexpr std::int64_t kMs = 1'000'000;  // ns
constexpr std::int64_t kSec = 1'000 * kMs;

/// Set-ups per round. Set-up is milliseconds long, so one sample is mostly
/// scheduler noise; the median of several is not.
constexpr int kSetups = 9;
/// How long a drain may take before uncommitted requests count as failed:
/// simulated time on the sim, wall time elsewhere.
constexpr std::int64_t kSimDrain = 30 * kSec;
constexpr std::int64_t kRealDrain = 10 * kSec;
/// Sim links: every message takes exactly this long.
constexpr rt::Duration kLinkDelay = 1 * rt::kMillisecond;
/// The real hosts' closed-loop generator checks for freed clients this often.
constexpr int kPollUs = 20;
/// A closed loop that has not issued its requests by then stops issuing.
constexpr std::int64_t kMaxWindow = 30 * kSec;

void pipelined_sim(tbft::ClusterBuilder& b) {
  b.delta_bound(10 * rt::kMillisecond).pipelining(4).batching(16, 8192).adaptive_batching(256);
}

// A run repeats rounds of these until its time is spent (main.cpp), so
// every round does the same work: a closed-loop round that ran for a fixed
// time did less of it on a slower core, and threads-durable's peak RSS,
// which grows with the chain, then spread by 22%. sim-saturate's round is
// about 2 s of simulated time, so a run holds several. The real hosts run
// closed loops only: an open loop below a core's capacity leaves the core
// idle between requests, and waking an idle virtual CPU takes the
// hypervisor a time that changes with its other tenants, which spread
// sockets-steady's p50 by 25% per round. They keep Delta bound at 1 s, so a
// saturated core never view-changes spuriously.
const std::vector<Workload> kWorkloads = {
    {"sim-lowload", HostKind::kSim, false, 2000, 0, 60 * kSec, 0, -1, 0, false, pipelined_sim},
    {"sim-saturate", HostKind::kSim, true, 0, 4096, 0, 150'000, -1, 0, false, pipelined_sim},
    {"sim-leader-crash", HostKind::kSim, false, 2000, 0, 10 * kSec, 0, 0.2, 200 * kMs, false,
     [](tbft::ClusterBuilder& b) { b.delta_bound(10 * rt::kMillisecond); }},
    {"threads-durable", HostKind::kThreads, true, 0, 256, 0, 100'000, -1, 0, true,
     [](tbft::ClusterBuilder& b) { b.delta_bound(1 * rt::kSecond); }},
    // Batches of at most 8 keep per-message costs (frames, syscalls,
    // wakeups) the larger share of a transaction's cost.
    {"sockets-steady", HostKind::kSockets, true, 0, 128, 0, 40'000, -1, 0, false,
     [](tbft::ClusterBuilder& b) { b.delta_bound(1 * rt::kSecond).batching(8, 8192); }},
};

/// A zero-filled per-request array. calloc leaves untouched pages unmapped,
/// so sizing it for the largest possible run costs memory only for the ids
/// a run actually uses.
template <class T>
class Flat {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit Flat(std::size_t n) : p_(static_cast<T*>(std::calloc(n == 0 ? 1 : n, sizeof(T)))) {
    if (p_ == nullptr) throw std::bad_alloc();
  }
  Flat(Flat&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  Flat(const Flat&) = delete;
  Flat& operator=(const Flat&) = delete;
  Flat& operator=(Flat&&) = delete;
  ~Flat() { std::free(p_); }

  T& operator[](std::size_t i) noexcept { return p_[i]; }
  const T& operator[](std::size_t i) const noexcept { return p_[i]; }

 private:
  T* p_;
};

/// Per-request accounting and the commit sink that fills it. Id 0 is the
/// set-up probe; load starts at id 1. Each SocketHost calls its sink on its
/// own thread, hence the lock, taken once per committed block.
class Book final : public rt::CommitSink {
 public:
  Book(std::uint64_t seed, std::uint32_t n, std::uint32_t capacity, const RunClock& clock)
      : seed(seed),
        n(n),
        capacity(capacity),
        due(capacity),
        first_commit(capacity),
        refused(capacity),
        node_commits(n),
        clock_(clock) {
    for (std::uint32_t i = 0; i < n; ++i) seen.emplace_back(capacity);
  }

  void on_commit(const rt::Commit& c) override {
    const std::int64_t t = clock_.ledger_ns();
    Probe* probe = probes.empty() ? nullptr : probes[c.node];
    std::lock_guard<std::mutex> lk(mx_);
    ms::for_each_frame(c.payload, [&](std::span<const std::uint8_t> f) {
      std::uint32_t id = 0;
      if (!parse_tx(seed, f, capacity, id)) {
        ++foreign;
        return;
      }
      std::uint8_t& s = seen[c.node][id];
      if (s < 255) ++s;
      if (s != 1) return;
      node_commits[c.node].fetch_add(1, std::memory_order_release);
      // Sinks read the clock before the lock, so the first to take the lock
      // may carry the later time.
      std::int64_t& first = first_commit[id];
      if (first == 0) first_commits.fetch_add(1, std::memory_order_release);
      if (first == 0 || t < first) first = t;
      if (probe != nullptr && sampled(id)) probe->spans.mark(kCommitted, id, t);
    });
  }

  const std::uint64_t seed;
  const std::uint32_t n;
  const std::uint32_t capacity;
  Flat<std::int64_t> due;           ///< ledger ns the request was due
  Flat<std::int64_t> first_commit;  ///< ledger ns of its first commit anywhere; 0 = none
  Flat<std::uint8_t> refused;       ///< 1 = every replica refused it
  std::vector<Flat<std::uint8_t>> seen;  ///< [replica][id] commits, saturating
  std::uint32_t issued{0};               ///< ids handed out (generator only)
  std::atomic<std::uint64_t> first_commits{0};
  std::atomic<std::uint64_t> refused_all{0};
  std::atomic<std::uint64_t> attempts{0};   ///< submit_tx calls
  std::atomic<std::uint64_t> refusals{0};   ///< of which refused
  std::vector<std::atomic<std::uint64_t>> node_commits;  ///< distinct ids per replica
  std::uint64_t foreign{0};  ///< frames that are no request of this run
  std::vector<Probe*> probes;  ///< traced: per-replica probes for commit marks

 private:
  const RunClock& clock_;
  std::mutex mx_;
};

struct ClusterSpec {
  HostKind host{HostKind::kSim};
  ms::MultishotConfig cfg;
  std::uint64_t seed{1};
  std::filesystem::path wal_dir;  ///< empty = in-memory
};

/// n replicas on one of the three hosts, each wrapped in a TracedNode.
/// Members are destroyed hosts first, so no node outlives its durable
/// chain.
class Cluster {
 public:
  Cluster(const ClusterSpec& spec, Book& book, RunClock& clock, const std::vector<Probe*>& probes) {
    const std::uint32_t n = spec.cfg.n;
    if (spec.host == HostKind::kSim) {
      tbft::sim::SimConfig sc;
      sc.seed = spec.seed;
      sc.keep_message_trace = false;
      sc.net.gst = 0;
      sc.net.delta_bound = spec.cfg.delta_bound;
      sc.net.delta_actual = kLinkDelay;
      sc.net.delta_min = kLinkDelay;
      sim = std::make_unique<tbft::sim::Simulation>(sc);
      clock.sim = sim.get();
    } else if (spec.host == HostKind::kThreads) {
      runner = std::make_unique<rt::LocalRunner>(rt::LocalRunnerConfig{spec.seed});
    }
    for (NodeId i = 0; i < n; ++i) {
      auto inner = std::make_unique<ms::MultishotNode>(spec.cfg);
      if (!spec.wal_dir.empty()) {
        auto d = std::make_unique<tbft::storage::DurableChain>(spec.wal_dir /
                                                               ("node-" + std::to_string(i)));
        (void)d->recover();  // a fresh directory: nothing to restore
        inner->set_durable(d.get());
        durables.push_back(std::move(d));
      }
      auto node = std::make_unique<TracedNode>(std::move(inner),
                                               probes.empty() ? nullptr : probes[i]);
      nodes.push_back(node.get());
      switch (spec.host) {
        case HostKind::kSim: sim->add_node(std::move(node)); break;
        case HostKind::kThreads: runner->add_node(std::move(node)); break;
        case HostKind::kSockets: {
          rt::SocketHostConfig hc;
          hc.id = i;
          hc.n = n;
          hc.seed = spec.seed;
          hc.listen = tbft::net::Endpoint{"127.0.0.1", 0};
          sockets.push_back(std::make_unique<rt::SocketHost>(hc, std::move(node)));
          break;
        }
      }
    }
    if (sim) sim->add_commit_sink(book);
    if (runner) runner->add_commit_sink(book);
    for (NodeId i = 0; i < sockets.size(); ++i) {
      sockets[i]->add_commit_sink(book);
      for (NodeId j = 0; j < sockets.size(); ++j) {
        if (j != i) sockets[i]->set_peer_endpoint(j, {"127.0.0.1", sockets[j]->port()});
      }
    }
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { stop(); }

  void start() {
    if (sim) sim->start();
    if (runner) runner->start();
    for (auto& s : sockets) s->start();
  }

  /// Joins every host thread and flushes the WALs; nodes are quiescent after.
  void stop() {
    if (runner) runner->stop();
    for (auto& s : sockets) s->stop();
    for (auto& d : durables) d->flush();
  }

  /// Runs `fn` on replica `i`'s thread (real hosts only).
  void post(NodeId i, std::function<void()> fn) {
    if (runner) {
      runner->post(i, std::move(fn));
    } else {
      sockets[i]->post(std::move(fn));
    }
  }

  [[nodiscard]] bool live(NodeId i) const { return !sim || !sim->is_crashed(i); }
  [[nodiscard]] std::uint32_t n() const { return static_cast<std::uint32_t>(nodes.size()); }

  std::vector<TracedNode*> nodes;
  std::vector<std::unique_ptr<tbft::storage::DurableChain>> durables;
  std::unique_ptr<tbft::sim::Simulation> sim;
  std::unique_ptr<rt::LocalRunner> runner;
  std::vector<std::unique_ptr<rt::SocketHost>> sockets;
};

/// One submit_tx call, counted.
bool try_submit(Cluster& c, Book& b, std::uint32_t id, NodeId r) {
  b.attempts.fetch_add(1, std::memory_order_relaxed);
  if (c.live(r) && c.nodes[r]->submit(id, make_tx(b.seed, id))) return true;
  b.refusals.fetch_add(1, std::memory_order_relaxed);
  return false;
}

/// Real hosts: post the submission to replica r; a refusal fails over to
/// the next replica at once, from that replica's thread.
void post_submit(Cluster& c, Book& b, std::uint32_t id, NodeId r, std::uint32_t tried) {
  c.post(r, [&c, &b, id, r, tried] {
    if (try_submit(c, b, id, r)) return;
    if (tried + 1 < c.n()) {
      post_submit(c, b, id, (r + 1) % c.n(), tried + 1);
    } else {
      b.refused[id] = 1;
      b.refused_all.fetch_add(1, std::memory_order_release);
    }
  });
}

/// Sim: submit request `id` starting at replica `first`, failing over on
/// refusal. Returns the admitting replica, or -1 when all refused (marked
/// refused unless this is a resubmission of an admitted request).
int sim_submit(Cluster& c, Book& b, std::uint32_t id, NodeId first, bool resubmit) {
  for (std::uint32_t k = 0; k < c.n(); ++k) {
    const NodeId r = (first + k) % c.n();
    if (try_submit(c, b, id, r)) return static_cast<int>(r);
  }
  if (!resubmit) {
    b.refused[id] = 1;
    b.refused_all.fetch_add(1, std::memory_order_release);
  }
  return -1;
}

/// Hand out the next id, due at `due`, and submit it round-robin. Returns
/// the admitting replica on the sim, -1 otherwise.
int issue(Cluster& c, Book& b, Probe* gen, std::int64_t due) {
  const std::uint32_t id = b.issued;
  if (id >= b.capacity) throw std::runtime_error("request capacity exhausted");
  b.due[id] = due;
  b.issued = id + 1;
  if (gen != nullptr && sampled(id)) gen->spans.mark(kPost, id);
  if (c.sim) return sim_submit(c, b, id, id % c.n(), false);
  post_submit(c, b, id, id % c.n(), 0);
  return -1;
}

/// Every live replica committed every request no replica refused.
bool drained(const Cluster& c, const Book& b) {
  const std::uint64_t want = b.issued - b.refused_all.load(std::memory_order_acquire);
  for (NodeId i = 0; i < c.n(); ++i) {
    if (c.live(i) && b.node_commits[i].load(std::memory_order_acquire) != want) return false;
  }
  return true;
}

/// Build and start a cluster, then commit one probe request (id 0) on every
/// replica: set-up ends when the cluster has shown it serves.
std::unique_ptr<Cluster> set_up(const ClusterSpec& spec, Book& b, RunClock& clock,
                                const std::vector<Probe*>& probes) {
  auto c = std::make_unique<Cluster>(spec, b, clock, probes);
  c->start();
  issue(*c, b, nullptr, clock.ledger_ns());
  const auto pred = [&] { return drained(*c, b); };
  bool ok = false;
  if (c->sim) {
    ok = c->sim->run_until_pred(pred, c->sim->now() + 10 * rt::kSecond);
  } else {
    const std::int64_t deadline = clock.ledger_ns() + 10 * kSec;
    while (!(ok = pred()) && clock.ledger_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  if (!ok) throw std::runtime_error("set-up: the probe request did not commit");
  return c;
}

struct Window {
  std::int64_t start{0};    ///< ledger ns
  std::int64_t end{0};
  std::int64_t drained{0};  ///< drain finished or gave up
  std::int64_t wall_start{0};
  std::int64_t wall_end{0};
  std::int64_t gen_cpu_ns{0};  ///< generator thread, real hosts
};

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

/// Closed-loop clients. Each completion -- a first commit, or a refusal by
/// every replica -- frees a client, which sends its next request after a
/// think time drawn uniformly from [0, kThinkNs). The think time also makes
/// the sim's closed loop depend on the seed: without it every request would
/// be sent on the 1 ms grid the links impose, whatever the seed.
class ClosedLoop {
 public:
  ClosedLoop(const Book& b, std::uint32_t clients, std::int64_t start)
      : rng_(tbft::mix64(b.seed) ^ 0x7468696e6bULL), done_(completions(b)) {
    for (std::uint32_t i = 0; i < clients; ++i) schedule(start);
  }

  [[nodiscard]] static std::uint64_t completions(const Book& b) {
    return b.first_commits.load(std::memory_order_acquire) +
           b.refused_all.load(std::memory_order_acquire);
  }

  /// Schedules the next request of every client freed since the last call.
  void refill(const Book& b, std::int64_t now) {
    for (const std::uint64_t d = completions(b); done_ < d; ++done_) schedule(now);
  }
  /// Due time of the earliest scheduled request; INT64_MAX when none.
  [[nodiscard]] std::int64_t next() const { return due_.empty() ? INT64_MAX : due_.top(); }
  std::int64_t pop() {
    const std::int64_t t = due_.top();
    due_.pop();
    return t;
  }

 private:
  static constexpr double kThinkNs = 1e6;

  void schedule(std::int64_t now) {
    due_.push(now + static_cast<std::int64_t>(rng_.uniform01() * kThinkNs));
  }

  tbft::Rng rng_;
  std::uint64_t done_;
  std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>> due_;
};

/// The sim's generator: steps the simulation from one load event (arrival,
/// resubmission, crash, closed-loop completion) to the next.
Window drive_sim(Cluster& c, Book& b, const Workload& w, const std::vector<std::int64_t>& arrivals,
                 CpuGauge& gauge, Probe* gen) {
  tbft::sim::Simulation& sim = *c.sim;
  const auto now = [&sim] { return sim.now() * 1000; };
  Window win;
  win.start = now();
  win.end = win.start + (w.closed ? kMaxWindow : w.window_ns);
  const std::int64_t crash_at =
      w.crash_at < 0
          ? -1
          : win.start + static_cast<std::int64_t>(w.crash_at * static_cast<double>(w.window_ns));
  bool crashed = false;
  struct Resubmit {
    std::int64_t at;
    std::uint32_t id;
    NodeId next;
  };
  std::deque<Resubmit> resubmits;
  const auto watch = [&](std::uint32_t id, int admitted, std::int64_t t) {
    if (admitted >= 0 && w.retry_ns > 0) {
      resubmits.push_back({t + w.retry_ns, id, static_cast<NodeId>((admitted + 1) % c.n())});
    }
  };
  std::size_t next = 0;
  ClosedLoop clients(b, w.closed ? w.outstanding : 0, win.start);
  for (;;) {
    gauge.tick();
    const std::int64_t t = now();
    if (t < win.end) {
      if (w.closed) {
        clients.refill(b, t);
        while (clients.next() <= t && b.issued <= w.requests) {
          const std::uint32_t id = b.issued;
          watch(id, issue(c, b, gen, clients.pop()), t);
        }
        if (b.issued > w.requests) win.end = t;  // the last request is out
      } else {
        for (; next < arrivals.size() && win.start + arrivals[next] <= t; ++next) {
          const std::uint32_t id = b.issued;
          watch(id, issue(c, b, gen, win.start + arrivals[next]), t);
        }
      }
    }
    while (!resubmits.empty() && resubmits.front().at <= t) {
      const Resubmit r = resubmits.front();
      resubmits.pop_front();
      if (b.first_commit[r.id] != 0) continue;
      const int admitted = sim_submit(c, b, r.id, r.next, true);
      if (admitted >= 0) {
        watch(r.id, admitted, t);
      } else {
        resubmits.push_back({t + w.retry_ns, r.id, r.next});
      }
    }
    if (crash_at >= 0 && !crashed && t >= crash_at) {
      sim.crash_node(0);
      crashed = true;
    }
    const std::int64_t deadline = win.end + kSimDrain;
    if ((t >= win.end && drained(c, b)) || t >= deadline) break;

    std::int64_t wake = deadline;
    if (t < win.end) wake = std::min({wake, win.end, clients.next()});
    if (!w.closed && next < arrivals.size()) wake = std::min(wake, win.start + arrivals[next]);
    if (!resubmits.empty()) wake = std::min(wake, resubmits.front().at);
    if (crash_at >= 0 && !crashed) wake = std::min(wake, crash_at);
    const std::uint64_t done = ClosedLoop::completions(b);
    const bool refill = w.closed && t < win.end;
    const auto pred = [&] {
      return refill ? ClosedLoop::completions(b) != done : now() >= win.end && drained(c, b);
    };
    const rt::Time wake_us = (wake + 999) / 1000;
    if (!sim.run_until_pred(pred, wake_us)) sim.run_until(wake_us);
  }
  win.drained = now();
  return win;
}

/// The real hosts' generator: this thread, keeping a closed loop full, then
/// waiting for the drain.
Window drive_real(Cluster& c, Book& b, const Workload& w, const RunClock& clock,
                  CpuGauge& gauge, Probe* gen) {
  Window win;
  win.start = clock.ledger_ns();
  win.end = win.start + kMaxWindow;
  const std::int64_t cpu0 = thread_cpu_ns() - gauge.spent_ns();
  ClosedLoop clients(b, w.outstanding, win.start);
  for (std::int64_t t = win.start; b.issued <= w.requests && t < win.end; t = clock.ledger_ns()) {
    gauge.tick();
    clients.refill(b, t);
    while (clients.next() <= t && b.issued <= w.requests) {
      clients.pop();
      issue(c, b, gen, t);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
  }
  win.end = std::min(win.end, clock.ledger_ns());
  win.gen_cpu_ns = thread_cpu_ns() - gauge.spent_ns() - cpu0;
  const std::int64_t deadline = std::max(clock.ledger_ns(), win.end) + kRealDrain;
  while (!drained(c, b) && clock.ledger_ns() < deadline) {
    gauge.tick();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  win.drained = clock.ledger_ns();
  return win;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Counters read from the hosts and storage before the cluster goes away.
struct HostCounters {
  std::uint64_t frames{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t queue_dropped{0};
  std::uint64_t wal_appends{0};
  std::uint64_t checkpoints{0};
  std::uint64_t disk_bytes{0};
};

HostCounters read_counters(const Cluster& c, const std::filesystem::path& wal_dir) {
  HostCounters h;
  for (const auto& s : c.sockets) {
    h.frames += s->net_stats().frames_tx.load();
    h.wire_bytes += s->net_stats().bytes_tx.load();
    h.queue_dropped += s->net_stats().queue_dropped.load();
  }
  for (const auto& d : c.durables) {
    h.wal_appends += d->wal_stats().appended;
    h.checkpoints += d->checkpoints_stored();
  }
  if (!wal_dir.empty()) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(wal_dir)) {
      if (e.is_regular_file()) h.disk_bytes += e.file_size();
    }
  }
  return h;
}

/// The correctness gates: exactly once on every live replica, nothing
/// foreign, refused requests never committed, chains prefix-consistent.
std::vector<std::string> check(const Cluster& c, const Book& b) {
  std::vector<std::string> bad;
  std::uint64_t dup = 0, missing = 0, refused_committed = 0;
  std::uint32_t example = 0;
  for (std::uint32_t id = 0; id < b.issued; ++id) {
    std::uint32_t max_seen = 0, live_missing = 0;
    for (NodeId i = 0; i < c.n(); ++i) {
      max_seen = std::max<std::uint32_t>(max_seen, b.seen[i][id]);
      if (c.live(i) && b.seen[i][id] == 0) ++live_missing;
    }
    const bool committed = b.first_commit[id] != 0;
    const bool is_dup = max_seen > 1;
    const bool is_refused = b.refused[id] != 0 && committed;
    const bool is_missing = committed && live_missing > 0;
    dup += is_dup;
    refused_committed += is_refused;
    missing += is_missing;
    if (is_dup || is_refused || is_missing) example = id;
  }
  const auto say = [&](std::uint64_t count, const char* what) {
    if (count == 0) return;
    bad.push_back(std::to_string(count) + " request(s) " + what + " (e.g. id " +
                  std::to_string(example) + ")");
  };
  say(dup, "committed more than once on a replica");
  say(missing, "committed on some live replica but not on all");
  say(refused_committed, "refused by every replica yet committed");
  if (b.foreign != 0) bad.push_back(std::to_string(b.foreign) + " foreign frame(s) committed");
  std::vector<ms::MultishotNode*> chains;
  for (TracedNode* node : c.nodes) chains.push_back(&node->inner());
  if (!ms::chains_prefix_consistent(chains)) bad.emplace_back("replica chains are not prefix-consistent");
  return bad;
}

/// The end-to-end metrics of a run (set-up time is added by the caller),
/// and the longest commit stall. CPU costs, and on real hosts every wall
/// time, are scaled to the reference speed by `to_ref` (CpuGauge).
void end_to_end(const Book& b, const Window& win, std::int64_t cpu_ns, double to_ref,
                bool simulated, RunResult& out) {
  std::vector<double> lat_ms;
  std::vector<std::int64_t> in_window;
  lat_ms.reserve(b.issued);
  for (std::uint32_t id = 1; id < b.issued; ++id) {
    const std::int64_t done = b.first_commit[id];
    if (done == 0) {
      ++out.failed;
      // A failed request misses every latency limit; it counts as waiting
      // until the drain ended.
      lat_ms.push_back(static_cast<double>(win.drained - b.due[id]) / kMs);
      continue;
    }
    lat_ms.push_back(static_cast<double>(done - b.due[id]) / kMs);
    if (done <= win.end) in_window.push_back(done);
  }
  out.attempted = b.issued - 1;
  const std::uint64_t committed = out.attempted - out.failed;
  std::sort(in_window.begin(), in_window.end());
  std::int64_t stall = 0;
  for (std::size_t i = 1; i < in_window.size(); ++i) {
    stall = std::max(stall, in_window[i] - in_window[i - 1]);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double window_s = static_cast<double>(win.end - win.start) / kSec;
  const double cpu_us =
      committed == 0 ? 0.0 : static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(committed);
  const double wall = simulated ? 1.0 : to_ref;
  Metrics& m = out.metrics;
  m.emplace_back("tx_per_s", static_cast<double>(in_window.size()) / window_s / wall);
  m.emplace_back("latency_p50_ms", quantile(lat_ms, 0.50) * wall);
  m.emplace_back("latency_p99_ms", quantile(lat_ms, 0.99) * wall);
  m.emplace_back("delivery.stall_max_ms", static_cast<double>(stall) / kMs * wall);
  m.emplace_back("cpu_us_per_tx", cpu_us * to_ref);
  m.emplace_back("calib.cpu_raw_us_per_tx", cpu_us);
  m.emplace_back("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  m.emplace_back("committed_ratio", out.attempted == 0 ? 0.0
                                                       : static_cast<double>(committed) /
                                                             static_cast<double>(out.attempted));
}

/// Per-layer metrics of a traced run, from its spans. `probes` holds the n
/// replicas' probes and then the generator's.
void per_layer(const std::vector<std::unique_ptr<Probe>>& probes, const Book& b,
               const Window& win, const HostCounters& hc, bool simulated, RunResult& out) {
  constexpr std::int64_t kNone = INT64_MAX;
  const std::uint32_t n = b.n;
  const std::size_t samples = b.issued / kSampleEvery + 1;
  // Ledger stamps of each sampled request, indexed id / kSampleEvery.
  std::vector<Stamps> st(samples);
  for (auto& s : st) s.fill(kNone);
  std::array<std::vector<double>, kNameCount> self_us;
  std::vector<double> admit_us, publish_us, busy_frac;
  std::vector<std::int64_t> slot_proposed, slot_published;
  const auto first_at = [&](std::vector<std::int64_t>& v, std::uint64_t slot, std::int64_t at) {
    if (slot >= v.size()) v.resize(slot + 1, kNone);
    v[slot] = std::min(v[slot], at);
  };
  double consensus_self_ns = 0;
  const double wall_ns = static_cast<double>(win.wall_end - win.wall_start);
  for (std::uint32_t node = 0; node <= n; ++node) {
    const SpanBuffer& sb = probes[node]->spans;
    const std::vector<std::int64_t> self = self_times(sb);
    double busy_ns = static_cast<double>(probes[node]->unsampled_ns);
    for (std::size_t i = 0; i < sb.size(); ++i) {
      const Span& s = sb[i];
      const std::int64_t dur = s.t1 - s.t0;
      const std::size_t k = s.req / kSampleEvery;
      const bool request = s.name == kAdmit || s.name >= kPost;
      if (request && k >= samples) continue;
      if (s.parent == 0 && s.name <= kAdmit && s.t0 >= win.wall_start) busy_ns += static_cast<double>(dur);
      switch (s.name) {
        case kProposal:
        case kVote:
        case kForward:
        case kViewChange:
        case kOtherMsg:
        case kTimer:
          self_us[s.name].push_back(static_cast<double>(self[i]) / 1e3);
          consensus_self_ns += static_cast<double>(self[i]);
          if (s.name == kProposal && s.req != 0) first_at(slot_proposed, s.req, s.at);
          break;
        case kAdmit:
          admit_us.push_back(static_cast<double>(dur) / 1e3);
          if (s.a == 1 && s.at < st[k][2]) {
            st[k][2] = s.at;
            st[k][3] = s.at + (simulated ? 0 : dur);
          }
          break;
        case kPublish:
          publish_us.push_back(static_cast<double>(dur) / 1e3);
          first_at(slot_published, s.req, s.at);
          break;
        case kPost: st[k][1] = std::min(st[k][1], s.at); break;
        case kProposed: st[k][4] = std::min(st[k][4], s.at); break;
        case kCommitted:
          if (s.at < st[k][6]) {
            st[k][6] = s.at;
            st[k][5] = s.parent != 0 ? sb[s.parent - 1].at : s.at;
          }
          break;
        default: break;
      }
    }
    if (node < n) busy_frac.push_back(wall_ns > 0 ? busy_ns / wall_ns : 0.0);
  }
  // Replica lag: each replica's commit of a sampled request after the first.
  std::vector<double> lag_ms;
  for (std::uint32_t node = 0; node < n; ++node) {
    const SpanBuffer& sb = probes[node]->spans;
    for (std::size_t i = 0; i < sb.size(); ++i) {
      if (sb[i].name == kCommitted && sb[i].req / kSampleEvery < samples) {
        lag_ms.push_back(static_cast<double>(sb[i].at - st[sb[i].req / kSampleEvery][6]) / kMs);
      }
    }
  }
  std::vector<double> commit_phase_ms;
  for (std::size_t s = 0; s < std::min(slot_proposed.size(), slot_published.size()); ++s) {
    if (slot_proposed[s] != kNone && slot_published[s] != kNone) {
      commit_phase_ms.push_back(static_cast<double>(slot_published[s] - slot_proposed[s]) / kMs);
    }
  }
  // Latency ledgers.
  std::vector<double> queue_ms, wait_ms;
  Segments sums{};
  std::uint64_t ledgers = 0, reconciled = 0;
  for (std::size_t k = 1; k < samples; ++k) {
    const std::uint64_t id = k * kSampleEvery;
    if (id >= b.issued || b.first_commit[id] == 0) continue;
    Stamps& t = st[k];
    t[0] = b.due[id];
    ++ledgers;
    if (std::find(t.begin(), t.end(), kNone) != t.end()) continue;
    // Admission ends when submit_tx returns or when the first proposal
    // carrying the request is delivered, whichever is first: submit_tx
    // forwards the request to the leader before it returns, so on a real
    // host that proposal can be delivered while submit_tx is still running.
    t[3] = std::min(t[3], t[4]);
    const Segments seg = ledger_segments(t);
    // The first stamp is the due time and the last the first commit, so the
    // segments telescope to the latency: this checks that the stamps are in
    // order, not their sum.
    if (!ledger_reconciles(seg, b.first_commit[id] - b.due[id])) continue;
    ++reconciled;
    for (std::size_t i = 0; i < seg.size(); ++i) sums[i] += seg[i];
    queue_ms.push_back(static_cast<double>(seg[1]) / kMs);
    wait_ms.push_back(static_cast<double>(seg[3]) / kMs);
  }

  std::uint64_t msgs = 0, bytes = 0, proposals = 0, inclusions = 0, batch_bytes = 0;
  std::set<std::pair<tbft::Slot, tbft::View>> view_changes;
  for (std::uint32_t node = 0; node < n; ++node) {
    const Probe& p = *probes[node];
    msgs += p.msgs;
    bytes += p.bytes;
    proposals += p.proposals;
    inclusions += p.inclusions;
    batch_bytes += p.batch_bytes;
    view_changes.insert(p.view_changes.begin(), p.view_changes.end());
  }
  // The set-up probe was committed too.
  const double committed = static_cast<double>(out.attempted - out.failed + 1);
  const auto per_tx = [&](double x) { return committed > 0 ? x / committed : 0.0; };
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  Metrics& m = out.metrics;
  m.emplace_back("gen.cpu_us_per_tx",
                 ratio(static_cast<double>(win.gen_cpu_ns) / 1e3, static_cast<double>(out.attempted)));
  m.emplace_back("host.submit_queue_ms_p50", quantile(queue_ms, 0.50));
  m.emplace_back("host.submit_queue_ms_p99", quantile(queue_ms, 0.99));
  m.emplace_back("mempool.admit_us_p50", quantile(admit_us, 0.50));
  m.emplace_back("mempool.admit_us_p99", quantile(admit_us, 0.99));
  m.emplace_back("mempool.refused_ratio",
                 ratio(static_cast<double>(b.refusals.load()), static_cast<double>(b.attempts.load())));
  m.emplace_back("mempool.wait_ms_p50", quantile(wait_ms, 0.50));
  m.emplace_back("mempool.wait_ms_p99", quantile(wait_ms, 0.99));
  m.emplace_back("batch.txs_mean", ratio(static_cast<double>(inclusions), static_cast<double>(proposals)));
  m.emplace_back("batch.bytes_mean", ratio(static_cast<double>(batch_bytes), static_cast<double>(proposals)));
  m.emplace_back("batch.dup_inclusions_per_tx",
                 std::max(0.0, ratio(static_cast<double>(inclusions) - committed,
                                     static_cast<double>(inclusions))));
  m.emplace_back("consensus.commit_phase_ms_p50", quantile(commit_phase_ms, 0.50));
  m.emplace_back("consensus.commit_phase_ms_p99", quantile(commit_phase_ms, 0.99));
  m.emplace_back("consensus.self_us_per_tx", per_tx(consensus_self_ns / 1e3));
  for (const Name h : {kProposal, kVote, kForward, kViewChange, kTimer}) {
    const std::string base = std::string("consensus.") + kNames[h];
    const auto count = static_cast<double>(self_us[h].size());
    m.emplace_back(base + ".self_us_p50", quantile(self_us[h], 0.50));
    m.emplace_back(base + ".count_per_tx", per_tx(count));
  }
  m.emplace_back("consensus.view_changes", static_cast<double>(view_changes.size()));
  m.emplace_back("host.busy_frac_max",
                 busy_frac.empty() ? 0.0 : *std::max_element(busy_frac.begin(), busy_frac.end()));
  m.emplace_back("host.busy_frac_mean", mean(busy_frac));
  m.emplace_back("host.msgs_per_tx", per_tx(static_cast<double>(msgs)));
  m.emplace_back("host.bytes_per_tx", per_tx(static_cast<double>(bytes)));
  m.emplace_back("net.frames_per_tx", per_tx(static_cast<double>(hc.frames)));
  m.emplace_back("net.wire_bytes_per_tx", per_tx(static_cast<double>(hc.wire_bytes)));
  m.emplace_back("net.queue_dropped", static_cast<double>(hc.queue_dropped));
  m.emplace_back("delivery.publish_us_p50", quantile(publish_us, 0.50));
  m.emplace_back("delivery.publish_us_p99", quantile(publish_us, 0.99));
  m.emplace_back("delivery.replica_lag_ms_p99", quantile(lag_ms, 0.99));
  m.emplace_back("storage.wal_appends_per_tx", per_tx(static_cast<double>(hc.wal_appends)));
  m.emplace_back("storage.disk_bytes_per_tx", per_tx(static_cast<double>(hc.disk_bytes)));
  m.emplace_back("storage.checkpoints", static_cast<double>(hc.checkpoints));
  for (std::size_t i = 0; i < kSegments.size(); ++i) {
    m.emplace_back(std::string("ledger.") + kSegments[i] + "_ms_mean",
                   ratio(static_cast<double>(sums[i]) / kMs, static_cast<double>(reconciled)));
  }
  m.emplace_back("ledger.reconciled_ratio",
                 ratio(static_cast<double>(reconciled), static_cast<double>(ledgers)));
  if (reconciled != ledgers) {
    out.violations.push_back(std::to_string(ledgers - reconciled) + " of " +
                             std::to_string(ledgers) +
                             " sampled ledgers do not sum to their latency within 1%");
  }
}

/// Writes the sampled spans as JSON lines: every span of a sampled request,
/// and one in kSampleEvery handler spans with all their children. Node n is
/// the generator.
void write_spans(const std::filesystem::path& path,
                 const std::vector<std::unique_ptr<Probe>>& probes) {
  std::filesystem::create_directories(path.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  for (std::size_t node = 0; node < probes.size(); ++node) {
    const SpanBuffer& sb = probes[node]->spans;
    std::vector<bool> kept(sb.size());
    for (std::size_t i = 0; i < sb.size(); ++i) {
      const Span& s = sb[i];
      const bool request = s.name >= kPost || s.name == kAdmit;
      kept[i] = s.parent != 0 ? kept[s.parent - 1] : request || i % kSampleEvery == 0;
      if (!kept[i]) continue;
      std::fprintf(f,
                   "{\"node\":%zu,\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"req\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"ledger_ns\":%lld,\"a\":%u}\n",
                   node, i + 1, s.parent, kNames[s.name], static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                   static_cast<long long>(s.at), s.a);
    }
  }
  std::fclose(f);
}

/// Confines this process, and every thread it starts after, to the CPU it
/// runs on now. A real-host cluster is n replica threads (and on sockets n
/// I/O threads) plus the generator: spread over a few shared cores, how they
/// land on them changes from run to run and moved closed-loop capacity by
/// 15% and more, and a neighbour's load on any core reaches the run. On one
/// core, throughput is that core's speed over the CPU a transaction costs.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RunResult run_workload(const RunSpec& spec) {
  pin_to_current_cpu();
  const Workload& w = *spec.workload;
  tbft::ClusterBuilder builder;
  builder.nodes(4).seed(spec.seed);
  w.configure(builder);
  if (spec.variant == Variant::kSingleNode) builder.nodes(1).faults(0);
  ClusterSpec cs;
  cs.host = w.host;
  cs.cfg = builder.node_config();
  cs.seed = spec.seed;
  const bool wal = w.wal && spec.variant != Variant::kNoWal;
  const std::uint32_t n = cs.cfg.n;

  const std::vector<std::int64_t> arrivals =
      w.closed ? std::vector<std::int64_t>{} : poisson_schedule(spec.seed, w.rate, w.window_ns);
  const auto capacity = static_cast<std::uint32_t>(1 + (w.closed ? w.requests : arrivals.size()));

  // Throw-away set-ups first; the last set-up builds the measured cluster.
  // The gauge times a pass before each, so its speed covers set-up too.
  CpuGauge gauge;
  std::vector<double> setup_s;
  for (int k = 0; k + 1 < kSetups; ++k) {
    RunClock clock;
    Book book(spec.seed, n, 1, clock);
    cs.wal_dir = wal ? spec.work_dir / ("setup-" + std::to_string(k)) : std::filesystem::path{};
    gauge.sample();
    const auto t0 = std::chrono::steady_clock::now();
    set_up(cs, book, clock, {}).reset();
    setup_s.push_back(seconds_since(t0));
  }

  RunClock clock;
  Book book(spec.seed, n, capacity, clock);
  std::vector<std::unique_ptr<Probe>> probes;
  if (spec.traced) {
    for (std::uint32_t i = 0; i <= n; ++i) probes.push_back(std::make_unique<Probe>(clock));
    for (std::uint32_t i = 0; i < n; ++i) book.probes.push_back(probes[i].get());
  }
  Probe* gen = spec.traced ? probes[n].get() : nullptr;
  cs.wal_dir = wal ? spec.work_dir / "run" : std::filesystem::path{};
  gauge.sample();
  const auto t0 = std::chrono::steady_clock::now();
  auto cluster = set_up(cs, book, clock, book.probes);
  setup_s.push_back(seconds_since(t0));

  const std::int64_t cpu0 = process_cpu_ns() - gauge.spent_ns();
  const std::int64_t wall0 = clock.wall_ns();
  Window win = cluster->sim ? drive_sim(*cluster, book, w, arrivals, gauge, gen)
                            : drive_real(*cluster, book, w, clock, gauge, gen);
  win.wall_start = wall0;
  win.wall_end = clock.wall_ns();
  const std::int64_t cpu_ns = process_cpu_ns() - gauge.spent_ns() - cpu0;
  cluster->stop();
  RunResult out;
  out.violations = check(*cluster, book);
  const double to_ref = gauge.to_ref();
  end_to_end(book, win, cpu_ns, to_ref, cluster->sim != nullptr, out);
  std::sort(setup_s.begin(), setup_s.end());
  out.metrics.emplace_back("setup_s", setup_s[setup_s.size() / 2] * to_ref);
  out.metrics.emplace_back("calib.speed", gauge.speed());
  if (spec.traced) {
    per_layer(probes, book, win, read_counters(*cluster, cs.wal_dir), cluster->sim != nullptr, out);
    std::string file = w.name;
    if (spec.variant == Variant::kSingleNode) file += ".n1";
    if (spec.variant == Variant::kNoWal) file += ".nowal";
    write_spans(spec.trace_dir / (file + ".spans.jsonl"), probes);
  }
  cluster.reset();
  if (wal) std::filesystem::remove_all(spec.work_dir);
  return out;
}

}  // namespace bench
