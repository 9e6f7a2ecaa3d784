#pragma once
// Load generators: client actors (sim::Simulation::add_client) that submit
// uniquely tagged requests over a configurable window.
//
//  - OpenLoopClient: arrivals at a fixed rate, Poisson (exponential
//    interarrival) or constant spacing, optionally modulated into bursts.
//    Arrivals never wait for completions -- overload shows up as mempool
//    backpressure (rejected submissions), not reduced offered load.
//  - ClosedLoopClient: keeps exactly k requests outstanding; each commit
//    (learned through the tracker's completion listener) immediately funds
//    the next submission. Offered load adapts to system speed.
//
// Clients submit through SubmitPort -- the facade boundary (tetrabft.hpp)
// -- never into MultishotNode internals: every simulated load run (the
// scenario rig, the chaos engine, the facade) hands them shard::RoutedPorts
// in front of its replicas, wired by add_clients (workload/scenarios.hpp).
//
// Client-side retry (models real client libraries): with
// ClientConfig::retry_timeout set, a client re-submits an admitted-but-
// uncommitted request to the *next* replica once the timeout elapses --
// the recovery path when the original replica crashed (or was isolated)
// after admitting but before relaying. Retries carry the same tag, so the
// tracker's exactly-once accounting absorbs the duplicate submission (and
// any double-commit the duplicate could cause is attributed to retries,
// see WorkloadTracker).
//
// All randomness comes from the actor's deterministic per-node RNG, so a
// loaded run stays a pure function of seed + config.

#include <cstdint>
#include <map>
#include <vector>

#include "runtime/host.hpp"

namespace tbft::workload {

class WorkloadTracker;

/// Transport-agnostic submission target: one consensus replica as a client
/// sees it. Implemented by shard::RoutedPort, which routes each request by
/// key to its home shard's instance (tetrabft.hpp's Cluster::port, the
/// scenario rig, the chaos engine); a remote client would implement it over
/// a client connection. Returns mempool admission.
class SubmitPort {
 public:
  virtual ~SubmitPort() = default;
  virtual bool submit(std::vector<std::uint8_t> tx) = 0;
};

struct ClientConfig {
  /// Tag namespace; unique per generator within a run.
  std::uint32_t client_id{0};
  /// Encoded request size (>= kRequestHeaderBytes).
  std::uint32_t request_bytes{64};
  /// Submission window [start, stop): no submissions at or after `stop`.
  runtime::Time start{0};
  runtime::Time stop{1 * runtime::kSecond};
  /// When > 0, re-submit an admitted request to the next replica if it has
  /// not committed within this long (0 = no client-side retry). Retrying
  /// continues past `stop` until the request commits: rescuing stranded
  /// requests is exactly the drain phase's job.
  runtime::Duration retry_timeout{0};
};

struct OpenLoopConfig {
  ClientConfig base;
  double rate_per_sec{1000.0};
  bool poisson{true};
  /// Burst modulation: while burst_period > 0 and the phase within each
  /// period is below `burst_duty`, the rate is multiplied by
  /// `burst_multiplier` (1.0 = no modulation).
  runtime::Duration burst_period{0};
  double burst_duty{0.5};
  double burst_multiplier{1.0};
};

struct ClosedLoopConfig {
  ClientConfig base;
  /// Requests kept outstanding (the closed loop's k).
  std::uint32_t outstanding{4};
  /// Backoff before retrying a submission the mempool rejected.
  runtime::Duration retry_delay{1 * runtime::kMillisecond};
};

/// Shared submission plumbing: request encoding, round-robin target
/// selection, tracker accounting, and the client-side retry book.
class LoadClient : public runtime::ProtocolNode {
 public:
  LoadClient(ClientConfig cfg, std::vector<SubmitPort*> targets, WorkloadTracker& tracker);

  void on_message(NodeId, const Payload&) override {}
  /// Intercepts the retry timer; everything else goes to on_client_timer.
  void on_timer(runtime::TimerId id) final;

  [[nodiscard]] std::uint32_t client_id() const noexcept { return cfg_.client_id; }
  [[nodiscard]] std::uint32_t submissions() const noexcept { return seq_; }
  [[nodiscard]] std::uint32_t retries() const noexcept { return retries_; }

 protected:
  /// Subclass timers (arrival schedules, replenishment).
  virtual void on_client_timer(runtime::TimerId id) = 0;
  /// Called once per committed request of this client (tracker listener);
  /// overrides must call the base (it settles the retry book).
  virtual void on_committed(std::uint64_t tag);

  /// Submit one fresh request to the next target; returns admission.
  bool submit_one();
  [[nodiscard]] bool window_open() const {
    return ctx().now() >= cfg_.start && ctx().now() < cfg_.stop;
  }

  ClientConfig cfg_;
  WorkloadTracker& tracker_;

 private:
  struct PendingRetry {
    std::uint32_t seq{0};
    std::size_t target{0};  // index of the last replica this request went to
    runtime::Time deadline{0};
  };

  /// Arm the retry timer for the earliest outstanding deadline, if idle.
  void arm_retry_timer();
  /// Re-submit every overdue outstanding request to its next replica.
  void run_retries();

  std::vector<SubmitPort*> targets_;
  std::uint32_t seq_{0};
  std::size_t next_target_{0};
  std::uint32_t retries_{0};
  std::map<std::uint64_t, PendingRetry> outstanding_;  // retry book (retry_timeout > 0)
  runtime::TimerId retry_timer_{0};
};

class OpenLoopClient final : public LoadClient {
 public:
  OpenLoopClient(OpenLoopConfig cfg, std::vector<SubmitPort*> targets,
                 WorkloadTracker& tracker);

  void on_start() override;

 protected:
  void on_client_timer(runtime::TimerId) override;

 private:
  [[nodiscard]] runtime::Duration interarrival();
  [[nodiscard]] double current_rate() const;

  OpenLoopConfig ol_;
};

class ClosedLoopClient final : public LoadClient {
 public:
  ClosedLoopClient(ClosedLoopConfig cfg, std::vector<SubmitPort*> targets,
                   WorkloadTracker& tracker);

  void on_start() override;

 protected:
  void on_client_timer(runtime::TimerId) override;
  void on_committed(std::uint64_t tag) override;

 private:
  ClosedLoopConfig cl_;
  /// Submissions owed (initial k, commits to replace, rejected retries).
  std::uint32_t pending_{0};
};

}  // namespace tbft::workload
