#pragma once
// Simulation runtime: one Host implementation of the transport-neutral
// runtime API (runtime/host.hpp). Hosts N protocol nodes, routes messages
// through the partial-synchrony Network, provides timers, and records a
// Trace -- the verification tool of record for every protocol in the repo.
//
// Protocol implementations derive from runtime::ProtocolNode and interact
// with the world exclusively through their runtime::Host; they compile
// without any simulator header, so the identical node binary also runs
// under the real-time LocalRunner (runtime/local_runner.hpp) or a future
// socket-backed deployment.
//
// Hot-path design (DESIGN_PERF.md): sends and broadcasts move ref-counted
// Payloads, so an n-way broadcast performs one encode and zero payload
// copies; deliveries and timers are typed events dispatched without heap
// allocation; timer cancellation uses generation-counted slots, so timer
// bookkeeping is bounded by the peak number of concurrently-armed timers.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/commit_log.hpp"
#include "runtime/host.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace tbft::sim {

// Simulation-side spellings of the runtime API. NodeContext is the historic
// name for the services a simulated node sees; it *is* the transport-neutral
// Host now.
using NodeContext = runtime::Host;
using runtime::CommitLog;
using runtime::CommitSink;
using runtime::ProtocolNode;

struct SimConfig {
  NetworkConfig net{};
  std::uint64_t seed{1};
  /// Fold every send into the Trace digest. When false, sends are still
  /// counted, but the digest covers commits only. Neither setting keeps a
  /// per-message record.
  bool keep_message_trace{true};
};

class Simulation final : public EventSink {
 public:
  explicit Simulation(SimConfig cfg);
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Nodes must be added before start() in NodeId order (id = index).
  /// Throws std::logic_error if a client actor was already added: client ids
  /// continue after the protocol nodes, so a later add_node would silently
  /// renumber every client out from under NodeContext::n().
  NodeId add_node(std::unique_ptr<ProtocolNode> node);

  /// Client actors (workload generators, observers): simulation participants
  /// outside the protocol membership. They share the context machinery --
  /// timers, deterministic per-actor RNG, sends -- but are not broadcast
  /// recipients and do not count toward n(). Their ids continue after the
  /// protocol nodes, so add every protocol node first.
  NodeId add_client(std::unique_ptr<ProtocolNode> client);

  /// Subscribe `sink` to every commit any node publishes (in addition to
  /// the Trace, which folds every commit into its digest). Sinks are invoked
  /// synchronously inside the publishing node's event, in subscription
  /// order; subscribing does not perturb the Trace or the event schedule,
  /// so a run's trace digest is independent of its sinks.
  void add_commit_sink(runtime::CommitSink& sink) { commit_sinks_.push_back(&sink); }

  /// Calls on_start on every node (at time 0 unless the clock advanced).
  void start();

  // --- Node churn (chaos harness) -------------------------------------------
  /// Crash a protocol node mid-run: its pending timers die with it (stale
  /// incarnation), deliveries addressed to it are dropped while it is down,
  /// and no event reaches the dead instance again. Call between events
  /// (outside handlers), while running.
  void crash_node(NodeId id);
  /// Replace a crashed node with a fresh instance bound to the same id and
  /// context (typically rebuilt through the src/storage/ recovery path),
  /// then run its on_start. Deliveries resume; messages sent while it was
  /// down stay lost, like a rebooted process's sockets.
  void restart_node(NodeId id, std::unique_ptr<ProtocolNode> fresh);
  [[nodiscard]] bool is_crashed(NodeId id) const { return status_.at(id).crashed; }

  void run_until(SimTime deadline);
  /// Run until `pred()` holds, checking after each event; returns true if the
  /// predicate held before `deadline`.
  bool run_until_pred(const std::function<bool()>& pred, SimTime deadline);
  /// Drain all events (stops at deadline as a safety net).
  void run_to_quiescence(SimTime deadline = 3600 * kSecond);

  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] ProtocolNode& node(NodeId id) { return *nodes_.at(id); }

  template <class T>
  [[nodiscard]] T& node_as(NodeId id) {
    return dynamic_cast<T&>(*nodes_.at(id));
  }

  // --- Timer bookkeeping diagnostics (bounded-storage regression tests) ---
  /// Total timer slots ever allocated == peak number of concurrently armed
  /// timers (slots are recycled through a free list; cancelling or firing a
  /// timer returns its slot).
  [[nodiscard]] std::size_t timer_slot_count() const noexcept { return timer_slots_.size(); }
  [[nodiscard]] std::size_t armed_timer_count() const noexcept {
    return timer_slots_.size() - free_timer_slots_.size();
  }

  // EventSink (called by the queue; not for external use).
  void on_deliver_event(NodeId src, NodeId dst, const Payload& payload) override;
  void on_timer_event(NodeId node, TimerId id) override;

 private:
  class Context;

  /// Generation-counted timer slot: a TimerId is (generation << 32 | slot+1);
  /// cancelling bumps the generation, so a stale heap entry is filtered on
  /// firing with no per-cancel storage (replaces the old unbounded
  /// cancelled-id set). The owning node travels in the queue event.
  struct TimerSlot {
    std::uint32_t generation{0};
    bool armed{false};
    /// Who armed it, in which life: a crash bumps the owner's incarnation,
    /// so timers armed by a dead instance are filtered on firing and never
    /// reach its replacement.
    NodeId owner{0};
    std::uint32_t owner_incarnation{0};
  };

  /// Liveness bookkeeping per actor (protocol nodes and clients share the
  /// id space; churn only ever targets protocol nodes).
  struct ActorStatus {
    bool crashed{false};
    std::uint32_t incarnation{0};
  };

  void dispatch_send(NodeId src, NodeId dst, Payload payload);
  void publish_commit(NodeId node, std::uint64_t stream, Value value,
                      std::span<const std::uint8_t> payload);
  TimerId arm_timer(NodeId node, SimTime delay);
  void disarm_timer(TimerId id);
  /// Resolve a protocol node (id < node_count) or client actor (id beyond).
  [[nodiscard]] ProtocolNode& actor(NodeId id);

  static constexpr TimerId make_timer_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<TimerId>(gen) << 32) | (slot + 1);
  }
  static constexpr std::uint32_t timer_slot_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t timer_gen_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  SimConfig cfg_;
  EventQueue queue_;
  Network network_;
  Trace trace_{cfg_.keep_message_trace};
  MetricsRegistry metrics_;
  Rng rng_;
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;
  std::vector<std::unique_ptr<ProtocolNode>> clients_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<ActorStatus> status_;
  std::vector<runtime::CommitSink*> commit_sinks_;
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> free_timer_slots_;
  bool started_{false};
};

}  // namespace tbft::sim
