#pragma once
// SocketHost: a TCP-backed Host (runtime/host.hpp) -- one node of a
// TetraBFT cluster running as its own process (or its own thread
// in-process), speaking the length-prefixed frame protocol of net/frame.hpp
// to n-1 peers named by a static cluster config.
//
// This is the third Host implementation after the Simulation and the
// LocalRunner, and the one that takes the identical ProtocolNode binaries
// out of shared memory: a kData frame's payload is exactly the serde bytes
// a Payload carries in-process, so the consensus cores cannot tell the
// transports apart (tests/test_socket_equivalence.cpp proves it).
//
// Threading model (one thread per host): a single poll loop owns the
// sockets, the timer wheel and the ProtocolNode. Each pass
//   1. fires due timers (sustained arrivals must not starve view timers --
//      the LocalRunner's rule),
//   2. runs post()ed calls,
//   3. delivers self-sends,
//   4. gather-writes every peer queue,
//   5. sleeps in ppoll until the IO deadline or the wheel's next deadline
//      (µs resolution, so timers keep the precision of a condvar wait),
//   6. decodes received frames and hands kData payloads to on_message
//      inline, a bounded number of reads per connection per pass so a
//      flooding peer cannot hold off timers or posted calls.
// Handlers therefore run strictly serialized on the loop thread, which is
// the only thread that touches the node, its metrics() and rng(), the
// wheel, the peer queues and the sockets. Other threads reach it through
// post() alone: a mutex-guarded call list plus a self-pipe, written at
// most once per pass (an atomic pending flag coalesces the wakeups).
//
// Connection management, from the static cluster config:
//  - deterministic topology: the HIGHER NodeId dials the lower, so every
//    unordered pair has exactly one TCP connection and simultaneous-dial
//    races cannot happen;
//  - both ends send a Hello frame (magic, wire version, claimed id, n);
//    data frames flow only after hellos complete in both directions, and a
//    hello that fails validation (bad magic/version/shape, an id out of
//    range, a dial from the wrong direction) drops the connection and
//    counts it -- junk floods from strangers never reach the node;
//  - a dropped connection re-dials with capped exponential backoff
//    (backoff_delay below); the attempt counter resets on a completed
//    handshake. The acceptor side just waits for the redial, and a fresh
//    hello for an already-connected peer replaces the old socket (the
//    peer restarted; the old fd is half-open garbage);
//  - half-open detection: after `ping_after` of rx silence the host sends
//    a kPing; a peer silent for `drop_after` is dropped (TCP alone
//    can leave a dead peer's connection ESTABLISHED forever);
//  - outbound queues are bounded (`max_queue` payloads per peer): a slow
//    or dead peer costs dropped-and-counted payloads, never unbounded
//    memory. Queues persist across reconnects, and a frame leaves its
//    queue only once fully written: a connection keeps just a byte offset
//    into the head frame, so a frame cut off by a dead connection is sent
//    whole on the next one -- the peer cannot have decoded it, so no
//    duplicates and no silent loss of the head-of-line message.
//
// Hot path: broadcast bumps the Payload refcount once per peer queue; each
// pass writes a peer's queue with one sendmsg per (up to) 32 frames,
// gathering headers and payloads straight from the shared buffers. One
// encode, zero copies and no thread handoff on the tx side; one adopted
// vector per frame on the rx side.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/host.hpp"
#include "runtime/time.hpp"
#include "runtime/timer_wheel.hpp"

namespace tbft::runtime {

struct SocketHostConfig {
  NodeId id{0};
  std::uint32_t n{0};
  /// Per-node Rng derivation matches the Simulation and the LocalRunner:
  /// the root Rng(seed) is forked id+1 times and the last fork is this
  /// node's -- so a node's random choices agree across all three hosts.
  std::uint64_t seed{1};

  /// Where this node listens. Port 0 binds an ephemeral port; the real
  /// port (port()) must then be distributed to peers before start().
  net::Endpoint listen{};
  /// Peer listen endpoints, indexed by NodeId (own entry ignored). May be
  /// patched after construction with set_peer_endpoint, before start().
  std::vector<net::Endpoint> peers;

  Duration backoff_base{10 * kMillisecond};  ///< first redial delay
  Duration backoff_cap{1 * kSecond};         ///< redial delay ceiling
  /// Fraction of each redial delay spread (seeded, uniform, mean-preserving)
  /// around the deterministic value: decorrelates reconnect storms when a
  /// restarted peer faces the whole cluster's dialers at once. 0 = none.
  double backoff_jitter{0.1};
  Duration ping_after{500 * kMillisecond};   ///< rx silence before a kPing
  Duration drop_after{2 * kSecond};          ///< rx silence before dropping
  std::size_t max_queue{4096};               ///< outbound payloads per peer
  std::size_t max_frame_bytes{1u << 20};     ///< rx frame payload limit
};

/// Transport counters, updated by the loop thread; readable from anywhere
/// (including tests and benches while the host runs). Kept separate from
/// the per-node MetricsRegistry, which is loop-thread-only by contract.
struct NetStats {
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> dials{0};            ///< connect attempts started
  std::atomic<std::uint64_t> accepts{0};          ///< connections accepted
  std::atomic<std::uint64_t> handshakes{0};       ///< hellos completed (both ways)
  std::atomic<std::uint64_t> conns_dropped{0};    ///< established conns lost
  std::atomic<std::uint64_t> queue_dropped{0};    ///< payloads dropped at full queues
  std::atomic<std::uint64_t> rejected_hello{0};   ///< invalid handshakes dropped
  std::atomic<std::uint64_t> rx_oversize{0};      ///< lying length prefixes (conn dropped)
  std::atomic<std::uint64_t> rx_unknown{0};       ///< unknown-kind frames skipped
  std::atomic<std::uint64_t> rx_truncated{0};     ///< partial frames at stream end
  std::atomic<std::uint64_t> rx_junk{0};          ///< protocol-order violations
  std::atomic<std::uint64_t> sendmsg_calls{0};    ///< write syscalls (data + control)
  std::atomic<std::uint64_t> recv_calls{0};       ///< read syscalls
  std::atomic<std::uint64_t> loop_wakeups{0};     ///< ppoll returns (one per loop pass)
};

/// The redial delay after `attempt` consecutive failures: base << attempt,
/// saturating at `cap`. Pure so the backoff policy is unit-testable.
[[nodiscard]] constexpr Duration backoff_delay(std::uint32_t attempt, Duration base,
                                               Duration cap) noexcept {
  if (base <= 0) return 0;
  for (std::uint32_t i = 0; i < attempt; ++i) {
    base <<= 1;
    if (base >= cap || base <= 0) return cap;
  }
  return base < cap ? base : cap;
}

/// backoff_delay with a mean-preserving uniform spread of `jitter_frac`
/// around it, drawn from `rng`: delay in [d - s/2, d + s/2] for
/// s = d * jitter_frac. Pure given the Rng state, so the jittered policy
/// stays unit-testable and a seeded run stays reproducible.
[[nodiscard]] Duration jittered_backoff(std::uint32_t attempt, Duration base, Duration cap,
                                        double jitter_frac, Rng& rng) noexcept;

class SocketHost final : public Host {
 public:
  /// Binds the listener immediately (so port() is known before start() and
  /// ephemeral ports can be exchanged), but dials nothing until start().
  /// Aborts on an unbindable listen endpoint.
  SocketHost(SocketHostConfig cfg, std::unique_ptr<ProtocolNode> node);
  ~SocketHost() override;  // stops and joins if still running

  SocketHost(const SocketHost&) = delete;
  SocketHost& operator=(const SocketHost&) = delete;

  /// The actually bound listen port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return listen_port_; }

  /// Patch a peer's endpoint (ephemeral-port exchange). Before start() only.
  void set_peer_endpoint(NodeId peer, net::Endpoint ep);

  /// Subscribe to this node's commits. Before start() only; callbacks run
  /// on the loop thread.
  void add_commit_sink(CommitSink& sink);

  /// Spawn the loop thread: on_start, then timers, calls and frames.
  void start();

  /// Stop the loop thread and join it. Idempotent. After stop() the node
  /// is quiescent and may be inspected from the caller's thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return started_ && !stop_.load(); }

  /// Run `fn` on the loop thread, serialized with the node's handlers (FIFO
  /// among posted calls). Before start() it runs inline on the caller --
  /// the safe window for pre-start seeding (mempool pre-loads).
  void post(std::function<void()> fn);

  /// Direct node access: only from the loop thread (via post) or
  /// while the host is not running.
  [[nodiscard]] ProtocolNode& protocol_node() { return *node_; }
  template <class T>
  [[nodiscard]] T& node_as() {
    return dynamic_cast<T&>(*node_);
  }

  [[nodiscard]] const NetStats& net_stats() const noexcept { return stats_; }

  // Host interface (loop thread only, except id/n/now which are const).
  [[nodiscard]] NodeId id() const override { return cfg_.id; }
  [[nodiscard]] std::uint32_t n() const override { return cfg_.n; }
  [[nodiscard]] Time now() const override;
  void send(NodeId dst, Payload payload) override;
  void broadcast(Payload payload) override;
  TimerId set_timer(Duration delay) override;
  void cancel_timer(TimerId id) override;
  void publish_commit(std::uint64_t stream, Value value,
                      std::span<const std::uint8_t> payload) override;
  MetricsRegistry& metrics() override { return metrics_; }
  Rng& rng() override { return rng_; }

 private:
  struct Conn;       // one TCP connection (defined in socket_host.cpp)
  struct PeerState;  // per-peer queue + redial bookkeeping

  void run();  // the loop thread
  void io_dial(NodeId peer);
  void io_accept_pending();
  void io_handle_readable(Conn& c);
  void io_flush(Conn& c);
  void io_on_frame(Conn& c, net::FrameKind kind, std::vector<std::uint8_t>&& body);
  bool io_on_hello(Conn& c, std::vector<std::uint8_t>&& body);
  void io_send_hello(Conn& c);
  void io_drop_conn(Conn& c, bool established_loss);
  void io_check_liveness(Time now_us);
  [[nodiscard]] Time io_next_deadline(Time now_us) const;
  void io_queue_ctrl(Conn& c, net::FrameKind kind,
                     std::span<const std::uint8_t> payload = {});

  SocketHostConfig cfg_;
  std::unique_ptr<ProtocolNode> node_;
  std::chrono::steady_clock::time_point epoch_;
  MetricsRegistry metrics_;
  Rng rng_{0};     // ProtocolNode::ctx().rng()
  Rng io_rng_{0};  // backoff jitter; derived independently of rng_ so the
                   // node's stream matches the other transports
  NetStats stats_;

  net::Fd listener_;
  std::uint16_t listen_port_{0};
  net::Fd wake_rd_, wake_wr_;  // self-pipe: post()/stop() -> poll loop

  // post()ed calls: the only state other threads write while running.
  std::mutex post_mx_;
  std::vector<std::function<void()>> posted_;  // guarded by post_mx_
  std::atomic<bool> wake_pending_{false};      // a pipe byte is on its way

  // Loop-thread-only state.
  TimerWheel timers_;
  std::vector<Payload> self_inbox_;                // self-sends, next pass
  std::vector<std::unique_ptr<PeerState>> peers_;  // indexed by NodeId
  std::vector<std::unique_ptr<Conn>> conns_;

  std::vector<CommitSink*> commit_sinks_;
  std::mutex commit_mx_;  // sinks are shared across hosts

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_{false};
  bool stopped_{false};
};

}  // namespace tbft::runtime
