// SocketHost transport behavior (ISSUE 7): reconnect with capped backoff
// against a flapping peer, bounded outbound queues that drain across
// reconnects or drop-and-count, junk floods from strangers that never reach
// the node, half-open peers dropped by the ping/pong liveness layer, and
// the one-thread loop: every handler on one thread, gather-writes that
// survive short writes, and a due timer that still fires under a flood.
// The scripted side of each scenario is a raw TCP socket driven by the test
// -- not another SocketHost -- so kills, silences and garbage are exact.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/socket_host.hpp"

namespace tbft::runtime {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

/// Spin-wait (with sleeps) until `pred()` or `timeout_ms` elapses.
bool eventually(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// A node that records every delivered message, thread-safely inspectable.
struct RecorderNode final : ProtocolNode {
  void on_start() override {}
  void on_message(NodeId from, const Payload& payload) override {
    std::lock_guard<std::mutex> lk(mx);
    got.emplace_back(from, std::vector<std::uint8_t>(payload.bytes().begin(),
                                                     payload.bytes().end()));
  }
  void on_timer(TimerId) override {}

  [[nodiscard]] std::size_t count() {
    std::lock_guard<std::mutex> lk(mx);
    return got.size();
  }

  std::mutex mx;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> got;
};

std::vector<std::uint8_t> framed(net::FrameKind kind,
                                 std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(net::kFrameHeaderBytes);
  net::put_frame_header(out.data(), kind, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> hello_frame(NodeId node, std::uint32_t n) {
  serde::Writer w;
  net::Hello h;
  h.node = node;
  h.n = n;
  h.encode(w);
  return framed(net::FrameKind::kHello, w.data());
}

/// The scripted end of a connection: blocking-ish send/recv with poll
/// timeouts plus an incremental frame decoder.
class RawPeer {
 public:
  explicit RawPeer(net::Fd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int get() const { return fd_.get(); }
  void close() { fd_.reset(); }

  bool send_all(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      pollfd p{fd_.get(), POLLOUT, 0};
      if (::poll(&p, 1, 2000) <= 0) return false;
      const ssize_t sent =
          ::send(fd_.get(), bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// Next decoded frame, or nullopt on timeout/close.
  std::optional<std::pair<net::FrameKind, std::vector<std::uint8_t>>> next_frame(
      int timeout_ms = 3000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (!frames_.empty()) {
        auto f = std::move(frames_.front());
        frames_.pop_front();
        return f;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0 || eof_) return std::nullopt;
      pollfd p{fd_.get(), POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) return std::nullopt;
      std::uint8_t buf[4096];
      const ssize_t got = ::recv(fd_.get(), buf, sizeof buf, 0);
      if (got == 0) {
        eof_ = true;
        continue;
      }
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        eof_ = true;
        continue;
      }
      decoder_.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)),
                    [this](net::FrameKind k, std::vector<std::uint8_t>&& body) {
                      frames_.emplace_back(k, std::move(body));
                    });
    }
  }

  /// True once the host closed its end (recv returns 0 within timeout).
  bool wait_eof(int timeout_ms = 3000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!eof_ && std::chrono::steady_clock::now() < deadline) {
      (void)next_frame(50);
    }
    return eof_;
  }

 private:
  net::Fd fd_;
  net::FrameDecoder decoder_;
  std::deque<std::pair<net::FrameKind, std::vector<std::uint8_t>>> frames_;
  bool eof_{false};
};

/// Accept one connection off a (non-blocking) listener, waiting up to 3s.
RawPeer accept_one(int listen_fd) {
  pollfd p{listen_fd, POLLIN, 0};
  if (::poll(&p, 1, 3000) <= 0) return RawPeer(net::Fd{});
  return RawPeer(net::tcp_accept(listen_fd));
}

/// Dial the host's listener, blocking until connected.
RawPeer connect_to(std::uint16_t port) {
  bool in_progress = false;
  std::string err;
  net::Fd fd = net::tcp_dial(net::Endpoint{"127.0.0.1", port}, in_progress, err);
  if (fd.valid() && in_progress) {
    pollfd p{fd.get(), POLLOUT, 0};
    if (::poll(&p, 1, 3000) <= 0 || net::dial_error(fd.get()) != 0) fd.reset();
  }
  return RawPeer(std::move(fd));
}

SocketHostConfig host_cfg(NodeId id, std::uint32_t n) {
  SocketHostConfig cfg;
  cfg.id = id;
  cfg.n = n;
  cfg.seed = 1;
  cfg.backoff_base = 2 * kMillisecond;
  cfg.backoff_cap = 20 * kMillisecond;
  return cfg;
}

// ---- backoff policy --------------------------------------------------------

TEST(SocketHost, BackoffDelayGrowsExponentiallyAndSaturatesAtCap) {
  const Duration base = 10 * kMillisecond;
  const Duration cap = 1 * kSecond;
  EXPECT_EQ(backoff_delay(0, base, cap), base);
  EXPECT_EQ(backoff_delay(1, base, cap), 2 * base);
  EXPECT_EQ(backoff_delay(2, base, cap), 4 * base);
  EXPECT_EQ(backoff_delay(6, base, cap), 640 * kMillisecond);
  EXPECT_EQ(backoff_delay(7, base, cap), cap);  // 1280ms saturates
  // The cap holds forever, including shift counts that would overflow.
  for (const std::uint32_t attempt : {8u, 20u, 63u, 64u, 1000u}) {
    EXPECT_EQ(backoff_delay(attempt, base, cap), cap) << "attempt " << attempt;
  }
  EXPECT_EQ(backoff_delay(0, 0, cap), 0);  // degenerate base clamps safely
}

TEST(SocketHost, JitteredBackoffStaysInsideTheSpreadAndIsSeeded) {
  const Duration base = 10 * kMillisecond;
  const Duration cap = 1 * kSecond;
  // Bounds: each draw lands in [d - d*f/2, d + d*f/2] around the
  // deterministic delay d, and the draws actually spread.
  for (const std::uint32_t attempt : {0u, 1u, 3u, 7u}) {
    const Duration d = backoff_delay(attempt, base, cap);
    const Duration span = static_cast<Duration>(static_cast<double>(d) * 0.5);
    Rng rng(99);
    Duration lo = cap * 2;
    Duration hi = 0;
    for (int i = 0; i < 200; ++i) {
      const Duration j = jittered_backoff(attempt, base, cap, 0.5, rng);
      EXPECT_GE(j, d - span / 2 - 1) << "attempt " << attempt;
      EXPECT_LE(j, d + span / 2 + 1) << "attempt " << attempt;
      lo = std::min(lo, j);
      hi = std::max(hi, j);
    }
    EXPECT_LT(lo, hi) << "attempt " << attempt;  // not a constant
  }
  // Determinism: equal Rng state yields the identical sequence (the seeded
  // transport stays reproducible).
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(jittered_backoff(2, base, cap, 0.25, a),
              jittered_backoff(2, base, cap, 0.25, b));
  }
  // Zero jitter degrades to the pure policy.
  Rng c(1);
  EXPECT_EQ(jittered_backoff(3, base, cap, 0.0, c), backoff_delay(3, base, cap));
}

// ---- two real hosts --------------------------------------------------------

TEST(SocketHost, PairHandshakesAndDeliversBothDirections) {
  auto na = std::make_unique<RecorderNode>();
  auto nb = std::make_unique<RecorderNode>();
  RecorderNode* ra = na.get();
  RecorderNode* rb = nb.get();
  SocketHost a(host_cfg(0, 2), std::move(na));
  SocketHost b(host_cfg(1, 2), std::move(nb));
  a.set_peer_endpoint(1, {"127.0.0.1", b.port()});
  b.set_peer_endpoint(0, {"127.0.0.1", a.port()});
  a.start();
  b.start();

  // Broadcasts reach the peer over TCP and self through the mailbox.
  a.post([&a] { a.broadcast(Payload{1, 2, 3}); });
  b.post([&b] { b.broadcast(Payload{9, 8, 7}); });
  ASSERT_TRUE(eventually([&] { return ra->count() >= 2 && rb->count() >= 2; }))
      << "a=" << ra->count() << " b=" << rb->count();

  a.stop();
  b.stop();
  {
    std::lock_guard<std::mutex> lk(ra->mx);
    // Recorder a saw its own broadcast (src 0) and b's (src 1).
    bool from_self = false, from_peer = false;
    for (const auto& [src, bytes] : ra->got) {
      if (src == 0) from_self = bytes == std::vector<std::uint8_t>({1, 2, 3});
      if (src == 1) from_peer = bytes == std::vector<std::uint8_t>({9, 8, 7});
    }
    EXPECT_TRUE(from_self);
    EXPECT_TRUE(from_peer);
  }
  EXPECT_GE(a.net_stats().handshakes.load(), 1u);
  EXPECT_GE(b.net_stats().handshakes.load(), 1u);
  EXPECT_GE(a.net_stats().frames_rx.load(), 1u);
  EXPECT_GE(a.net_stats().frames_tx.load(), 1u);
  EXPECT_EQ(a.net_stats().queue_dropped.load(), 0u);
  EXPECT_EQ(a.net_stats().rejected_hello.load(), 0u);
}

// ---- flapping peer ---------------------------------------------------------

TEST(SocketHost, FlappingPeerReconnectsAndQueuedPayloadsDrain) {
  // The host under test is node 1 of n=2: it dials node 0, which the test
  // plays by hand on a raw listener -- handshake, take some frames, die
  // mid-run, come back, and expect the backlog to drain on the new socket.
  std::string err;
  net::Fd listener = net::tcp_listen({"127.0.0.1", 0}, 8, err);
  ASSERT_TRUE(listener.valid()) << err;
  const std::uint16_t peer_port = net::local_port(listener.get());

  auto node = std::make_unique<RecorderNode>();
  SocketHostConfig cfg = host_cfg(1, 2);
  cfg.ping_after = 2 * kSecond;  // liveness out of the way: the test kills
  cfg.drop_after = 10 * kSecond;
  SocketHost host(cfg, std::move(node));
  host.set_peer_endpoint(0, {"127.0.0.1", peer_port});
  host.start();

  const auto payload_for = [](std::uint8_t i) {
    return std::vector<std::uint8_t>{0xD0, i, static_cast<std::uint8_t>(i * 3)};
  };
  const auto submit = [&](std::uint8_t i) {
    host.post([&host, p = Payload(payload_for(i))]() mutable { host.send(0, std::move(p)); });
  };

  // --- connection #1: handshake, receive a first batch, then die ------------
  RawPeer conn1 = accept_one(listener.get());
  ASSERT_TRUE(conn1.valid());
  auto hello = conn1.next_frame();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->first, net::FrameKind::kHello);
  ASSERT_TRUE(conn1.send_all(hello_frame(/*node=*/0, /*n=*/2)));

  for (std::uint8_t i = 0; i < 5; ++i) submit(i);
  for (std::uint8_t i = 0; i < 5; ++i) {
    auto f = conn1.next_frame();
    ASSERT_TRUE(f.has_value()) << "frame " << int(i) << " on conn1";
    EXPECT_EQ(f->first, net::FrameKind::kData);
    EXPECT_EQ(f->second, payload_for(i));
  }
  EXPECT_EQ(host.net_stats().handshakes.load(), 1u);
  conn1.close();  // the peer dies mid-run

  // --- while down: sends queue up (bounded), host re-dials with backoff -----
  // Wait for the host to OBSERVE the death first: a frame submitted in the
  // close-to-EOF-detection window can be written into the dead socket's
  // kernel buffer and lost (TCP accepts until the RST lands) -- real
  // sent-but-undelivered loss the protocol layer tolerates, but this test
  // is about the queue-while-down path, so make "down" unambiguous.
  ASSERT_TRUE(eventually([&] { return host.net_stats().conns_dropped.load() >= 1; }));
  for (std::uint8_t i = 5; i < 10; ++i) submit(i);

  // --- connection #2: re-accept, re-handshake, backlog drains ---------------
  RawPeer conn2 = accept_one(listener.get());
  ASSERT_TRUE(conn2.valid()) << "host did not redial after the peer died";
  auto hello2 = conn2.next_frame();
  ASSERT_TRUE(hello2.has_value());
  ASSERT_EQ(hello2->first, net::FrameKind::kHello);
  ASSERT_TRUE(conn2.send_all(hello_frame(0, 2)));
  for (std::uint8_t i = 5; i < 10; ++i) {
    auto f = conn2.next_frame();
    ASSERT_TRUE(f.has_value()) << "queued frame " << int(i) << " did not drain";
    EXPECT_EQ(f->first, net::FrameKind::kData);
    EXPECT_EQ(f->second, payload_for(i));
  }

  host.stop();
  const NetStats& s = host.net_stats();
  EXPECT_GE(s.dials.load(), 2u);       // original + at least one redial
  EXPECT_EQ(s.handshakes.load(), 2u);  // both connections completed hellos
  EXPECT_GE(s.conns_dropped.load(), 1u);
  // Everything either drained over a socket or was counted -- and with a
  // roomy queue, nothing needed dropping.
  EXPECT_EQ(s.queue_dropped.load(), 0u);
  EXPECT_EQ(s.frames_tx.load(), 10u);
}

TEST(SocketHost, FullOutboundQueueDropsNewestAndCounts) {
  // Peer 0's port is bound, then closed: every dial fails, the connection
  // never exists, and the bounded queue must do its job.
  std::uint16_t dead_port = 0;
  {
    std::string err;
    net::Fd tmp = net::tcp_listen({"127.0.0.1", 0}, 1, err);
    ASSERT_TRUE(tmp.valid()) << err;
    dead_port = net::local_port(tmp.get());
  }  // closed here

  auto node = std::make_unique<RecorderNode>();
  SocketHostConfig cfg = host_cfg(1, 2);
  cfg.max_queue = 4;
  SocketHost host(cfg, std::move(node));
  host.set_peer_endpoint(0, {"127.0.0.1", dead_port});
  host.start();
  for (std::uint8_t i = 0; i < 10; ++i) {
    host.post([&host, i] { host.send(0, Payload{0xBB, i}); });
  }
  ASSERT_TRUE(eventually([&] { return host.net_stats().queue_dropped.load() >= 6; }));
  host.stop();
  EXPECT_EQ(host.net_stats().queue_dropped.load(), 6u);  // 10 sent, 4 buffered
  EXPECT_EQ(host.net_stats().frames_tx.load(), 0u);
  EXPECT_GE(host.net_stats().dials.load(), 1u);
}

// ---- strangers and junk ----------------------------------------------------

TEST(SocketHost, GarbageAndInvalidHellosAreCountedAndDropped) {
  auto node = std::make_unique<RecorderNode>();
  RecorderNode* rec = node.get();
  SocketHost host(host_cfg(0, 2), std::move(node));  // node 0 listens for node 1
  host.start();

  // 1) Raw garbage: pseudo-random bytes, no valid framing. The stream either
  //    poisons (oversize) or yields frames that fail hello validation.
  {
    RawPeer junk = connect_to(host.port());
    ASSERT_TRUE(junk.valid());
    std::vector<std::uint8_t> garbage(8192);
    std::uint64_t x = 0xDEADBEEFCAFEF00DULL;
    for (auto& b : garbage) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
    junk.send_all(garbage);
    EXPECT_TRUE(junk.wait_eof()) << "host kept a garbage connection open";
  }

  // 2) A well-framed hello claiming an out-of-range id.
  {
    RawPeer liar = connect_to(host.port());
    ASSERT_TRUE(liar.valid());
    liar.send_all(hello_frame(/*node=*/7, /*n=*/2));
    EXPECT_TRUE(liar.wait_eof());
  }

  // 3) A hello claiming the host's own id (wrong direction / impersonation).
  {
    RawPeer self = connect_to(host.port());
    ASSERT_TRUE(self.valid());
    self.send_all(hello_frame(/*node=*/0, /*n=*/2));
    EXPECT_TRUE(self.wait_eof());
  }

  // 4) Data before the handshake completes: protocol violation.
  {
    RawPeer eager = connect_to(host.port());
    ASSERT_TRUE(eager.valid());
    eager.send_all(framed(net::FrameKind::kData, std::vector<std::uint8_t>{1, 2}));
    EXPECT_TRUE(eager.wait_eof());
  }

  const NetStats& s = host.net_stats();
  ASSERT_TRUE(eventually([&] {
    return s.rejected_hello.load() + s.rx_junk.load() + s.rx_oversize.load() +
               s.rx_unknown.load() >=
           3;
  }));
  EXPECT_GE(s.rejected_hello.load(), 2u);  // the liar and the impersonator
  EXPECT_EQ(rec->count(), 0u);             // nothing ever reached the node

  // 5) After all that abuse, an honest peer still connects and delivers.
  {
    RawPeer honest = connect_to(host.port());
    ASSERT_TRUE(honest.valid());
    ASSERT_TRUE(honest.send_all(hello_frame(/*node=*/1, /*n=*/2)));
    auto reply = honest.next_frame();
    ASSERT_TRUE(reply.has_value()) << "host did not answer an honest hello";
    EXPECT_EQ(reply->first, net::FrameKind::kHello);
    honest.send_all(framed(net::FrameKind::kData, std::vector<std::uint8_t>{42}));
    ASSERT_TRUE(eventually([&] { return rec->count() == 1; }));
  }
  host.stop();
  EXPECT_EQ(host.net_stats().handshakes.load(), 1u);
}

// ---- half-open detection ---------------------------------------------------

TEST(SocketHost, SilentPeerIsPingedThenDropped) {
  auto node = std::make_unique<RecorderNode>();
  SocketHostConfig cfg = host_cfg(0, 2);
  cfg.ping_after = 50 * kMillisecond;
  cfg.drop_after = 250 * kMillisecond;
  SocketHost host(cfg, std::move(node));
  host.start();

  RawPeer peer = connect_to(host.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(hello_frame(/*node=*/1, /*n=*/2)));
  auto reply = peer.next_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->first, net::FrameKind::kHello);

  // Stay silent: the host must probe with a ping...
  auto probe = peer.next_frame(2000);
  ASSERT_TRUE(probe.has_value()) << "no liveness probe after rx silence";
  EXPECT_EQ(probe->first, net::FrameKind::kPing);
  // ...and, unanswered, drop the connection as half-open.
  EXPECT_TRUE(peer.wait_eof(3000)) << "silent peer was never dropped";
  ASSERT_TRUE(eventually([&] { return host.net_stats().conns_dropped.load() >= 1; }));
  host.stop();
}

// A peer that DOES answer pings stays connected across an idle stretch.
TEST(SocketHost, PongKeepsAnIdleConnectionAlive) {
  auto node = std::make_unique<RecorderNode>();
  RecorderNode* rec = node.get();
  SocketHostConfig cfg = host_cfg(0, 2);
  cfg.ping_after = 40 * kMillisecond;
  cfg.drop_after = 400 * kMillisecond;
  SocketHost host(cfg, std::move(node));
  host.start();

  RawPeer peer = connect_to(host.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(hello_frame(1, 2)));
  ASSERT_TRUE(peer.next_frame().has_value());  // host's hello

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < deadline) {
    auto f = peer.next_frame(100);
    if (f && f->first == net::FrameKind::kPing) {
      ASSERT_TRUE(peer.send_all(framed(net::FrameKind::kPong, {})));
    }
  }
  EXPECT_EQ(host.net_stats().conns_dropped.load(), 0u);
  // Still alive: a data frame sent now is delivered.
  peer.send_all(framed(net::FrameKind::kData, std::vector<std::uint8_t>{5, 5}));
  EXPECT_TRUE(eventually([&] { return rec->count() == 1; }));
  host.stop();
}

// ---- the loop thread -------------------------------------------------------

std::size_t process_threads() {
  const auto it = std::filesystem::directory_iterator("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(it), end(it)));
}

/// Records the thread every entry point runs on.
struct ThreadProbeNode final : ProtocolNode {
  void on_start() override {
    note("start");
    ctx().set_timer(5 * kMillisecond);
    ctx().broadcast(Payload{7});
  }
  void on_message(NodeId from, const Payload&) override {
    note(from == ctx().id() ? "self" : "peer");
  }
  void on_timer(TimerId) override { note("timer"); }

  void note(const char* what) {
    std::lock_guard<std::mutex> lk(mx);
    seen.emplace_back(what, std::this_thread::get_id());
  }
  [[nodiscard]] std::set<std::string> kinds() {
    std::lock_guard<std::mutex> lk(mx);
    std::set<std::string> out;
    for (const auto& [what, id] : seen) out.insert(what);
    return out;
  }

  std::mutex mx;
  std::vector<std::pair<std::string, std::thread::id>> seen;
};

TEST(SocketHost, OneLoopThreadRunsEveryHandler) {
  auto na = std::make_unique<ThreadProbeNode>();
  auto nb = std::make_unique<ThreadProbeNode>();
  ThreadProbeNode* probe = na.get();
  SocketHost a(host_cfg(0, 2), std::move(na));
  SocketHost b(host_cfg(1, 2), std::move(nb));
  a.set_peer_endpoint(1, {"127.0.0.1", b.port()});
  b.set_peer_endpoint(0, {"127.0.0.1", a.port()});

  const std::size_t before = process_threads();
  a.start();
  EXPECT_EQ(process_threads(), before + 1) << "a SocketHost starts exactly one thread";
  b.start();
  a.post([probe] { probe->note("post"); });
  ASSERT_TRUE(eventually([&] { return probe->kinds().size() == 5; }));
  a.stop();
  b.stop();
  EXPECT_EQ(process_threads(), before);

  const std::set<std::string> want{"start", "self", "peer", "timer", "post"};
  EXPECT_EQ(probe->kinds(), want);
  const std::thread::id loop = probe->seen.front().second;
  EXPECT_NE(loop, std::this_thread::get_id());
  for (const auto& [what, id] : probe->seen) EXPECT_EQ(id, loop) << what;
}

TEST(SocketHost, GatherWritesSurviveShortWritesInOrder) {
  // 2,100 frames posted in one call -- zero-length, small and 64 KiB+,
  // ~8.7 MB in all -- to a raw peer with a tiny receive buffer that reads
  // slowly: the send buffer fills, sendmsg stops short inside a gather,
  // liveness pings queue up meanwhile, and every frame must still arrive
  // whole, once, in order, with the pings only between frames.
  std::string err;
  net::Fd listener = net::tcp_listen({"127.0.0.1", 0}, 8, err);
  ASSERT_TRUE(listener.valid()) << err;
  const int small = 4096;  // inherited by the accepted socket
  ASSERT_EQ(::setsockopt(listener.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof small), 0);

  SocketHostConfig cfg = host_cfg(1, 2);
  cfg.ping_after = 2 * kMillisecond;  // pings interleave with the backlog
  cfg.drop_after = 30 * kSecond;      // the peer is slow on purpose
  SocketHost host(cfg, std::make_unique<RecorderNode>());
  host.set_peer_endpoint(0, {"127.0.0.1", net::local_port(listener.get())});
  host.start();
  RawPeer peer = accept_one(listener.get());
  ASSERT_TRUE(peer.valid());
  auto hello = peer.next_frame();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->first, net::FrameKind::kHello);
  ASSERT_TRUE(peer.send_all(hello_frame(0, 2)));
  ASSERT_TRUE(eventually([&] { return host.net_stats().handshakes.load() == 1; }));

  constexpr std::uint32_t kFrames = 2100;
  const auto payload_for = [](std::uint32_t i) {
    const std::size_t size = i % 20 == 0 ? 80'000 : i % 7 == 0 ? 0 : i % 300;
    std::vector<std::uint8_t> p(size);
    for (std::size_t k = 0; k < size; ++k) p[k] = static_cast<std::uint8_t>(i * 131 + k);
    return p;
  };
  std::size_t wire_bytes = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    wire_bytes += net::kFrameHeaderBytes + payload_for(i).size();
  }
  host.post([&host, &payload_for] {
    for (std::uint32_t i = 0; i < kFrames; ++i) host.send(0, Payload(payload_for(i)));
  });
  std::uint32_t pings = 0;
  for (std::uint32_t i = 0; i < kFrames;) {
    if (i < 300) std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto f = peer.next_frame();
    ASSERT_TRUE(f.has_value()) << "frame " << i;
    if (f->first == net::FrameKind::kPing) {  // between frames, never inside one
      ++pings;
      ASSERT_TRUE(peer.send_all(framed(net::FrameKind::kPong, {})));
      continue;
    }
    ASSERT_EQ(f->first, net::FrameKind::kData) << "frame " << i;
    ASSERT_EQ(f->second, payload_for(i)) << "frame " << i;
    ++i;
  }
  EXPECT_GT(pings, 0u);
  ASSERT_TRUE(eventually([&] { return host.net_stats().frames_tx.load() == kFrames; }));
  host.stop();
  EXPECT_EQ(host.net_stats().queue_dropped.load(), 0u);
  while (auto extra = peer.next_frame(50)) {
    EXPECT_NE(extra->first, net::FrameKind::kData) << "a frame was sent twice";
  }
  // More bytes than the kernel's send-buffer ceiling cannot go out in
  // full gathers alone: the calls beyond the hello and one per 32 frames
  // are the short writes this test is about.
  std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t wmem_min = 0, wmem_default = 0, wmem_max = 0;
  if (wmem >> wmem_min >> wmem_default >> wmem_max && wire_bytes > 2 * wmem_max) {
    EXPECT_GT(host.net_stats().sendmsg_calls.load(), 1 + (kFrames + 31) / 32);
  }
}

/// Arms one 50 ms timer in on_start and counts deliveries until it fires.
struct TimerUnderFloodNode final : ProtocolNode {
  void on_start() override {
    armed_at = std::chrono::steady_clock::now();
    ctx().set_timer(50 * kMillisecond);
  }
  void on_message(NodeId, const Payload&) override {
    if (!fired.load()) delivered_before.fetch_add(1);
  }
  void on_timer(TimerId) override {
    late_us.store(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - armed_at)
                      .count() -
                  50'000);
    fired.store(true);
  }

  std::chrono::steady_clock::time_point armed_at;
  std::atomic<bool> fired{false};
  std::atomic<std::int64_t> late_us{0};
  std::atomic<std::uint64_t> delivered_before{0};
};

TEST(SocketHost, TimerFiresOnTimeWhileAPeerFloods) {
  auto node = std::make_unique<TimerUnderFloodNode>();
  TimerUnderFloodNode* rec = node.get();
  SocketHost host(host_cfg(0, 2), std::move(node));
  host.start();

  RawPeer peer = connect_to(host.port());
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(peer.send_all(hello_frame(1, 2)));
  ASSERT_TRUE(peer.next_frame().has_value());  // host's hello

  // Flood kData junk as fast as the socket takes it, in 64 KiB bursts.
  std::vector<std::uint8_t> burst;
  while (burst.size() < 64 * 1024) {
    const auto f = framed(net::FrameKind::kData, std::vector<std::uint8_t>(24, 0xEE));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  std::atomic<bool> flooding{true};
  std::thread flood([&] {
    while (flooding.load() && peer.send_all(burst)) {
    }
  });
  const bool fired = eventually([&] { return rec->fired.load(); }, 3000);
  flooding.store(false);
  flood.join();
  host.stop();

  ASSERT_TRUE(fired) << "the timer starved behind the flood";
  EXPECT_GT(rec->delivered_before.load(), 0u) << "the flood never reached the node";
  EXPECT_LT(rec->late_us.load(), 250'000) << "timer fired late under the flood";
}

}  // namespace
}  // namespace tbft::runtime
