#include "runtime/socket_host.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <deque>
#include <utility>

#include "common/assert.hpp"
#include "common/serde.hpp"

namespace tbft::runtime {

namespace {
constexpr NodeId kNoPeer = static_cast<NodeId>(-1);
/// Cap on accepted-but-unidentified connections: strangers who never send a
/// valid hello must not exhaust fds. Oldest is evicted on overflow.
constexpr std::size_t kMaxPendingAccepts = 64;
/// Queued data frames gathered into one sendmsg.
constexpr std::size_t kFramesPerWrite = 32;
/// recv calls per connection per loop pass: a flooding peer yields to due
/// timers and posted calls after this many buffers.
constexpr int kReadsPerPass = 4;

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) noexcept {
  counter.fetch_add(by, std::memory_order_relaxed);
}

void write_wake_byte(int fd) noexcept {
  const std::uint8_t b = 1;
  [[maybe_unused]] const auto r = ::write(fd, &b, 1);
}
}  // namespace

// ---- connection state ------------------------------------------------------

/// One TCP connection. Dialed connections know their peer from birth;
/// accepted ones learn it from the hello.
struct SocketHost::Conn {
  net::Fd fd;
  NodeId peer{kNoPeer};
  bool dialed{false};       // we initiated (peer id < ours)
  bool connecting{false};   // non-blocking connect still in flight
  bool hello_sent{false};
  bool hello_received{false};
  bool blocked{false};      // socket buffer full: no writes until POLLOUT
  bool dead{false};         // marked for sweep at the end of the poll pass

  net::FrameDecoder decoder;

  // Write side: control frames (hello/ping/pong) in a flat byte buffer,
  // then the peer's queued data frames, which stay queued until fully
  // written -- head_off counts the head frame's bytes already sent.
  std::vector<std::uint8_t> ctrl;
  std::size_t ctrl_off{0};
  std::size_t head_off{0};

  Time last_rx{0};
  bool ping_outstanding{false};
  std::uint64_t unknown_synced{0};  // decoder dropped_unknown already mirrored

  Conn(net::Fd f, std::size_t max_frame_bytes, Time now)
      : fd(std::move(f)),
        decoder(net::FrameDecoder::Limits{max_frame_bytes}),
        last_rx(now) {}
  [[nodiscard]] bool established() const noexcept {
    return hello_sent && hello_received && !connecting;
  }
};

/// Per-peer outbound queue and redial bookkeeping. The queue outlives
/// connections, so a backlog drains over the next one.
struct SocketHost::PeerState {
  std::deque<Payload> queue;  // at most max_queue; the head may be part-sent
  Conn* conn{nullptr};        // the live connection, if any
  std::uint32_t attempts{0};  // consecutive failed dials
  Time next_dial{0};          // earliest redial time
};

Duration jittered_backoff(std::uint32_t attempt, Duration base, Duration cap,
                          double jitter_frac, Rng& rng) noexcept {
  const Duration d = backoff_delay(attempt, base, cap);
  if (jitter_frac <= 0 || d <= 0) return d;
  const auto span = static_cast<Duration>(static_cast<double>(d) * jitter_frac);
  if (span <= 0) return d;
  const Duration lo = d - span / 2;
  const auto offset =
      static_cast<Duration>(rng.uniform(0, static_cast<std::uint64_t>(span)));
  return lo + offset;
}

// ---- construction / lifecycle ----------------------------------------------

SocketHost::SocketHost(SocketHostConfig cfg, std::unique_ptr<ProtocolNode> node)
    : cfg_(std::move(cfg)),
      node_(std::move(node)),
      epoch_(std::chrono::steady_clock::now()) {
  TBFT_ASSERT_MSG(cfg_.n >= 1 && cfg_.id < cfg_.n, "bad SocketHostConfig id/n");
  if (cfg_.peers.size() < cfg_.n) cfg_.peers.resize(cfg_.n);

  // Same per-node Rng derivation as Simulation / LocalRunner: fork the root
  // id+1 times, keep the last.
  Rng root(cfg_.seed);
  for (NodeId i = 0; i <= cfg_.id; ++i) rng_ = root.fork();
  // The backoff jitter stream is derived from a salted root, NOT forked
  // from rng_: the node's stream must stay identical across all transports.
  Rng io_root(mix64(cfg_.seed) ^ 0x696f'6a69'7474'6572ULL);
  for (NodeId i = 0; i <= cfg_.id; ++i) io_rng_ = io_root.fork();

  std::string err;
  listener_ = net::tcp_listen(cfg_.listen, /*backlog=*/16, err);
  TBFT_ASSERT_MSG(listener_.valid(), "SocketHost: listen failed");
  listen_port_ = net::local_port(listener_.get());

  int pipe_fds[2] = {-1, -1};
  TBFT_ASSERT_MSG(::pipe(pipe_fds) == 0, "SocketHost: pipe failed");
  wake_rd_ = net::Fd(pipe_fds[0]);
  wake_wr_ = net::Fd(pipe_fds[1]);
  net::set_nonblocking(wake_rd_.get());
  net::set_nonblocking(wake_wr_.get());

  peers_.resize(cfg_.n);
  for (auto& p : peers_) p = std::make_unique<PeerState>();

  node_->bind(*this);
}

SocketHost::~SocketHost() { stop(); }

Time SocketHost::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SocketHost::set_peer_endpoint(NodeId peer, net::Endpoint ep) {
  TBFT_ASSERT_MSG(!started_, "set_peer_endpoint after start()");
  cfg_.peers.at(peer) = std::move(ep);
}

void SocketHost::add_commit_sink(CommitSink& sink) {
  TBFT_ASSERT_MSG(!started_, "register commit sinks before start()");
  commit_sinks_.push_back(&sink);
}

void SocketHost::start() {
  TBFT_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void SocketHost::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true);
  write_wake_byte(wake_wr_.get());
  thread_.join();
}

// ---- Host interface (loop thread) ------------------------------------------

void SocketHost::post(std::function<void()> fn) {
  if (!started_) {
    fn();  // no thread yet: caller is the only mutator (pre-start seeding)
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(post_mx_);
    if (stop_.load(std::memory_order_relaxed)) return;
    posted_.push_back(std::move(fn));
    wake = !wake_pending_.exchange(true, std::memory_order_relaxed);
  }
  if (wake) write_wake_byte(wake_wr_.get());  // one pipe byte per loop pass
}

void SocketHost::send(NodeId dst, Payload payload) {
  if (dst == cfg_.id) {
    // Self-sends never touch the network: delivered on the next loop pass,
    // the same semantics as the Simulation and the LocalRunner.
    self_inbox_.push_back(std::move(payload));
    return;
  }
  if (dst >= cfg_.n) return;
  std::deque<Payload>& queue = peers_[dst]->queue;
  if (queue.size() >= cfg_.max_queue) {
    bump(stats_.queue_dropped);
    return;  // bounded queue: drop newest, count, never block the node
  }
  queue.push_back(std::move(payload));
}

void SocketHost::broadcast(Payload payload) {
  // Refcount bumps only: every peer queue shares the same payload bytes.
  for (NodeId dst = 0; dst < cfg_.n; ++dst) {
    if (dst == cfg_.id) continue;
    send(dst, payload);
  }
  send(cfg_.id, std::move(payload));
}

TimerId SocketHost::set_timer(Duration delay) {
  TBFT_ASSERT(delay >= 0);
  return timers_.arm(now() + delay);
}

void SocketHost::cancel_timer(TimerId id) { timers_.cancel(id); }

void SocketHost::publish_commit(std::uint64_t stream, Value value,
                                std::span<const std::uint8_t> payload) {
  const Commit commit{cfg_.id, stream, value, payload, now()};
  std::lock_guard<std::mutex> lk(commit_mx_);
  for (CommitSink* sink : commit_sinks_) sink->on_commit(commit);
}

// ---- sockets (loop thread) -------------------------------------------------

void SocketHost::io_queue_ctrl(Conn& c, net::FrameKind kind,
                               std::span<const std::uint8_t> payload) {
  std::uint8_t hdr[net::kFrameHeaderBytes];
  net::put_frame_header(hdr, kind, static_cast<std::uint32_t>(payload.size()));
  c.ctrl.insert(c.ctrl.end(), hdr, hdr + sizeof hdr);
  c.ctrl.insert(c.ctrl.end(), payload.begin(), payload.end());
}

void SocketHost::io_send_hello(Conn& c) {
  serde::Writer w;
  net::Hello h;
  h.node = cfg_.id;
  h.n = cfg_.n;
  h.encode(w);
  io_queue_ctrl(c, net::FrameKind::kHello, w.data());
  c.hello_sent = true;
}

void SocketHost::io_dial(NodeId peer) {
  PeerState& p = *peers_[peer];
  bump(stats_.dials);
  bool in_progress = false;
  std::string err;
  net::Fd fd = net::tcp_dial(cfg_.peers[peer], in_progress, err);
  if (!fd.valid()) {
    ++p.attempts;
    p.next_dial = now() + jittered_backoff(p.attempts, cfg_.backoff_base,
                                           cfg_.backoff_cap, cfg_.backoff_jitter, io_rng_);
    return;
  }
  auto c = std::make_unique<Conn>(std::move(fd), cfg_.max_frame_bytes, now());
  c->peer = peer;
  c->dialed = true;
  c->connecting = in_progress;
  if (!in_progress) io_send_hello(*c);  // connected immediately (loopback)
  p.conn = c.get();
  conns_.push_back(std::move(c));
}

void SocketHost::io_accept_pending() {
  for (;;) {
    net::Fd fd = net::tcp_accept(listener_.get());
    if (!fd.valid()) return;
    bump(stats_.accepts);
    std::size_t pending = 0;
    Conn* oldest = nullptr;
    for (const auto& c : conns_) {
      if (c->peer == kNoPeer && !c->dead) {
        ++pending;
        if (oldest == nullptr) oldest = c.get();
      }
    }
    if (pending >= kMaxPendingAccepts && oldest != nullptr) {
      // Strangers who never identify themselves must not exhaust fds.
      bump(stats_.rx_junk);
      oldest->dead = true;
    }
    // Identity pending: wait for its hello.
    conns_.push_back(std::make_unique<Conn>(std::move(fd), cfg_.max_frame_bytes, now()));
  }
}

bool SocketHost::io_on_hello(Conn& c, std::vector<std::uint8_t>&& body) {
  serde::Reader r(body);
  const net::Hello h = net::Hello::decode(r);
  const bool shape_ok = r.done() && h.n == cfg_.n && h.node < cfg_.n && h.node != cfg_.id;
  // Direction check: only a higher id dials us, and a dialed peer must
  // identify as the node we dialed.
  const bool direction_ok =
      c.dialed ? (h.node == c.peer) : (shape_ok && h.node > cfg_.id);
  if (!shape_ok || !direction_ok) {
    bump(stats_.rejected_hello);
    return false;
  }
  if (c.hello_received) {
    bump(stats_.rx_junk);  // duplicate hello
    return true;
  }
  c.hello_received = true;

  if (!c.dialed) {
    c.peer = h.node;
    PeerState& p = *peers_[c.peer];
    if (p.conn != nullptr && p.conn != &c) {
      // The peer restarted and redialed: the old socket is half-open
      // garbage. Replace it.
      io_drop_conn(*p.conn, /*established_loss=*/p.conn->established());
    }
    p.conn = &c;
    io_send_hello(c);  // answer with our own
  }
  if (c.established()) {
    bump(stats_.handshakes);
    peers_[c.peer]->attempts = 0;  // completed handshake resets backoff
  }
  return true;
}

void SocketHost::io_on_frame(Conn& c, net::FrameKind kind,
                             std::vector<std::uint8_t>&& body) {
  if (c.dead) return;  // rest of a buffer from a connection being dropped
  switch (kind) {
    case net::FrameKind::kHello:
      if (!io_on_hello(c, std::move(body))) c.dead = true;
      return;
    case net::FrameKind::kPing:
      if (!c.established()) {
        bump(stats_.rx_junk);
        c.dead = true;
        return;
      }
      io_queue_ctrl(c, net::FrameKind::kPong);
      return;
    case net::FrameKind::kPong:
      return;  // last_rx already refreshed by the read itself
    case net::FrameKind::kData:
      if (!c.established()) {
        // Data before the handshake completes is a protocol violation:
        // count it and drop the stranger.
        bump(stats_.rx_junk);
        c.dead = true;
        return;
      }
      bump(stats_.frames_rx);
      // Adopt the frame body (no copy) and deliver inline.
      node_->on_message(c.peer, Payload(std::move(body)));
      return;
  }
}

void SocketHost::io_handle_readable(Conn& c) {
  std::uint8_t buf[64 * 1024];
  for (int reads = 0; reads < kReadsPerPass && !c.dead; ++reads) {
    const ssize_t got = ::recv(c.fd.get(), buf, sizeof buf, 0);
    bump(stats_.recv_calls);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      // Orderly close, or a real error; EAGAIN just means drained.
      if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) c.dead = true;
      return;
    }
    bump(stats_.bytes_rx, static_cast<std::uint64_t>(got));
    c.last_rx = now();
    c.ping_outstanding = false;
    const bool ok = c.decoder.feed(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)),
        [this, &c](net::FrameKind k, std::vector<std::uint8_t>&& body) {
          io_on_frame(c, k, std::move(body));
        });
    const auto& dc = c.decoder.counters();
    if (dc.dropped_unknown > c.unknown_synced) {
      bump(stats_.rx_unknown, dc.dropped_unknown - c.unknown_synced);
      c.unknown_synced = dc.dropped_unknown;
    }
    if (!ok) {
      // Poisoned stream (lying length prefix): cannot resync, drop.
      bump(stats_.rx_oversize);
      c.dead = true;
      return;
    }
    if (static_cast<std::size_t>(got) < sizeof buf) return;  // drained
  }
}

void SocketHost::io_flush(Conn& c) {
  PeerState* p = c.established() ? peers_[c.peer].get() : nullptr;
  std::deque<Payload>* queue = p != nullptr && p->conn == &c ? &p->queue : nullptr;
  for (;;) {
    // Gather in wire order: the rest of a part-sent head frame, control
    // bytes (never inside a data frame: a hello must precede any frame,
    // and pings must not starve behind a deep backlog), then whole frames
    // -- headers and payload bytes straight from the shared buffers.
    iovec iov[2 * kFramesPerWrite + 1];
    std::uint8_t hdr[kFramesPerWrite][net::kFrameHeaderBytes];
    std::size_t iovcnt = 0;
    std::size_t total = 0;
    const auto add = [&](const std::uint8_t* data, std::size_t len) {
      if (len == 0) return;
      iov[iovcnt++] = {const_cast<std::uint8_t*>(data), len};
      total += len;
    };
    const auto add_frame = [&](std::size_t i, std::size_t skip) {
      const Payload& payload = (*queue)[i];
      net::put_frame_header(hdr[i], net::FrameKind::kData,
                            static_cast<std::uint32_t>(payload.size()));
      if (skip < net::kFrameHeaderBytes) add(hdr[i] + skip, net::kFrameHeaderBytes - skip);
      const std::size_t off = skip > net::kFrameHeaderBytes ? skip - net::kFrameHeaderBytes : 0;
      add(payload.bytes().data() + off, payload.size() - off);
    };
    const std::size_t frames = queue != nullptr ? std::min(queue->size(), kFramesPerWrite) : 0;
    std::size_t next = 0;
    if (c.head_off > 0) add_frame(next++, c.head_off);
    add(c.ctrl.data() + c.ctrl_off, c.ctrl.size() - c.ctrl_off);
    for (; next < frames; ++next) add_frame(next, 0);
    if (total == 0) return;

    // sendmsg, not writev: only a socket send can pass MSG_NOSIGNAL, and a
    // peer that closed first must surface as EPIPE here, not kill the
    // process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
    const ssize_t sent = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
    bump(stats_.sendmsg_calls);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        c.blocked = true;
      } else {
        c.dead = true;
      }
      return;
    }
    bump(stats_.bytes_tx, static_cast<std::uint64_t>(sent));

    // Account for the written bytes in the same order they were gathered.
    std::size_t left = static_cast<std::size_t>(sent);
    const auto consume_head = [&] {
      const std::size_t len = net::kFrameHeaderBytes + queue->front().size();
      const std::size_t take = std::min(left, len - c.head_off);
      c.head_off += take;
      left -= take;
      if (c.head_off < len) return;
      queue->pop_front();  // fully written: only now does it leave the queue
      c.head_off = 0;
      bump(stats_.frames_tx);
    };
    if (c.head_off > 0) consume_head();
    const std::size_t ctrl_sent = std::min(left, c.ctrl.size() - c.ctrl_off);
    c.ctrl_off += ctrl_sent;
    left -= ctrl_sent;
    if (c.ctrl_off == c.ctrl.size()) {
      c.ctrl.clear();
      c.ctrl_off = 0;
    }
    while (left > 0) consume_head();
    if (static_cast<std::size_t>(sent) < total) {
      c.blocked = true;  // short write: the socket buffer is full
      return;
    }
  }
}

void SocketHost::io_drop_conn(Conn& c, bool established_loss) {
  if (c.dead && c.fd.get() < 0) return;  // already dropped
  c.dead = true;
  if (established_loss) bump(stats_.conns_dropped);
  c.decoder.finish();
  const auto& dc = c.decoder.counters();
  if (dc.dropped_truncated > 0) bump(stats_.rx_truncated, dc.dropped_truncated);
  if (c.peer != kNoPeer) {
    // A part-sent head frame stays queued: the next connection starts it
    // from byte 0, and the peer cannot have decoded the cut-off copy.
    PeerState& p = *peers_[c.peer];
    if (p.conn == &c) {
      p.conn = nullptr;
      if (c.dialed) {
        ++p.attempts;
        p.next_dial = now() + jittered_backoff(p.attempts, cfg_.backoff_base,
                                               cfg_.backoff_cap, cfg_.backoff_jitter,
                                               io_rng_);
      }
    }
  }
  c.fd.reset();
}

void SocketHost::io_check_liveness(Time now_us) {
  for (auto& cp : conns_) {
    Conn& c = *cp;
    if (c.dead || !c.established()) continue;
    const Time silent = now_us - c.last_rx;
    if (silent >= cfg_.drop_after) {
      // Half-open: TCP would keep this ESTABLISHED forever.
      io_drop_conn(c, /*established_loss=*/true);
    } else if (silent >= cfg_.ping_after && !c.ping_outstanding) {
      io_queue_ctrl(c, net::FrameKind::kPing);
      c.ping_outstanding = true;
    }
  }
}

Time SocketHost::io_next_deadline(Time now_us) const {
  Time next = now_us + 100 * kMillisecond;  // liveness sweep floor
  for (NodeId peer = 0; peer < cfg_.id; ++peer) {
    const PeerState& p = *peers_[peer];
    if (p.conn == nullptr) next = std::min(next, p.next_dial);
  }
  for (const auto& cp : conns_) {
    if (cp->dead || !cp->established()) continue;
    next = std::min(next, cp->last_rx + (cp->ping_outstanding ? cfg_.drop_after
                                                              : cfg_.ping_after));
  }
  return std::max(next, now_us + 1 * kMillisecond);
}

// ---- the loop --------------------------------------------------------------

void SocketHost::run() {
  node_->on_start();

  std::vector<TimerId> fired;
  std::vector<std::function<void()>> calls;
  std::vector<Payload> selfs;
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  while (!stop_.load(std::memory_order_relaxed)) {
    // 1. Due timers first: sustained arrivals must not starve view timers.
    fired.clear();
    timers_.pop_due(now(), fired);
    for (const TimerId id : fired) node_->on_timer(id);

    // 2. post()ed calls. The flag is only a hint here: a call that misses
    //    this pass has written the pipe, so the ppoll below returns.
    if (wake_pending_.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lk(post_mx_);
        calls.swap(posted_);
        wake_pending_.store(false, std::memory_order_relaxed);
      }
      for (auto& fn : calls) fn();
      calls.clear();
    }

    // 3. Self-sends (those queued while delivering wait for the next pass).
    selfs.swap(self_inbox_);
    for (const Payload& payload : selfs) node_->on_message(cfg_.id, payload);
    selfs.clear();

    // Redial lower peers whose backoff has expired (higher id dials lower).
    const Time t = now();
    for (NodeId peer = 0; peer < cfg_.id; ++peer) {
      PeerState& p = *peers_[peer];
      if (p.conn == nullptr && t >= p.next_dial) io_dial(peer);
    }

    // 4. Gather-write every connection that is not waiting for POLLOUT.
    for (auto& cp : conns_) {
      if (!cp->dead && !cp->connecting && !cp->blocked) io_flush(*cp);
    }

    // 5. Sleep until the earlier of the IO deadline and the next timer
    //    (not at all while self-sends wait).
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_rd_.get(), POLLIN, 0});
    pfds.push_back({listener_.get(), POLLIN, 0});
    for (auto& cp : conns_) {
      if (cp->dead) continue;
      short ev = cp->connecting ? 0 : POLLIN;
      if (cp->connecting || cp->blocked) ev |= POLLOUT;
      pfds.push_back({cp->fd.get(), ev, 0});
      polled.push_back(cp.get());
    }
    const Time deadline = self_inbox_.empty()
                              ? std::min(io_next_deadline(t), timers_.next_deadline())
                              : t;
    const Time wait_us = std::max<Time>(deadline - now(), 0);
    const timespec ts{static_cast<std::time_t>(wait_us / kSecond),
                      static_cast<long>(wait_us % kSecond * 1000)};
    const int rc = ::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), &ts, nullptr);
    bump(stats_.loop_wakeups);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

    // 6. Accepts, connect completions, reads -- kData frames reach
    //    on_message inline.
    if (rc > 0) {
      if ((pfds[0].revents & POLLIN) != 0) {
        std::uint8_t drain[256];
        while (::read(wake_rd_.get(), drain, sizeof drain) > 0) {
        }
      }
      if ((pfds[1].revents & POLLIN) != 0) io_accept_pending();
      for (std::size_t i = 0; i < polled.size(); ++i) {
        Conn& c = *polled[i];
        const short re = pfds[i + 2].revents;
        if (c.dead || re == 0) continue;
        if (c.connecting) {
          if (net::dial_error(c.fd.get()) != 0) {
            c.dead = true;
            continue;
          }
          c.connecting = false;
          io_send_hello(c);
          continue;
        }
        if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          // Let the read path consume any final bytes + observe EOF.
          io_handle_readable(c);
          if (!c.dead) io_drop_conn(c, c.established());
          continue;
        }
        if ((re & POLLOUT) != 0) c.blocked = false;
        if ((re & POLLIN) != 0) io_handle_readable(c);
      }
    }

    io_check_liveness(now());

    // Sweep: finalize drops (updates backoff) and erase.
    for (auto& cp : conns_) {
      if (cp->dead) io_drop_conn(*cp, cp->established());
    }
    std::erase_if(conns_, [](const auto& cp) { return cp->dead; });
  }

  // Shutdown: close everything; peers observe EOF and count a drop.
  conns_.clear();
}

}  // namespace tbft::runtime
