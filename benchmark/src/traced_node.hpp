#pragma once
// The benchmark's decorator around each replica. A host runs a TracedNode,
// which forwards every entry point to the real MultishotNode and binds that
// node to a forwarding Host proxy. Under --trace both classes record spans:
// the decorator around each handler and submit_tx, the proxy around each
// host call the handler makes (its children). Untraced, both only forward,
// so the end-to-end runs pay one extra virtual call per entry point.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "load.hpp"
#include "multishot/messages.hpp"
#include "multishot/node.hpp"
#include "runtime/host.hpp"
#include "trace.hpp"

namespace bench {

/// Requests whose spans are kept: one in kSampleEvery, by id.
inline constexpr std::uint32_t kSampleEvery = 16;
inline bool sampled(std::uint64_t id) { return id % kSampleEvery == 0; }

/// One replica's trace state, written only on that replica's thread.
struct Probe {
  explicit Probe(const RunClock& clock) : spans(clock), clock(&clock) {}

  SpanBuffer spans;
  const RunClock* clock;
  std::uint64_t msgs{0};   ///< messages sent to other replicas
  std::uint64_t bytes{0};  ///< their payload bytes
  std::uint64_t proposals{0};     ///< own transaction-bearing proposals
  std::uint64_t inclusions{0};    ///< transactions they carried
  std::uint64_t batch_bytes{0};   ///< their block payload bytes
  std::int64_t unsampled_ns{0};   ///< submit_tx time of requests not sampled
  std::vector<std::pair<tbft::Slot, tbft::View>> view_changes;  ///< announced
};

class TracedNode final : public tbft::runtime::ProtocolNode {
 public:
  TracedNode(std::unique_ptr<tbft::multishot::MultishotNode> inner, Probe* probe)
      : inner_(std::move(inner)), proxy_(*this), probe_(probe) {
    inner_->bind(proxy_);
  }
  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  void on_start() override {
    if (probe_ != nullptr) probe_->spans.paused = true;
    inner_->on_start();
    if (probe_ != nullptr) probe_->spans.paused = false;
  }

  void on_message(tbft::NodeId from, const tbft::Payload& p) override {
    if (probe_ == nullptr) {
      inner_->on_message(from, p);
      return;
    }
    using tbft::multishot::MsType;
    const auto tag = static_cast<MsType>(p.empty() ? 0 : p.front());
    // Bookkeeping happens before the span opens, so it is not charged to
    // the handler.
    const tbft::Slot slot = tag == MsType::Proposal ? note_proposal(from, p) : 0;
    Name name = kOtherMsg;
    switch (tag) {
      case MsType::Proposal: name = kProposal; break;
      case MsType::Vote: name = kVote; break;
      case MsType::ForwardTx: name = kForward; break;
      case MsType::ViewChange:
      case MsType::Suggest:
      case MsType::Proof: name = kViewChange; break;
      default: break;
    }
    const std::uint32_t h = probe_->spans.open(name, slot);
    inner_->on_message(from, p);
    probe_->spans.close(h, static_cast<std::uint32_t>(tag));
  }

  void on_timer(tbft::runtime::TimerId id) override {
    if (probe_ == nullptr) {
      inner_->on_timer(id);
      return;
    }
    const std::uint32_t h = probe_->spans.open(kTimer, 0);
    inner_->on_timer(id);
    probe_->spans.close(h);
  }

  /// MultishotNode::submit_tx for request `id`; must run on the replica's
  /// thread. Traced, a sampled request gets a span with its children; the
  /// others are only timed.
  bool submit(std::uint32_t id, std::vector<std::uint8_t> tx) {
    if (probe_ == nullptr) return inner_->submit_tx(std::move(tx));
    if (!sampled(id)) {
      const std::int64_t t0 = probe_->clock->wall_ns();
      probe_->spans.paused = true;
      const bool ok = inner_->submit_tx(std::move(tx));
      probe_->spans.paused = false;
      probe_->unsampled_ns += probe_->clock->wall_ns() - t0;
      return ok;
    }
    const std::uint32_t h = probe_->spans.open(kAdmit, id);
    const bool ok = inner_->submit_tx(std::move(tx));
    probe_->spans.close(h, ok ? 1 : 0);
    return ok;
  }

  [[nodiscard]] tbft::multishot::MultishotNode& inner() noexcept { return *inner_; }

 private:
  /// Forwards every Host call to the host that runs the decorator.
  class Proxy final : public tbft::runtime::Host {
   public:
    explicit Proxy(TracedNode& owner) : owner_(owner) {}

    [[nodiscard]] tbft::NodeId id() const override { return host().id(); }
    [[nodiscard]] std::uint32_t n() const override { return host().n(); }
    [[nodiscard]] tbft::runtime::Time now() const override { return host().now(); }

    void send(tbft::NodeId dst, tbft::Payload p) override {
      Probe* pr = owner_.probe_;
      if (pr == nullptr) {
        host().send(dst, std::move(p));
        return;
      }
      if (dst != id()) {
        ++pr->msgs;
        pr->bytes += p.size();
      }
      const std::uint32_t tag = p.empty() ? 0 : p.front();
      const std::uint32_t h = pr->spans.open(kSend, dst);
      host().send(dst, std::move(p));
      pr->spans.close(h, tag);
    }

    void broadcast(tbft::Payload p) override {
      Probe* pr = owner_.probe_;
      if (pr == nullptr) {
        host().broadcast(std::move(p));
        return;
      }
      const std::uint32_t peers = n() - 1;
      pr->msgs += peers;
      pr->bytes += std::uint64_t{peers} * p.size();
      const std::uint32_t tag = p.empty() ? 0 : p.front();
      const std::uint32_t h = pr->spans.open(kBroadcast, 0);
      if (tag == static_cast<std::uint32_t>(tbft::multishot::MsType::ViewChange)) {
        const auto m = tbft::multishot::decode_ms(p.bytes());
        if (const auto* vc = m ? std::get_if<tbft::multishot::MsViewChange>(&*m) : nullptr) {
          pr->view_changes.emplace_back(vc->slot, vc->view);
        }
      }
      host().broadcast(std::move(p));
      pr->spans.close(h, tag);
    }

    tbft::runtime::TimerId set_timer(tbft::runtime::Duration delay) override {
      Probe* pr = owner_.probe_;
      if (pr == nullptr) return host().set_timer(delay);
      const std::uint32_t h = pr->spans.open(kSetTimer, 0);
      const tbft::runtime::TimerId t = host().set_timer(delay);
      pr->spans.close(h);
      return t;
    }

    void cancel_timer(tbft::runtime::TimerId t) override {
      Probe* pr = owner_.probe_;
      if (pr == nullptr) {
        host().cancel_timer(t);
        return;
      }
      const std::uint32_t h = pr->spans.open(kCancelTimer, 0);
      host().cancel_timer(t);
      pr->spans.close(h);
    }

    void publish_commit(std::uint64_t stream, tbft::Value value,
                        std::span<const std::uint8_t> payload) override {
      Probe* pr = owner_.probe_;
      if (pr == nullptr) {
        host().publish_commit(stream, value, payload);
        return;
      }
      const std::uint32_t h = pr->spans.open(kPublish, stream);
      host().publish_commit(stream, value, payload);
      pr->spans.close(h);
    }

    tbft::MetricsRegistry& metrics() override { return host().metrics(); }
    tbft::Rng& rng() override { return host().rng(); }

   private:
    [[nodiscard]] tbft::runtime::Host& host() const { return owner_.ctx(); }

    TracedNode& owner_;
  };

  /// Marks the sampled requests a delivered proposal carries, counts the
  /// batch when it is this replica's own, and returns the proposal's slot.
  tbft::Slot note_proposal(tbft::NodeId from, const tbft::Payload& p) {
    using tbft::multishot::MsMessage;
    const MsMessage* m = p.cached<MsMessage>();
    std::optional<MsMessage> decoded;
    if (m == nullptr) {
      decoded = tbft::multishot::decode_ms(p.bytes());
      if (!decoded) return 0;
      m = &*decoded;
    }
    const auto* prop = std::get_if<tbft::multishot::MsProposal>(m);
    if (prop == nullptr) return 0;
    std::uint64_t frames = 0;
    tbft::multishot::for_each_frame(prop->block.payload, [&](std::span<const std::uint8_t> f) {
      ++frames;
      std::uint32_t id = 0;
      if (peek_tx_id(f, id) && sampled(id)) probe_->spans.mark(kProposed, id);
    });
    if (from == ctx().id() && frames > 0) {
      ++probe_->proposals;
      probe_->inclusions += frames;
      probe_->batch_bytes += prop->block.payload.size();
    }
    return prop->slot;
  }

  std::unique_ptr<tbft::multishot::MultishotNode> inner_;
  Proxy proxy_;
  Probe* probe_;
};

}  // namespace bench
