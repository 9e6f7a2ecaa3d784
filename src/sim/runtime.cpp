#include "sim/runtime.hpp"

#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace tbft::sim {

class Simulation::Context final : public NodeContext {
 public:
  Context(Simulation& sim, NodeId id, Rng rng) : sim_(sim), id_(id), rng_(rng) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] std::uint32_t n() const override { return sim_.node_count(); }
  [[nodiscard]] SimTime now() const override { return sim_.queue_.now(); }

  void send(NodeId dst, Payload payload) override {
    sim_.dispatch_send(id_, dst, std::move(payload));
  }

  void broadcast(Payload payload) override {
    // Every recipient shares the same ref-counted payload: copying `payload`
    // below bumps a reference count, never the bytes.
    const std::uint32_t n = sim_.node_count();
    for (NodeId dst = 0; dst < n; ++dst) {
      sim_.dispatch_send(id_, dst, payload);
    }
  }

  TimerId set_timer(runtime::Duration delay) override {
    TBFT_ASSERT(delay >= 0);
    return sim_.arm_timer(id_, delay);
  }

  void cancel_timer(TimerId tid) override { sim_.disarm_timer(tid); }

  void publish_commit(std::uint64_t stream, Value value,
                      std::span<const std::uint8_t> payload) override {
    sim_.publish_commit(id_, stream, value, payload);
  }

  MetricsRegistry& metrics() override { return sim_.metrics_; }
  Rng& rng() override { return rng_; }

 private:
  Simulation& sim_;
  NodeId id_;
  Rng rng_;
};

Simulation::Simulation(SimConfig cfg)
    : cfg_(cfg), network_(cfg.net, Rng(mix64(cfg.seed) ^ 0x6e657477ULL)), rng_(cfg.seed) {
  queue_.set_sink(this);
}

Simulation::~Simulation() = default;

NodeId Simulation::add_node(std::unique_ptr<ProtocolNode> node) {
  TBFT_ASSERT_MSG(!started_, "cannot add nodes after start()");
  if (!clients_.empty()) {
    // Client-actor ids continue after the protocol nodes; adding a node now
    // would renumber every existing client and silently corrupt n(). Always
    // on (not an assert): this is an API-ordering error user code can make.
    throw std::logic_error(
        "Simulation::add_node after add_client would renumber the existing client "
        "actors: add every protocol node before the first client");
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  contexts_.push_back(std::make_unique<Context>(*this, id, rng_.fork()));
  status_.push_back(ActorStatus{});
  node->bind(*contexts_.back());
  nodes_.push_back(std::move(node));
  return id;
}

NodeId Simulation::add_client(std::unique_ptr<ProtocolNode> client) {
  TBFT_ASSERT_MSG(!started_, "cannot add clients after start()");
  const auto id = static_cast<NodeId>(nodes_.size() + clients_.size());
  contexts_.push_back(std::make_unique<Context>(*this, id, rng_.fork()));
  status_.push_back(ActorStatus{});
  client->bind(*contexts_.back());
  clients_.push_back(std::move(client));
  return id;
}

ProtocolNode& Simulation::actor(NodeId id) {
  if (id < nodes_.size()) return *nodes_[id];
  return *clients_.at(id - nodes_.size());
}

void Simulation::start() {
  TBFT_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  for (auto& node : nodes_) node->on_start();
  for (auto& client : clients_) client->on_start();
}

void Simulation::crash_node(NodeId id) {
  TBFT_ASSERT_MSG(id < nodes_.size(), "crash_node: not a protocol node");
  ActorStatus& st = status_[id];
  TBFT_ASSERT_MSG(!st.crashed, "crash_node: already crashed");
  st.crashed = true;
  ++st.incarnation;  // pending timers belong to the dead life now
  metrics_.counter("sim.churn.crashes").add();
}

void Simulation::restart_node(NodeId id, std::unique_ptr<ProtocolNode> fresh) {
  TBFT_ASSERT_MSG(id < nodes_.size(), "restart_node: not a protocol node");
  ActorStatus& st = status_[id];
  TBFT_ASSERT_MSG(st.crashed, "restart_node: node is not crashed");
  st.crashed = false;
  fresh->bind(*contexts_[id]);
  nodes_[id] = std::move(fresh);
  metrics_.counter("sim.churn.restarts").add();
  if (started_) nodes_[id]->on_start();
}

TimerId Simulation::arm_timer(NodeId node, SimTime delay) {
  std::uint32_t slot;
  if (!free_timer_slots_.empty()) {
    slot = free_timer_slots_.back();
    free_timer_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.push_back(TimerSlot{});
  }
  TimerSlot& ts = timer_slots_[slot];
  ts.armed = true;
  ts.owner = node;
  ts.owner_incarnation = status_[node].incarnation;
  const TimerId tid = make_timer_id(slot, ts.generation);
  queue_.schedule_timer(queue_.now() + delay, node, tid);
  return tid;
}

void Simulation::disarm_timer(TimerId id) {
  if (id == 0) return;
  const std::uint32_t slot = timer_slot_of(id);
  if (slot >= timer_slots_.size()) return;
  TimerSlot& ts = timer_slots_[slot];
  if (!ts.armed || ts.generation != timer_gen_of(id)) return;  // already fired/cancelled
  ts.armed = false;
  ++ts.generation;  // invalidate the pending heap entry; filtered on firing
  free_timer_slots_.push_back(slot);
}

void Simulation::on_timer_event(NodeId node, TimerId id) {
  const std::uint32_t slot = timer_slot_of(id);
  TBFT_ASSERT(slot < timer_slots_.size());
  TimerSlot& ts = timer_slots_[slot];
  if (!ts.armed || ts.generation != timer_gen_of(id)) return;  // cancelled or reused
  ts.armed = false;
  ++ts.generation;
  free_timer_slots_.push_back(slot);
  // A timer armed by a crashed (or since-restarted) life dies with it.
  if (ts.owner_incarnation != status_[node].incarnation || status_[node].crashed) return;
  actor(node).on_timer(id);
}

void Simulation::publish_commit(NodeId node, std::uint64_t stream, Value value,
                                std::span<const std::uint8_t> payload) {
  const runtime::Commit commit{node, stream, value, payload, queue_.now()};
  trace_.record_decision(commit);
  for (runtime::CommitSink* sink : commit_sinks_) sink->on_commit(commit);
}

void Simulation::dispatch_send(NodeId src, NodeId dst, Payload payload) {
  TBFT_ASSERT(dst < nodes_.size() + clients_.size());
  const SimTime sent_at = queue_.now();

  if (src == dst) {
    // Self-delivery: instantaneous, free (no network traversal). Scheduled as
    // an event so handlers never re-enter each other.
    queue_.schedule_deliver(sent_at, src, src, std::move(payload));
    return;
  }

  Envelope env{src, dst, std::move(payload)};
  const auto deliver_at = network_.schedule(env, sent_at);
  trace_.record_send(env, sent_at, deliver_at);

  if (!deliver_at) return;  // dropped during asynchrony
  queue_.schedule_deliver(*deliver_at, src, dst, std::move(env.payload));
}

void Simulation::on_deliver_event(NodeId src, NodeId dst, const Payload& payload) {
  // A crashed node's inbox is a void: messages arriving while it is down are
  // lost for good (a restart does not replay them), like a dead process's
  // sockets.
  if (status_[dst].crashed) return;
  actor(dst).on_message(src, payload);
}

void Simulation::run_until(SimTime deadline) { queue_.run_until(deadline); }

bool Simulation::run_until_pred(const std::function<bool()>& pred, SimTime deadline) {
  if (pred()) return true;
  while (queue_.next_time() <= deadline) {
    queue_.step();
    if (pred()) return true;
  }
  return false;
}

void Simulation::run_to_quiescence(SimTime deadline) { queue_.run_until(deadline); }

}  // namespace tbft::sim
