#include "tetrabft.hpp"

#include <filesystem>
#include <string>
#include <utility>

#include "storage/durable_chain.hpp"

namespace tbft {

// ---- detail::CommitHub -----------------------------------------------------

void detail::CommitHub::on_commit(const runtime::Commit& commit) {
  {
    std::lock_guard<std::mutex> lk(mx);
    for (const auto& cb : callbacks) cb(commit);
  }
  cv.notify_all();
}

bool detail::CommitHub::wait_for(const std::function<bool()>& pred,
                                 runtime::Duration timeout) {
  std::unique_lock<std::mutex> lk(mx);
  return cv.wait_for(lk, std::chrono::microseconds(timeout), [&] { return pred(); });
}

// ---- Cluster ---------------------------------------------------------------

Cluster::Cluster(Backend backend, std::uint32_t n, std::uint32_t shards)
    : router_(shards),
      durables_(n),
      hosts_(backend == Backend::kSockets ? n : 0),
      muxes_(n, nullptr),
      ports_(n) {}

Cluster::~Cluster() { stop(); }

shard::ShardMux& Cluster::mux(NodeId id) const {
  if (id >= muxes_.size() || muxes_[id] == nullptr) {
    throw std::out_of_range("Cluster: replica " + std::to_string(id) +
                            " is not hosted by this cluster");
  }
  return *muxes_[id];
}

workload::SubmitPort& Cluster::port(NodeId id) {
  (void)mux(id);  // range check
  return *ports_[id];
}

bool Cluster::post(NodeId id, std::uint32_t shard, std::vector<std::uint8_t> tx) {
  shard::ShardMux* m = &mux(id);
  if (sim_) return m->submit(shard, std::move(tx));
  auto fn = [m, shard, tx = std::move(tx)]() mutable { m->submit(shard, std::move(tx)); };
  if (runner_) {
    runner_->post(id, std::move(fn));
  } else {
    hosts_[id]->post(std::move(fn));
  }
  return true;
}

void Cluster::on_commit(CommitCallback cb) {
  if (running_) throw std::logic_error("Cluster::on_commit: subscribe before start()");
  hub_.callbacks.push_back(std::move(cb));
}

void Cluster::start() {
  if (sim_) sim_->start();
  if (runner_) runner_->start();
  for (auto& host : hosts_) {
    if (host) host->start();
  }
  running_ = true;
}

void Cluster::stop() {
  if (runner_) runner_->stop();
  for (auto& host : hosts_) {
    if (host) host->stop();
  }
  running_ = false;
  // Replica threads are quiescent now: push any buffered WAL tail to disk so
  // an orderly shutdown loses nothing regardless of the flush cadence.
  for (auto& per_replica : durables_) {
    for (auto& durable : per_replica) durable->flush();
  }
}

bool Cluster::wait_for(const std::function<bool()>& pred, runtime::Duration timeout) {
  if (sim_) return sim_->run_until_pred(pred, sim_->now() + timeout);
  return hub_.wait_for(pred, timeout);
}

multishot::MultishotNode& Cluster::instance(NodeId id, std::uint32_t shard) {
  if (running_ && !sim_) {
    throw std::logic_error(
        "Cluster::instance: direct access while running races the replica thread; "
        "stop() first or use submit()");
  }
  return mux(id).instance(shard);
}

std::vector<multishot::MultishotNode*> Cluster::shard_instances(std::uint32_t shard) {
  std::vector<multishot::MultishotNode*> out;
  for (NodeId id = 0; id < muxes_.size(); ++id) {
    if (muxes_[id] != nullptr) out.push_back(&instance(id, shard));
  }
  return out;
}

storage::DurableChain* Cluster::durable(NodeId id, std::uint32_t shard) {
  if (shard >= mux(id).shards()) {
    throw std::out_of_range("Cluster::durable: no shard " + std::to_string(shard));
  }
  return durables_[id].empty() ? nullptr : durables_[id][shard].get();
}

sim::Simulation& Cluster::simulation() {
  if (!sim_) throw std::logic_error("Cluster::simulation: not a build_sim() cluster");
  return *sim_;
}

NodeId Cluster::add_client(std::unique_ptr<runtime::ProtocolNode> client) {
  return simulation().add_client(std::move(client));
}

runtime::LocalRunner& Cluster::runner() {
  if (!runner_) throw std::logic_error("Cluster::runner: not a build_local() cluster");
  return *runner_;
}

runtime::SocketHost& Cluster::host(NodeId id) {
  if (hosts_.empty()) throw std::logic_error("Cluster::host: not a socket cluster");
  (void)mux(id);  // range check
  return *hosts_[id];
}

// ---- ClusterBuilder --------------------------------------------------------

ClusterBuilder& ClusterBuilder::nodes(std::uint32_t n) {
  n_ = n;
  return *this;
}
ClusterBuilder& ClusterBuilder::faults(std::uint32_t f) {
  f_ = f;
  return *this;
}
ClusterBuilder& ClusterBuilder::shards(std::uint32_t s) {
  if (s == 0 || s > 1024) {
    throw std::invalid_argument("ClusterBuilder: shards must be in [1, 1024]");
  }
  shards_ = s;
  return *this;
}
ClusterBuilder& ClusterBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
ClusterBuilder& ClusterBuilder::delta_bound(runtime::Duration delta) {
  if (delta <= 0) throw std::invalid_argument("ClusterBuilder: delta_bound must be > 0");
  delta_bound_ = delta;
  return *this;
}
ClusterBuilder& ClusterBuilder::batching(std::uint32_t max_txs, std::uint32_t max_bytes) {
  if (max_txs == 0 || max_bytes == 0) {
    throw std::invalid_argument("ClusterBuilder: batching caps must be > 0");
  }
  max_batch_txs_ = max_txs;
  max_batch_bytes_ = max_bytes;
  return *this;
}
ClusterBuilder& ClusterBuilder::pipelining(std::uint32_t depth) {
  if (depth == 0 || depth > 16) {
    throw std::invalid_argument(
        "ClusterBuilder: pipelining depth must be in [1, 16] (1 = off; deeper "
        "stripes outrun the finality depth without adding throughput)");
  }
  pipeline_depth_ = depth;
  return *this;
}
ClusterBuilder& ClusterBuilder::adaptive_batching(std::uint32_t max_txs) {
  adaptive_batch_txs_ = max_txs;
  return *this;
}
ClusterBuilder& ClusterBuilder::mempool(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("ClusterBuilder: mempool capacity must be > 0");
  mempool_capacity_ = capacity;
  return *this;
}
ClusterBuilder& ClusterBuilder::storage_tail(std::size_t blocks) {
  if (blocks == 0) throw std::invalid_argument("ClusterBuilder: storage tail must be > 0");
  finalized_tail_ = blocks;
  return *this;
}
ClusterBuilder& ClusterBuilder::forwarding(bool on) {
  forward_to_leader_ = on;
  return *this;
}
ClusterBuilder& ClusterBuilder::sim_delta_actual(runtime::Duration delta) {
  if (delta <= 0) throw std::invalid_argument("ClusterBuilder: sim_delta_actual must be > 0");
  sim_delta_actual_ = delta;
  return *this;
}
ClusterBuilder& ClusterBuilder::data_dir(std::string path) {
  if (path.empty()) {
    throw std::invalid_argument(
        "ClusterBuilder: data_dir must be a non-empty path (omit the call for "
        "an in-memory cluster)");
  }
  data_dir_ = std::move(path);
  return *this;
}
ClusterBuilder& ClusterBuilder::checkpoint_every(Slot slots) {
  if (slots == 0) {
    throw std::invalid_argument("ClusterBuilder: checkpoint_every must be > 0 slots");
  }
  checkpoint_every_ = slots;
  return *this;
}
ClusterBuilder& ClusterBuilder::wal_flush_every(std::uint32_t records) {
  if (records == 0) {
    throw std::invalid_argument("ClusterBuilder: wal_flush_every must be > 0 records");
  }
  wal_flush_every_ = records;
  return *this;
}
ClusterBuilder& ClusterBuilder::wal_segment_bytes(std::size_t bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("ClusterBuilder: wal_segment_bytes must be > 0");
  }
  wal_segment_bytes_ = bytes;
  return *this;
}

ClusterBuilder& ClusterBuilder::socket_backoff(runtime::Duration base,
                                               runtime::Duration cap, double jitter) {
  if (base <= 0 || cap < base) {
    throw std::invalid_argument("ClusterBuilder: socket_backoff needs 0 < base <= cap");
  }
  if (jitter < 0 || jitter > 1) {
    throw std::invalid_argument("ClusterBuilder: socket_backoff jitter must be in [0, 1]");
  }
  socket_backoff_base_ = base;
  socket_backoff_cap_ = cap;
  socket_backoff_jitter_ = jitter;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_liveness(runtime::Duration ping_after,
                                                runtime::Duration drop_after) {
  if (ping_after <= 0 || drop_after <= ping_after) {
    throw std::invalid_argument(
        "ClusterBuilder: socket_liveness needs 0 < ping_after < drop_after");
  }
  socket_ping_after_ = ping_after;
  socket_drop_after_ = drop_after;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_queue(std::size_t max_payloads) {
  if (max_payloads == 0) {
    throw std::invalid_argument("ClusterBuilder: socket_queue must be > 0");
  }
  socket_queue_ = max_payloads;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_max_frame(std::size_t bytes) {
  if (bytes < 4096) {
    throw std::invalid_argument(
        "ClusterBuilder: socket_max_frame below 4096 bytes cannot carry even a "
        "small block");
  }
  socket_max_frame_ = bytes;
  return *this;
}

multishot::MultishotConfig ClusterBuilder::node_config() const {
  const std::uint32_t f = f_.has_value() ? *f_ : (n_ > 0 ? (n_ - 1) / 3 : 0);
  // QuorumParams validates n > 3f (and n > 0) with a descriptive throw.
  (void)QuorumParams(n_, f);
  if (finalized_tail_ < 8) {
    throw std::logic_error(
        "ClusterBuilder: storage_tail(" + std::to_string(finalized_tail_) +
        ") is below the 8-block floor FinalizedStore needs to keep compaction "
        "behind the finalization frontier; raise storage_tail to at least 8");
  }
  if (finalized_tail_ < multishot::ChainStore::kWindow) {
    throw std::logic_error(
        "ClusterBuilder: storage_tail(" + std::to_string(finalized_tail_) +
        ") is smaller than the " + std::to_string(multishot::ChainStore::kWindow) +
        "-slot unfinalized window, so range-sync could compact away blocks a "
        "lagging peer still needs; raise storage_tail to at least " +
        std::to_string(multishot::ChainStore::kWindow));
  }
  multishot::MultishotConfig cfg;
  cfg.n = n_;
  cfg.f = f;
  cfg.delta_bound = delta_bound_;
  cfg.max_slots = 0;  // production shape: unbounded chain, idle suppression
  cfg.max_batch_txs = max_batch_txs_;
  cfg.max_batch_bytes = max_batch_bytes_;
  cfg.mempool_capacity = mempool_capacity_;
  cfg.finalized_tail = finalized_tail_;
  cfg.forward_to_leader = forward_to_leader_;
  cfg.pipeline_depth = pipeline_depth_;
  if (adaptive_batch_txs_ > max_batch_txs_) {
    cfg.adaptive_batch_txs = adaptive_batch_txs_;
  }
  return cfg;
}

runtime::SocketHostConfig ClusterBuilder::socket_host_config(
    NodeId id, net::Endpoint listen) const {
  // Validate against the largest proposal the node may actually emit: under
  // adaptive batching that is the scaled byte ceiling, not the base cap.
  const std::uint64_t max_proposal_bytes = node_config().adaptive_bytes_ceiling();
  if (socket_max_frame_ < max_proposal_bytes + 4096) {
    throw std::logic_error(
        "ClusterBuilder: socket_max_frame(" + std::to_string(socket_max_frame_) +
        ") leaves no headroom over the largest proposal payload (" +
        std::to_string(max_proposal_bytes) +
        " bytes); a full proposal would be dropped as oversize -- raise "
        "socket_max_frame or lower the batching/adaptive_batching caps");
  }
  runtime::SocketHostConfig hc;
  hc.id = id;
  hc.n = n_;
  hc.seed = seed_;
  hc.listen = std::move(listen);
  hc.backoff_base = socket_backoff_base_;
  hc.backoff_cap = socket_backoff_cap_;
  hc.backoff_jitter = socket_backoff_jitter_;
  hc.ping_after = socket_ping_after_;
  hc.drop_after = socket_drop_after_;
  hc.max_queue = socket_queue_;
  hc.max_frame_bytes = socket_max_frame_;
  return hc;
}

std::unique_ptr<Cluster> ClusterBuilder::build(Cluster::Backend backend, NodeId first,
                                               NodeId last, const net::Endpoint& listen) const {
  const multishot::MultishotConfig node_cfg = node_config();
  auto cluster = std::unique_ptr<Cluster>(new Cluster(backend, node_cfg.n, shards_));
  Cluster& c = *cluster;
  if (backend == Cluster::Backend::kSim) {
    sim::SimConfig sc;
    sc.seed = seed_;
    sc.net.delta_bound = delta_bound_;
    sc.net.delta_actual = sim_delta_actual_;
    sc.net.delta_min = sim_delta_actual_;
    c.sim_ = std::make_unique<sim::Simulation>(sc);
    c.sim_->add_commit_sink(c.hub_);
  } else if (backend == Cluster::Backend::kThreads) {
    c.runner_ = std::make_unique<runtime::LocalRunner>(runtime::LocalRunnerConfig{seed_});
    c.runner_->add_commit_sink(c.hub_);
  }
  storage::DurableOptions opts;
  opts.segment_bytes = wal_segment_bytes_;
  opts.flush_every = wal_flush_every_;
  opts.checkpoint_every = checkpoint_every_;
  for (NodeId i = first; i < last; ++i) {
    std::vector<std::unique_ptr<multishot::MultishotNode>> instances;
    for (std::uint32_t k = 0; k < shards_; ++k) {
      auto node = std::make_unique<multishot::MultishotNode>(node_cfg);
      if (!data_dir_.empty()) {
        c.durables_[i].push_back(std::make_unique<storage::DurableChain>(
            storage::replica_dir(data_dir_, i, k, shards_), opts));
        c.durables_[i].back()->attach(*node);
      }
      instances.push_back(std::move(node));
    }
    auto mux = std::make_unique<shard::ShardMux>(std::move(instances));
    c.muxes_[i] = mux.get();
    c.ports_[i] = std::make_unique<shard::RoutedPort>(
        c.router_, [&c, i](std::uint32_t shard, std::vector<std::uint8_t> tx) {
          return c.post(i, shard, std::move(tx));
        });
    switch (backend) {
      case Cluster::Backend::kSim: c.sim_->add_node(std::move(mux)); break;
      case Cluster::Backend::kThreads: c.runner_->add_node(std::move(mux)); break;
      case Cluster::Backend::kSockets:
        // The host binds at construction, so an ephemeral port is known
        // immediately and nothing ever guesses a free one.
        c.hosts_[i] = std::make_unique<runtime::SocketHost>(socket_host_config(i, listen),
                                                            std::move(mux));
        c.hosts_[i]->add_commit_sink(c.hub_);
        break;
    }
  }
  return cluster;
}

std::unique_ptr<Cluster> ClusterBuilder::build_sim() const {
  return build(Cluster::Backend::kSim, 0, n_, {});
}

std::unique_ptr<Cluster> ClusterBuilder::build_local() const {
  return build(Cluster::Backend::kThreads, 0, n_, {});
}

std::unique_ptr<Cluster> ClusterBuilder::build_socket() const {
  auto cluster = build(Cluster::Backend::kSockets, 0, n_, net::Endpoint{"127.0.0.1", 0});
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j = 0; j < n_; ++j) {
      if (j != i) cluster->host(i).set_peer_endpoint(j, {"127.0.0.1", cluster->host(j).port()});
    }
  }
  return cluster;
}

std::unique_ptr<Cluster> ClusterBuilder::build_socket_node(NodeId id,
                                                           net::Endpoint listen) const {
  if (id >= n_) {
    throw std::invalid_argument("ClusterBuilder: build_socket_node id " + std::to_string(id) +
                                " out of range for n=" + std::to_string(n_));
  }
  return build(Cluster::Backend::kSockets, id, id + 1, listen);
}

}  // namespace tbft
