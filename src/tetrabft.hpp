#pragma once
// Public facade for embedding TetraBFT. Examples, tools and the workload
// engine program against this header instead of reaching into
// MultishotNode internals.
//
//   ClusterBuilder b;
//   b.nodes(4).delta_bound(50 * tbft::runtime::kMillisecond);
//   auto cluster = b.build_local();          // real-time: one thread/node
//   cluster->on_commit([](const tbft::runtime::Commit& c) { ... });
//   cluster->start();
//   cluster->node(0).submit({'t','x'});
//   cluster->wait_for([&]{ return done; }, 5 * tbft::runtime::kSecond);
//   cluster->stop();
//
// Three backends build from the same validated configuration:
//  - build_local(): a runtime::LocalRunner cluster -- wall-clock time, OS
//    threads, shared-memory message passing;
//  - build_sim():   a sim::Simulation cluster -- deterministic virtual
//    time, the verification tool of record. Client actors (workload
//    generators) attach here; the facade adds every protocol node before
//    any client, and the Simulation rejects out-of-order additions with a
//    clear error instead of silently renumbering actors;
//  - build_socket(): a cluster of runtime::SocketHost nodes talking TCP
//    over loopback -- every message crosses a real socket. For genuinely
//    multi-process deployments, build_socket_node() builds ONE node; the
//    caller distributes listen ports (ephemeral binds are discoverable via
//    SocketNode::port()) and wires peers with set_peer_endpoint before
//    start() -- see examples/socket_cluster.cpp.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "multishot/node.hpp"
#include "runtime/host.hpp"
#include "runtime/local_runner.hpp"
#include "runtime/socket_host.hpp"
#include "shard/mux.hpp"
#include "shard/router.hpp"
#include "sim/runtime.hpp"
#include "storage/durable_chain.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace tbft {

class Cluster;

namespace detail {
/// Single CommitSink fanning every backend's commits out to registered
/// callbacks and waking wait_for waiters. Shared by Cluster, SocketCluster
/// and SocketNode so the commit-observation semantics are identical across
/// transports.
struct CommitHub final : runtime::CommitSink {
  void on_commit(const runtime::Commit& commit) override;
  /// Block until `pred()` holds or `timeout` elapses; `pred` runs under the
  /// hub lock and is re-checked after every commit.
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  std::mutex mx;
  std::condition_variable cv;
  std::vector<std::function<void(const runtime::Commit&)>> callbacks;
};
}  // namespace detail

/// Non-owning handle to one replica of a local Cluster.
class NodeHandle {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Submit a transaction to this replica's mempool. Runs on the replica's
  /// thread (serialized with its handlers); before Cluster::start() it
  /// applies immediately, which is how initial state is seeded.
  void submit(std::vector<std::uint8_t> tx);

 private:
  friend class Cluster;
  NodeHandle(Cluster& cluster, NodeId id) : cluster_(&cluster), id_(id) {}

  Cluster* cluster_;
  NodeId id_;
};

/// A real-time in-process TetraBFT cluster (runtime::LocalRunner backend).
class Cluster {
 public:
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~Cluster();  // stops the runner

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept { return runner_.node_count(); }
  [[nodiscard]] NodeHandle node(NodeId id);

  /// Subscribe to every commit any replica publishes. Must be called before
  /// start(). Callbacks run on replica threads, serialized by the cluster;
  /// wait_for predicates are re-evaluated after each callback.
  void on_commit(CommitCallback cb);

  void start();
  /// Stop all replica threads. Idempotent; after stop() the replicas are
  /// quiescent and replica() inspection is safe from the caller's thread.
  void stop();

  /// Block until `pred()` holds or `timeout` elapses; `pred` is evaluated
  /// under the cluster's commit lock, re-checked on every commit. Returns
  /// whether the predicate held.
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Direct replica access: only safe while the cluster is not running
  /// (before start(), after stop()) -- chain inspection, test assertions.
  [[nodiscard]] multishot::MultishotNode& replica(NodeId id);

  [[nodiscard]] runtime::LocalRunner& runner() noexcept { return runner_; }

  /// Replica `id`'s durability driver, or nullptr when the cluster was
  /// built without ClusterBuilder::data_dir (fully in-memory).
  [[nodiscard]] storage::DurableChain* durable(NodeId id) {
    return id < durables_.size() ? durables_[id].get() : nullptr;
  }

 private:
  friend class ClusterBuilder;
  friend class NodeHandle;
  explicit Cluster(const multishot::MultishotConfig& node_cfg, std::uint64_t seed);

  runtime::LocalRunner runner_;
  std::vector<multishot::MultishotNode*> replicas_;
  std::vector<std::unique_ptr<storage::DurableChain>> durables_;
  detail::CommitHub hub_;
};

/// A deterministic simulated cluster built from the same configuration
/// (sim::Simulation backend). The facade owns the actor-ordering rules:
/// all protocol nodes are added at build time, clients afterwards.
class SimCluster {
 public:
  [[nodiscard]] sim::Simulation& simulation() noexcept { return *sim_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(replicas_.size());
  }
  [[nodiscard]] multishot::MultishotNode& replica(NodeId id) { return *replicas_.at(id); }
  [[nodiscard]] const std::vector<multishot::MultishotNode*>& replicas() const noexcept {
    return replicas_;
  }

  /// Submit a transaction to replica `id`'s mempool (direct call: the
  /// simulation is single-threaded). Returns mempool admission.
  bool submit(NodeId id, std::vector<std::uint8_t> tx) {
    return replicas_.at(id)->submit_tx(std::move(tx));
  }

  /// The workload::SubmitPort view of replica `id` -- hand these to the
  /// load generators (workload::LoadClient and friends), which program
  /// against this boundary instead of MultishotNode internals.
  [[nodiscard]] workload::SubmitPort& port(NodeId id) { return *ports_.at(id); }

  /// Attach a client actor (workload generator, observer). Always legal
  /// here: the builder added every protocol node already, which is the
  /// ordering Simulation::add_node enforces with a clear error.
  NodeId add_client(std::unique_ptr<runtime::ProtocolNode> client) {
    return sim_->add_client(std::move(client));
  }

  void start() { sim_->start(); }

  /// Run until every replica finalized at least `target` slots.
  bool run_until_all_finalized(Slot target, runtime::Duration deadline);

  /// Replica `id`'s durability driver, or nullptr when the cluster was
  /// built without ClusterBuilder::data_dir (fully in-memory).
  [[nodiscard]] storage::DurableChain* durable(NodeId id) {
    return id < durables_.size() ? durables_[id].get() : nullptr;
  }

 private:
  friend class ClusterBuilder;
  SimCluster() = default;

  std::unique_ptr<sim::Simulation> sim_;
  std::vector<multishot::MultishotNode*> replicas_;
  std::vector<std::unique_ptr<storage::DurableChain>> durables_;
  std::vector<std::unique_ptr<workload::SubmitPort>> ports_;
};

class ShardedCluster;

/// Non-owning handle to one replica of a ShardedCluster. submit() routes by
/// the request's key: the tag's home shard (shard::ShardRouter) picks which
/// of the replica's S chain instances admits it.
class ShardedNode {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Submit a transaction through this replica's key router, onto the tag's
  /// home-shard instance. Runs on the replica's thread; before
  /// ShardedCluster::start() it applies immediately (initial-state seeding).
  void submit(std::vector<std::uint8_t> tx);

 private:
  friend class ShardedCluster;
  ShardedNode(ShardedCluster& cluster, NodeId id) : cluster_(&cluster), id_(id) {}

  ShardedCluster* cluster_;
  NodeId id_;
};

/// A real-time sharded cluster: n replica threads (runtime::LocalRunner),
/// each running one shard::ShardMux of S independent TetraBFT chain
/// instances over the shared transport. Commits surface on the composite
/// stream `(shard << 48) | slot` (shard/router.hpp); submissions route by
/// request key. Built by ClusterBuilder::shards(S) + build_sharded_local().
class ShardedCluster {
 public:
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~ShardedCluster();  // stops the runner

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept { return runner_.node_count(); }
  [[nodiscard]] std::uint32_t shards() const noexcept { return router_.shards(); }
  [[nodiscard]] const shard::ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] ShardedNode node(NodeId id);

  /// Subscribe to every commit any instance of any replica publishes
  /// (Commit::stream carries both coordinates; decompose with
  /// shard::stream_shard / shard::stream_slot). Before start() only.
  void on_commit(CommitCallback cb);

  void start();
  /// Stop all replica threads. Idempotent; afterwards instance() inspection
  /// is safe from the caller's thread.
  void stop();

  /// Block until `pred()` holds or `timeout` elapses (re-checked on every
  /// commit, under the cluster's commit lock).
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Direct access to replica `id`'s instance of `shard`: only safe while
  /// the cluster is not running (chain inspection, test assertions).
  [[nodiscard]] multishot::MultishotNode& instance(NodeId id, std::uint32_t shard);
  /// Every replica's instance of `shard` (for chains_prefix_consistent).
  /// Same not-running rule as instance().
  [[nodiscard]] std::vector<multishot::MultishotNode*> shard_instances(std::uint32_t shard);

  [[nodiscard]] runtime::LocalRunner& runner() noexcept { return runner_; }

  /// The durability driver of replica `id`'s instance of `shard`, or
  /// nullptr when built without ClusterBuilder::data_dir.
  [[nodiscard]] storage::DurableChain* durable(NodeId id, std::uint32_t shard) {
    return id < durables_.size() && shard < durables_[id].size()
               ? durables_[id][shard].get()
               : nullptr;
  }

 private:
  friend class ClusterBuilder;
  friend class ShardedNode;
  ShardedCluster(std::uint32_t shards, std::uint64_t seed);

  runtime::LocalRunner runner_;
  shard::ShardRouter router_;
  std::vector<shard::ShardMux*> muxes_;
  std::vector<std::vector<std::unique_ptr<storage::DurableChain>>> durables_;  // [node][shard]
  detail::CommitHub hub_;
};

/// The deterministic sharded cluster (sim::Simulation backend): same mux
/// topology as ShardedCluster, same key routing, virtual time. port(id)
/// exposes each replica as a routing workload::SubmitPort, so the load
/// generators drive a sharded cluster exactly as they drive a single chain
/// -- client retries walk replicas while a tag's home shard stays fixed.
class ShardedSimCluster {
 public:
  [[nodiscard]] sim::Simulation& simulation() noexcept { return *sim_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(muxes_.size());
  }
  [[nodiscard]] std::uint32_t shards() const noexcept { return router_.shards(); }
  [[nodiscard]] const shard::ShardRouter& router() const noexcept { return router_; }

  [[nodiscard]] multishot::MultishotNode& instance(NodeId id, std::uint32_t shard) {
    return muxes_.at(id)->instance(shard);
  }
  /// Every replica's instance of `shard` (for chains_prefix_consistent and
  /// tracker observation).
  [[nodiscard]] std::vector<multishot::MultishotNode*> shard_instances(std::uint32_t shard) {
    std::vector<multishot::MultishotNode*> out;
    out.reserve(muxes_.size());
    for (auto* mux : muxes_) out.push_back(&mux->instance(shard));
    return out;
  }

  /// Submit a transaction at replica `id`; the tag's home shard admits it.
  bool submit(NodeId id, std::vector<std::uint8_t> tx) {
    const auto tag = workload::parse_request_tag(tx);
    const std::uint32_t shard = tag ? router_.shard_of(*tag) : 0;
    return muxes_.at(id)->submit(shard, std::move(tx));
  }

  /// The key-routing workload::SubmitPort view of replica `id`.
  [[nodiscard]] workload::SubmitPort& port(NodeId id) { return *ports_.at(id); }

  /// Attach a client actor. Always legal: the builder added every protocol
  /// node (mux) already.
  NodeId add_client(std::unique_ptr<runtime::ProtocolNode> client) {
    return sim_->add_client(std::move(client));
  }

  void start() { sim_->start(); }

  /// Run until every instance of every shard finalized >= `target` slots.
  bool run_until_all_finalized(Slot target, runtime::Duration deadline);

  /// The durability driver of replica `id`'s instance of `shard`, or
  /// nullptr when built without ClusterBuilder::data_dir.
  [[nodiscard]] storage::DurableChain* durable(NodeId id, std::uint32_t shard) {
    return id < durables_.size() && shard < durables_[id].size()
               ? durables_[id][shard].get()
               : nullptr;
  }

 private:
  friend class ClusterBuilder;
  explicit ShardedSimCluster(std::uint32_t shards) : router_(shards) {}

  std::unique_ptr<sim::Simulation> sim_;
  shard::ShardRouter router_;
  std::vector<shard::ShardMux*> muxes_;
  std::vector<std::unique_ptr<workload::SubmitPort>> ports_;
  std::vector<std::vector<std::unique_ptr<storage::DurableChain>>> durables_;  // [node][shard]
};

/// An in-process TetraBFT cluster whose nodes talk TCP over loopback: n
/// runtime::SocketHost instances, each running on its own loop thread,
/// wired together on ephemeral ports at build time (race-free under CI --
/// nothing guesses a free port). Every protocol message crosses a real
/// socket through the length-prefixed frame codec; only the process
/// boundary separates this from a deployed cluster, and
/// ClusterBuilder::build_socket_node() removes that too.
class SocketCluster {
 public:
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~SocketCluster();  // stops all hosts

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(hosts_.size());
  }

  /// Subscribe to every commit any node publishes. Before start() only;
  /// callbacks run on the hosts' loop threads, serialized by the hub lock.
  void on_commit(CommitCallback cb);

  void start();
  /// Stop all hosts (one loop thread each). Idempotent; afterwards replica()
  /// inspection is safe from the caller's thread.
  void stop();

  /// Block until `pred()` holds or `timeout` elapses (re-checked on every
  /// commit, under the hub lock).
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Submit a transaction to replica `id`'s mempool on its own thread;
  /// before start() it applies immediately (initial-state seeding).
  void submit(NodeId id, std::vector<std::uint8_t> tx);

  /// Direct replica access: only safe while the cluster is not running.
  [[nodiscard]] multishot::MultishotNode& replica(NodeId id);

  [[nodiscard]] runtime::SocketHost& host(NodeId id) { return *hosts_.at(id); }

  /// Replica `id`'s durability driver, or nullptr without data_dir.
  [[nodiscard]] storage::DurableChain* durable(NodeId id) {
    return id < durables_.size() ? durables_[id].get() : nullptr;
  }

 private:
  friend class ClusterBuilder;
  SocketCluster() = default;

  std::vector<std::unique_ptr<runtime::SocketHost>> hosts_;
  std::vector<multishot::MultishotNode*> replicas_;
  std::vector<std::unique_ptr<storage::DurableChain>> durables_;
  detail::CommitHub hub_;
  bool running_{false};
};

/// ONE node of a multi-process TetraBFT cluster (runtime::SocketHost
/// backend). The process that owns it must distribute listen addresses out
/// of band -- bind an ephemeral port, read it back with port(), exchange,
/// then set_peer_endpoint for every peer before start(). The commit
/// callbacks observe only this node's finalizations; cross-node agreement
/// is checked by comparing chains (examples/socket_cluster.cpp).
class SocketNode {
 public:
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~SocketNode();  // stops the host

  SocketNode(const SocketNode&) = delete;
  SocketNode& operator=(const SocketNode&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return host_->id(); }
  /// The actually bound listen port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return host_->port(); }

  /// Where peer `peer` listens. Before start() only.
  void set_peer_endpoint(NodeId peer, net::Endpoint ep) {
    host_->set_peer_endpoint(peer, std::move(ep));
  }

  /// Subscribe to this node's commits. Before start() only.
  void on_commit(CommitCallback cb);

  void start();
  void stop();  // idempotent; flushes durable state

  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Submit a transaction to this replica's mempool on its own thread;
  /// before start() it applies immediately.
  void submit(std::vector<std::uint8_t> tx);

  /// Direct replica access: only safe while the node is not running.
  [[nodiscard]] multishot::MultishotNode& replica();

  [[nodiscard]] runtime::SocketHost& host() noexcept { return *host_; }

  /// This replica's durability driver, or nullptr without data_dir.
  [[nodiscard]] storage::DurableChain* durable() { return durable_.get(); }

 private:
  friend class ClusterBuilder;
  SocketNode() = default;

  std::unique_ptr<runtime::SocketHost> host_;
  multishot::MultishotNode* replica_{nullptr};
  std::unique_ptr<storage::DurableChain> durable_;
  detail::CommitHub hub_;
  bool running_{false};
};

/// Configures a TetraBFT cluster: membership (n/f), timing, leader
/// batching, mempool bounds, finalized-storage tail. Validates eagerly --
/// misconfiguration throws std::invalid_argument/std::logic_error with an
/// actionable message at the call, never a silent misbehavior later.
class ClusterBuilder {
 public:
  /// Membership size. f defaults to the largest tolerable (n-1)/3.
  ClusterBuilder& nodes(std::uint32_t n);
  /// Explicit fault budget (0 is legal: no tolerated faults, quorum = n);
  /// must keep n > 3f.
  ClusterBuilder& faults(std::uint32_t f);
  /// Shard count S: every replica runs S independent chain instances over
  /// the shared transport (shard::ShardMux), with requests key-routed to
  /// their home shard. 1 (the default) builds the classic single-chain
  /// backends; S > 1 requires the sharded builders. Must be in [1, 1024].
  ClusterBuilder& shards(std::uint32_t s);
  ClusterBuilder& seed(std::uint64_t seed);
  /// Known message-delay bound Delta (drives the 9*Delta view timers).
  ClusterBuilder& delta_bound(runtime::Duration delta);
  /// Leader batching: cap per fresh block, byte budget, and how long an
  /// empty-mempool leader defers a fresh proposal waiting for load.
  ClusterBuilder& batching(std::uint32_t max_txs, std::uint32_t max_bytes,
                           runtime::Duration timeout = 0);
  /// Slot pipelining: each leader owns stripes of `depth` consecutive slots,
  /// proposing each one slot ahead of notarization (1 = classic per-slot
  /// rotation, and byte-identical to it). Must be in [1, 16].
  ClusterBuilder& pipelining(std::uint32_t depth);
  /// Adaptive batching: under mempool backlog the per-proposal caps grow
  /// toward `max_txs` transactions (byte budget scales in proportion).
  /// Values <= the batching() tx cap disable adaptation (the default).
  ClusterBuilder& adaptive_batching(std::uint32_t max_txs);
  ClusterBuilder& mempool(std::size_t capacity, multishot::MempoolPolicy policy);
  /// Resident finalized blocks kept behind the compaction checkpoint.
  ClusterBuilder& storage_tail(std::size_t blocks);
  /// Relay submissions to the frontier leader while the chain idles.
  ClusterBuilder& forwarding(bool on);
  /// Simulated actual delay (build_sim only; build_local runs on real time).
  ClusterBuilder& sim_delta_actual(runtime::Duration delta);

  /// Root directory for durable storage. Each replica gets
  /// `<path>/node-<id>` (created on demand): a write-ahead log of finalized
  /// blocks plus an atomic checkpoint file. build_local()/build_sim()
  /// recover whatever state those directories hold before any node starts,
  /// so a rebuilt cluster resumes from its durable tip. Empty (the default)
  /// keeps the cluster fully in-memory.
  ClusterBuilder& data_dir(std::string path);
  /// Enable/disable range-sync catch-up (and with it checkpoint state
  /// transfer). On by default; disabling it relaxes the tail-vs-window
  /// validation in node_config().
  ClusterBuilder& range_sync(bool on);
  /// Rotate exact commit-index entries into per-epoch Bloom filters every
  /// `slots` finalized slots (0 = keep every entry exact). Bounds resident
  /// commit-query memory on long chains.
  ClusterBuilder& commit_epochs(Slot slots);
  /// Durable-checkpoint cadence: write a new checkpoint file (and reclaim
  /// covered WAL segments) every `slots` slots of compaction progress.
  ClusterBuilder& checkpoint_every(Slot slots);
  /// fflush the WAL every `records` appends (1 = flush each block; higher
  /// trades a longer torn tail on crash for less write amplification).
  ClusterBuilder& wal_flush_every(std::uint32_t records);
  /// Rotate to a fresh WAL segment once the active one exceeds `bytes`
  /// (smaller segments reclaim sooner after a checkpoint; larger ones open
  /// fewer files).
  ClusterBuilder& wal_segment_bytes(std::size_t bytes);

  /// Socket transport: redial backoff after a lost connection (first delay,
  /// exponential, saturating at `cap`), with a seeded mean-preserving
  /// `jitter` fraction spread around each delay (0 = deterministic,
  /// must be <= 1).
  ClusterBuilder& socket_backoff(runtime::Duration base, runtime::Duration cap,
                                 double jitter = 0.1);
  /// Socket transport: send a ping after `ping_after` of rx silence; drop a
  /// connection silent for `drop_after` (half-open detection).
  ClusterBuilder& socket_liveness(runtime::Duration ping_after,
                                  runtime::Duration drop_after);
  /// Socket transport: outbound payloads buffered per peer before newest
  /// are dropped (and counted) -- a dead peer must not grow memory.
  ClusterBuilder& socket_queue(std::size_t max_payloads);
  /// Socket transport: largest accepted rx frame payload. Must exceed the
  /// largest encoded protocol message (batches, range-sync replies).
  ClusterBuilder& socket_max_frame(std::size_t bytes);

  /// The validated MultishotConfig every backend builds from.
  [[nodiscard]] multishot::MultishotConfig node_config() const;

  [[nodiscard]] std::unique_ptr<Cluster> build_local() const;
  [[nodiscard]] std::unique_ptr<SimCluster> build_sim() const;
  /// The sharded real-time cluster: n replica threads x S chain instances.
  /// Legal at any shards() value (S = 1 is one mux-wrapped chain).
  [[nodiscard]] std::unique_ptr<ShardedCluster> build_sharded_local() const;
  /// The sharded deterministic cluster (sim::Simulation backend).
  [[nodiscard]] std::unique_ptr<ShardedSimCluster> build_sharded_sim() const;
  /// An in-process loopback-TCP cluster: n SocketHosts on ephemeral ports,
  /// fully wired and ready to start().
  [[nodiscard]] std::unique_ptr<SocketCluster> build_socket() const;
  /// One node of a multi-process cluster, listening on `listen` (port 0 =
  /// ephemeral; read it back with SocketNode::port()). Peer endpoints must
  /// be wired with set_peer_endpoint before start(). With data_dir, this
  /// node recovers from and persists to `<data_dir>/node-<id>`.
  [[nodiscard]] std::unique_ptr<SocketNode> build_socket_node(
      NodeId id, net::Endpoint listen = {}) const;

 private:
  std::uint32_t n_{4};
  std::optional<std::uint32_t> f_;  // unset = derive (n-1)/3
  std::uint32_t shards_{1};
  std::uint64_t seed_{1};
  runtime::Duration delta_bound_{50 * runtime::kMillisecond};
  runtime::Duration sim_delta_actual_{1 * runtime::kMillisecond};
  std::uint32_t max_batch_txs_{64};
  std::uint32_t max_batch_bytes_{8192};
  runtime::Duration batch_timeout_{0};
  std::uint32_t pipeline_depth_{1};
  std::uint32_t adaptive_batch_txs_{0};  // <= max_batch_txs_ = off
  std::size_t mempool_capacity_{4096};
  multishot::MempoolPolicy mempool_policy_{multishot::MempoolPolicy::kRejectNew};
  std::size_t finalized_tail_{multishot::FinalizedStore::kDefaultTailCapacity};
  bool forward_to_leader_{true};
  std::string data_dir_;  // empty = in-memory only
  bool enable_sync_{true};
  Slot commit_epoch_slots_{0};
  Slot checkpoint_every_{1024};
  std::uint32_t wal_flush_every_{64};
  std::size_t wal_segment_bytes_{storage::DurableOptions{}.segment_bytes};
  runtime::Duration socket_backoff_base_{10 * runtime::kMillisecond};
  runtime::Duration socket_backoff_cap_{1 * runtime::kSecond};
  double socket_backoff_jitter_{0.1};
  runtime::Duration socket_ping_after_{500 * runtime::kMillisecond};
  runtime::Duration socket_drop_after_{2 * runtime::kSecond};
  std::size_t socket_queue_{4096};
  std::size_t socket_max_frame_{1u << 20};

  /// The validated SocketHostConfig for node `id` (peers unwired).
  [[nodiscard]] runtime::SocketHostConfig socket_host_config(
      NodeId id, net::Endpoint listen) const;

  /// Build one replica's DurableChain under data_dir_, recover its durable
  /// state into `replica`, and attach the write path.
  std::unique_ptr<storage::DurableChain> attach_durable(
      NodeId id, multishot::MultishotNode& replica) const;
  /// Same, rooted at an explicit directory (sharded layouts use
  /// `<data_dir>/node-<id>/shard-<k>`).
  std::unique_ptr<storage::DurableChain> attach_durable_at(
      const std::string& dir, multishot::MultishotNode& replica) const;
  /// One replica's S chain instances, durables attached (sharded builders).
  std::vector<std::unique_ptr<multishot::MultishotNode>> make_shard_instances(
      NodeId id, const multishot::MultishotConfig& node_cfg,
      std::vector<std::unique_ptr<storage::DurableChain>>& durables) const;
  /// Throws when shards() > 1 (the single-chain builders are per-shard).
  void require_unsharded(const char* builder) const;
};

}  // namespace tbft
