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
//   cluster->submit(0, {'t','x'});
//   cluster->wait_for([&]{ return done; }, 5 * tbft::runtime::kSecond);
//   cluster->stop();
//
// Every build returns the same Cluster type; only the host underneath
// differs, and every host runs the same replica: a shard::ShardMux of
// ClusterBuilder::shards() chain instances (one at the default S = 1).
//  - build_local(): a runtime::LocalRunner -- wall-clock time, OS threads,
//    shared-memory message passing;
//  - build_sim():   a sim::Simulation -- deterministic virtual time over
//    constant 1 ms links, the verification tool of record. Client actors
//    (workload generators) attach through simulation().add_client; the
//    facade adds every replica before any client, and the Simulation
//    rejects out-of-order additions with a clear error instead of silently
//    renumbering actors;
//  - build_socket(): n runtime::SocketHosts talking TCP over loopback --
//    every message crosses a real socket, its shard route in the frame
//    header. For genuinely multi-process deployments, build_socket_node()
//    hosts ONE replica; the caller distributes listen ports (ephemeral
//    binds are discoverable via host(id).port()) and wires peers with
//    host(id).set_peer_endpoint before start() -- see
//    examples/socket_cluster.cpp. Hosts take the runtime::SocketHostConfig
//    defaults for redial backoff, liveness and queueing; their frame limit
//    is derived from the batching caps (ClusterBuilder::max_frame_bytes).
//
// Every replica relays each admitted submission to the leader that
// proposes next (MultishotNode::forward_if_foreign_leader, multishot/node.hpp);
// there is no switch.

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

namespace detail {
/// Single CommitSink fanning every host's commits out to registered
/// callbacks and waking wait_for waiters, so the commit-observation
/// semantics are identical across backends.
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

/// A TetraBFT cluster of n replicas, each a shard::ShardMux of S chain
/// instances, on one of three hosts. Commits surface on the composite
/// stream `(shard << 48) | slot` (shard/router.hpp), which is the plain
/// slot at S = 1; submissions route by request key.
class Cluster {
 public:
  enum class Backend { kSim, kThreads, kSockets };
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~Cluster();  // stops the hosts

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Cluster membership n (a socket node hosts only one of them).
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(muxes_.size());
  }
  [[nodiscard]] std::uint32_t shards() const noexcept { return router_.shards(); }
  [[nodiscard]] const shard::ShardRouter& router() const noexcept { return router_; }

  /// Submit a transaction at replica `id`; the request tag's home shard
  /// admits it (untagged bytes go to shard 0). On the sim, and before
  /// start(), it applies inline and returns mempool admission; on a running
  /// real host it runs on the replica's thread and returns true. Dedup
  /// holds within the dedup horizon (multishot::kDedupHorizon slots): a
  /// retry of a transaction committed fewer than H slots ago is delivered
  /// once; past H a retry is a new transaction. Admission is not delivery:
  /// a replica that catches up by a checkpoint transfer of H or more slots
  /// expires its pool, so a client retries a transaction not committed by
  /// its timeout.
  bool submit(NodeId id, std::vector<std::uint8_t> tx) { return port(id).submit(std::move(tx)); }

  /// The key-routing workload::SubmitPort view of replica `id` (submit()'s
  /// semantics) -- hand these to the load generators.
  [[nodiscard]] workload::SubmitPort& port(NodeId id);

  /// Subscribe to every commit any hosted replica publishes. Before start()
  /// only; on real hosts callbacks run on replica threads, serialized by the
  /// cluster, and wait_for predicates are re-evaluated after each one.
  void on_commit(CommitCallback cb);

  void start();
  /// Stop every host thread and flush the durable chains. Idempotent;
  /// afterwards the replicas are quiescent and instance() inspection is
  /// safe from the caller's thread.
  void stop();

  /// Whether `pred()` holds within `timeout`. Real hosts block, re-checking
  /// `pred` under the commit lock on every commit; the sim runs until
  /// `pred` holds or `timeout` of simulated time passes.
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Replica `id`'s instance of `shard`. On real hosts only safe while the
  /// cluster is not running (chain inspection, test assertions). Throws
  /// std::out_of_range for an id or shard the cluster does not host.
  [[nodiscard]] multishot::MultishotNode& instance(NodeId id, std::uint32_t shard = 0);
  /// Every hosted replica's instance of `shard` (for
  /// chains_prefix_consistent). Same rules as instance().
  [[nodiscard]] std::vector<multishot::MultishotNode*> shard_instances(std::uint32_t shard = 0);
  /// The durability driver of replica `id`'s instance of `shard`, or
  /// nullptr when built without ClusterBuilder::data_dir. Throws
  /// std::out_of_range like instance().
  [[nodiscard]] storage::DurableChain* durable(NodeId id, std::uint32_t shard = 0);

  // Backend-specific access; each throws std::logic_error on another backend.
  /// The sim host. Client actors attach with simulation().add_client, which
  /// is always legal: the builder added every replica already.
  [[nodiscard]] sim::Simulation& simulation();
  [[nodiscard]] runtime::LocalRunner& runner();
  [[nodiscard]] runtime::SocketHost& host(NodeId id);

 private:
  friend class ClusterBuilder;
  Cluster(Backend backend, std::uint32_t n, std::uint32_t shards);

  shard::ShardMux& mux(NodeId id) const;
  /// The one dispatch behind every submission: inline on the sim, else
  /// queued to replica `id`'s thread (inline before start()).
  bool post(NodeId id, std::uint32_t shard, std::vector<std::uint8_t> tx);

  shard::ShardRouter router_;
  bool running_{false};
  // Declaration order is teardown order reversed: hosts (and the replicas
  // they own) go before the durable chains and the hub they write to.
  detail::CommitHub hub_;
  std::vector<std::vector<std::unique_ptr<storage::DurableChain>>> durables_;  // [id][shard]
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<runtime::LocalRunner> runner_;
  std::vector<std::unique_ptr<runtime::SocketHost>> hosts_;  // [id]; null if not hosted
  std::vector<shard::ShardMux*> muxes_;                      // [id]; null if not hosted
  std::vector<std::unique_ptr<workload::SubmitPort>> ports_;  // [id]
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
  /// their home shard; the route crosses sockets in the frame header.
  /// Must be in [1, 1024]; 1 (the default) is one chain per replica.
  ClusterBuilder& shards(std::uint32_t s);
  ClusterBuilder& seed(std::uint64_t seed);
  /// Known message-delay bound Delta (drives the 9*Delta view timers).
  ClusterBuilder& delta_bound(runtime::Duration delta);
  /// Leader batching: transaction cap and byte budget per fresh block.
  ClusterBuilder& batching(std::uint32_t max_txs, std::uint32_t max_bytes);
  /// Slot pipelining: each leader owns stripes of `depth` consecutive slots,
  /// proposing each one slot ahead of notarization (1 = classic per-slot
  /// rotation, and byte-identical to it). Must be in [1, 16].
  ClusterBuilder& pipelining(std::uint32_t depth);
  /// Adaptive batching: under mempool backlog the per-proposal caps grow
  /// toward `max_txs` transactions (byte budget scales in proportion).
  /// Values <= the batching() tx cap disable adaptation (the default).
  ClusterBuilder& adaptive_batching(std::uint32_t max_txs);
  /// Per-replica mempool capacity; a full pool refuses submissions.
  ClusterBuilder& mempool(std::size_t capacity);
  /// Resident finalized blocks kept behind the compaction checkpoint.
  ClusterBuilder& storage_tail(std::size_t blocks);

  /// Root directory for durable storage. Each chain instance gets its
  /// storage::replica_dir (created on demand): a write-ahead log of
  /// finalized blocks plus an atomic checkpoint file. Every build recovers
  /// whatever state those directories hold before any replica starts, so a
  /// rebuilt cluster resumes from its durable tip. Empty (the default)
  /// keeps the cluster fully in-memory.
  ClusterBuilder& data_dir(std::string path);
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

  /// The validated MultishotConfig every backend builds from.
  [[nodiscard]] multishot::MultishotConfig node_config() const;
  /// The socket hosts' rx frame payload limit: the larger of the 1 MiB
  /// SocketHostConfig default and a full range-sync chunk
  /// (MsSyncChunk::kMaxBlocksPerChunk blocks) of node_config()'s
  /// max_payload_bytes() -- the largest message an honest replica sends.
  [[nodiscard]] std::size_t max_frame_bytes() const;

  [[nodiscard]] std::unique_ptr<Cluster> build_local() const;
  [[nodiscard]] std::unique_ptr<Cluster> build_sim() const;
  /// An in-process loopback-TCP cluster: n SocketHosts on ephemeral ports,
  /// fully wired and ready to start().
  [[nodiscard]] std::unique_ptr<Cluster> build_socket() const;
  /// A Cluster hosting only replica `id` of a multi-process deployment,
  /// listening on `listen` (port 0 = ephemeral; read it back with
  /// host(id).port()). Peer endpoints must be wired with
  /// host(id).set_peer_endpoint before start(). Its commit callbacks observe
  /// only this replica; cross-node agreement is checked by comparing chains.
  [[nodiscard]] std::unique_ptr<Cluster> build_socket_node(NodeId id,
                                                           net::Endpoint listen = {}) const;

 private:
  std::uint32_t n_{4};
  std::optional<std::uint32_t> f_;  // unset = derive (n-1)/3
  std::uint32_t shards_{1};
  std::uint64_t seed_{1};
  runtime::Duration delta_bound_{50 * runtime::kMillisecond};
  std::uint32_t max_batch_txs_{64};
  std::uint32_t max_batch_bytes_{8192};
  std::uint32_t pipeline_depth_{1};
  std::uint32_t adaptive_batch_txs_{0};  // <= max_batch_txs_ = off
  std::size_t mempool_capacity_{4096};
  std::size_t finalized_tail_{multishot::FinalizedStore::kDefaultTailCapacity};
  std::string data_dir_;  // empty = in-memory only
  Slot checkpoint_every_{1024};
  std::uint32_t wal_flush_every_{64};
  std::size_t wal_segment_bytes_{storage::DurableOptions{}.segment_bytes};

  /// Replicas [first, last) of `backend`, each a ShardMux with its durable
  /// chains recovered and attached; sockets listen on `listen`.
  [[nodiscard]] std::unique_ptr<Cluster> build(Cluster::Backend backend, NodeId first,
                                               NodeId last, const net::Endpoint& listen) const;
};

}  // namespace tbft
