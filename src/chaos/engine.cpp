#include "chaos/engine.hpp"

#include <cstdio>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "multishot/node.hpp"
#include "shard/mux.hpp"
#include "shard/router.hpp"
#include "sim/adversary.hpp"
#include "sim/runtime.hpp"
#include "storage/durable_chain.hpp"
#include "workload/scenarios.hpp"

namespace tbft::chaos {

namespace fs = std::filesystem;

std::string ChaosVerdict::failure() const {
  if (ok()) return "";
  std::string why;
  const auto add = [&why](const char* part) {
    if (!why.empty()) why += '+';
    why += part;
  };
  if (!chains_consistent) add("chain-divergence");
  if (report.duplicates != 0) add("double-commit");
  if (report.foreign != 0) add("foreign-commit");
  if (report.retry_duplicates > report.retried * observers) add("retry-dup-overflow");
  if (!drained) add("undrained");
  if (!progressed) add("no-progress");
  return why;
}

namespace {

/// Confines a single-chain Byzantine adversary to shard 0: only route-0
/// traffic reaches it (its own sends are untagged, so they land on shard 0
/// everywhere), and shard k > 0 messages are dropped instead of being
/// misread as shard-0 protocol state. Without this, an adversary that
/// is "merely" a faulty single-chain node would echo shard-k transactions
/// into shard 0's blocks -- a cross-shard duplication no real per-shard
/// committee member produces, because membership is per shard. The node
/// stays a full Byzantine participant of shard 0 and a silent fault (within
/// budget) everywhere else.
struct ShardZeroAdversary final : runtime::ProtocolNode {
  explicit ShardZeroAdversary(std::unique_ptr<runtime::ProtocolNode> inner)
      : inner_(std::move(inner)) {}
  void on_start() override {
    inner_->bind(ctx());  // lazy: our own context exists by now
    inner_->on_start();
  }
  void on_message(NodeId from, const Payload& payload) override {
    if (payload.route() == 0) inner_->on_message(from, payload);
  }
  void on_timer(runtime::TimerId id) override { inner_->on_timer(id); }
  std::unique_ptr<runtime::ProtocolNode> inner_;
};

storage::DurableOptions durable_options() {
  storage::DurableOptions o;
  o.checkpoint_every = 16;
  o.flush_every = 1;
  o.segment_bytes = 32u << 10;
  return o;
}

/// Triage lines for one honest chain of an undrained run: where it stopped
/// finalizing and what its first unfinalized slots are waiting for.
void append_triage(std::string& out, const std::string& who,
                   const multishot::MultishotNode& node) {
  constexpr Slot kSlots = 4;
  const Slot first = node.chain().first_unfinalized();
  char line[160];
  std::snprintf(line, sizeof line, "%s: first_unfinalized=%llu frontier=%llu pool=%zu\n",
                who.c_str(), static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(node.proposal_frontier()),
                node.mempool().size());
  out += line;
  for (Slot s = first; s < first + kSlots; ++s) {
    const auto probe = node.probe_slot(s);
    const auto nt = node.chain().notarized(s);
    // A notarization can name bytes that never arrived (content recovery).
    const char* content = !nt ? "" : node.chain().find_block(s, nt->hash) ? " block=yes"
                                                                            : " block=MISSING";
    std::snprintf(line, sizeof line,
                  "  slot %llu: view=%lld proposed=%s proposal_seen=%s notarized_view=%lld%s\n",
                  static_cast<unsigned long long>(s), static_cast<long long>(probe.view),
                  probe.proposed ? "yes" : "no", probe.proposal_seen ? "yes" : "no",
                  static_cast<long long>(nt ? nt->view : kNoView), content);
    out += line;
  }
}

}  // namespace

ChaosVerdict run_plan(const ScenarioPlan& plan, const fs::path& work_dir) {
  TBFT_ASSERT_MSG(plan.roles.size() == plan.n, "plan roles not sized n");

  sim::SimConfig sc;
  sc.seed = plan.seed;
  sc.net.gst = 0;  // synchronous from the start: all chaos is scheduled, not stochastic
  sc.net.delta_bound = plan.delta_bound;
  sc.net.delta_actual = std::max<sim::SimTime>(1, plan.delta_bound / 10);
  sc.net.delta_min = sc.net.delta_actual;
  auto simu = std::make_unique<sim::Simulation>(sc);
  simu->network().set_topology(plan.topology);

  multishot::MultishotConfig node_cfg;
  node_cfg.n = plan.n;
  node_cfg.f = plan.f;
  node_cfg.delta_bound = plan.delta_bound;
  node_cfg.max_slots = 0;
  node_cfg.max_batch_txs = 32;
  node_cfg.max_batch_bytes = 4096;
  node_cfg.mempool_capacity = 4096;
  node_cfg.pipeline_depth = plan.pipeline_depth;
  node_cfg.adaptive_batch_txs = plan.adaptive_batch_txs;

  ChaosVerdict v;

  // Every honest replica is a ShardMux of S chains (S = 1 included); the
  // mux pointers live here (stable storage: the ports alias the slots), and
  // nullptr marks Byzantine roles and crashed replicas.
  const std::uint32_t S = plan.shards;
  std::vector<shard::ShardMux*> muxes(plan.n, nullptr);
  std::vector<std::vector<std::unique_ptr<storage::DurableChain>>> durables(plan.n);
  workload::WorkloadTracker tracker(simu->metrics(), S);

  // Build -- or rebuild, recovering whatever durable state the directories
  // hold -- replica i's honest mux.
  const auto make_honest = [&](NodeId i) -> std::unique_ptr<runtime::ProtocolNode> {
    durables[i].clear();
    std::vector<std::unique_ptr<multishot::MultishotNode>> instances;
    for (std::uint32_t k = 0; k < S; ++k) {
      durables[i].push_back(std::make_unique<storage::DurableChain>(
          storage::replica_dir(work_dir, i, k, S), durable_options()));
      auto instance = std::make_unique<multishot::MultishotNode>(node_cfg);
      durables[i].back()->attach(*instance);
      tracker.observe(*instance, k);
      instances.push_back(std::move(instance));
    }
    auto mux = std::make_unique<shard::ShardMux>(std::move(instances));
    muxes[i] = mux.get();
    return mux;
  };

  const auto add_adversary = [&](std::unique_ptr<runtime::ProtocolNode> node) {
    simu->add_node(std::make_unique<ShardZeroAdversary>(std::move(node)));
  };

  for (NodeId i = 0; i < plan.n; ++i) {
    switch (plan.roles[i]) {
      case ByzRole::kSilent:
        add_adversary(std::make_unique<sim::SilentNode>());
        break;
      case ByzRole::kJunk:
        add_adversary(std::make_unique<sim::RandomJunkNode>(plan.delta_bound / 2));
        break;
      case ByzRole::kSlowLoris:
        // Hold each proposal to the timeout edge: victims' 9-Delta view
        // timers are 2 Delta away when the proposal finally ships.
        add_adversary(std::make_unique<sim::SlowLorisLeader>(node_cfg, 7 * plan.delta_bound));
        break;
      case ByzRole::kEquivocator:
        add_adversary(std::make_unique<sim::ViewChangeEquivocator>(node_cfg));
        break;
      case ByzRole::kHonest: {
        fs::remove_all(work_dir / ("node-" + std::to_string(i)));  // the WALs recreate it
        simu->add_node(make_honest(i));
        ++v.observers;
        break;
      }
    }
  }

  // Clients target honest replicas only (their ports survive churn).
  std::vector<std::unique_ptr<workload::SubmitPort>> ports;
  std::vector<workload::SubmitPort*> honest;
  for (NodeId i = 0; i < plan.n; ++i) {
    if (plan.roles[i] == ByzRole::kHonest) {
      // Routes each request to its home shard on the live mux; a down
      // replica rejects (backpressure), exactly like a dead TCP endpoint.
      ports.push_back(std::make_unique<shard::RoutedPort>(
          tracker.router(), [&muxes, i](std::uint32_t k, std::vector<std::uint8_t> tx) {
            return muxes[i] != nullptr && muxes[i]->submit(k, std::move(tx));
          }));
      honest.push_back(ports.back().get());
    }
  }
  workload::ClientLoad load;
  load.clients = plan.clients;
  load.closed_loop = plan.load == LoadShape::kClosedLoop;
  load.burst = plan.load == LoadShape::kOpenBurst;
  load.rate_per_sec = plan.rate_per_sec;
  load.outstanding = plan.outstanding;
  load.request_bytes = plan.request_bytes;
  load.stop = plan.load_duration;
  load.retry_timeout = plan.client_retry_timeout;
  workload::add_clients(*simu, load, honest, tracker);

  simu->start();

  // --- The churn schedule: crash at down_at, recover from disk at up_at. ---
  for (const ChurnEvent& ev : plan.churn) {
    simu->run_until(ev.down_at);
    TBFT_ASSERT_MSG(muxes[ev.node] != nullptr, "churn hit a non-live replica");
    simu->crash_node(ev.node);
    muxes[ev.node] = nullptr;
    durables[ev.node].clear();  // close WAL/checkpoint files, like process death
    ++v.crashes;

    simu->run_until(ev.up_at);
    simu->restart_node(ev.node, make_honest(ev.node));
    ++v.observers;
    ++v.restarts;
  }

  // --- Load window + drain. Every chaos client retries, so a request
  // stranded in a crashed mempool is re-submitted once its retry timer
  // fires: unlike the workload rig there is no empty-pools early exit --
  // the run ends when everything admitted committed (or at the deadline,
  // which is then a liveness failure).
  const auto drained = [&] {
    return simu->now() >= plan.load_duration && tracker.admitted() > 0 &&
           tracker.all_admitted_committed();
  };
  simu->run_until_pred(drained, plan.drain_deadline);
  v.elapsed = simu->now();
  // Let in-flight traffic settle so lagging replicas converge before the
  // consistency check.
  simu->run_until(simu->now() + 2 * plan.delta_bound);

  v.report = tracker.report(v.elapsed);
  v.drained = tracker.admitted() > 0 && tracker.all_admitted_committed();
  v.progressed = v.report.committed > 0;
  if (!v.drained) {
    for (NodeId i = 0; i < plan.n; ++i) {
      if (muxes[i] == nullptr) continue;
      for (std::uint32_t k = 0; k < S; ++k) {
        append_triage(v.triage, "node " + std::to_string(i) + " shard " + std::to_string(k),
                      muxes[i]->instance(k));
      }
    }
  }
  // Safety is per shard: every shard's chains must agree across the live
  // muxes (cross-shard commits are the tracker's to catch).
  v.chains_consistent = tracker.misrouted_commits() == 0 && tracker.cross_shard_commits() == 0;
  for (std::uint32_t k = 0; k < S; ++k) {
    std::vector<multishot::MultishotNode*> shard_chains;
    for (auto* mux : muxes) {
      if (mux != nullptr) shard_chains.push_back(&mux->instance(k));
    }
    v.chains_consistent = v.chains_consistent && multishot::chains_prefix_consistent(shard_chains);
    for (const auto* chain : shard_chains) {
      v.max_finalized = std::max(v.max_finalized, chain->finalized_count());
    }
  }
  v.trace_digest = simu->trace().digest();
  return v;
}

}  // namespace tbft::chaos
