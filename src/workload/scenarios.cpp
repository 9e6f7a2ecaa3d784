#include "workload/scenarios.hpp"

#include <utility>

#include "common/assert.hpp"
#include "shard/mux.hpp"
#include "sim/adversary.hpp"

namespace tbft::workload {

const char* preset_name(Preset p) {
  switch (p) {
    case Preset::kSteadyState: return "steady-state";
    case Preset::kBurst: return "burst";
    case Preset::kPartitionDuringLoad: return "partition-during-load";
    case Preset::kLeaderCrashUnderLoad: return "leader-crash-under-load";
    case Preset::kJunkFloodUnderLoad: return "junk-flood-under-load";
  }
  return "?";
}

void add_clients(sim::Simulation& sim, const ClientLoad& load,
                 const std::vector<SubmitPort*>& ports, WorkloadTracker& tracker) {
  TBFT_ASSERT_MSG(!ports.empty(), "a loaded run needs at least one target port");
  for (std::uint32_t c = 0; c < load.clients; ++c) {
    ClientConfig base;
    base.client_id = c;
    base.request_bytes = load.request_bytes;
    base.start = 0;
    base.stop = load.stop;
    base.retry_timeout = load.retry_timeout;
    std::vector<SubmitPort*> targets;
    for (std::size_t i = 0; i < ports.size(); ++i) {
      targets.push_back(ports[(c + i) % ports.size()]);
    }
    if (load.closed_loop) {
      ClosedLoopConfig cl;
      cl.base = base;
      cl.outstanding = load.outstanding;
      sim.add_client(std::make_unique<ClosedLoopClient>(cl, std::move(targets), tracker));
    } else {
      OpenLoopConfig ol;
      ol.base = base;
      ol.rate_per_sec = load.rate_per_sec;
      if (load.burst) {
        ol.burst_period = load.stop / 4;
        ol.burst_duty = 0.25;
        ol.burst_multiplier = 4.0;
      }
      sim.add_client(std::make_unique<OpenLoopClient>(ol, std::move(targets), tracker));
    }
  }
}

bool WorkloadRig::chains_consistent() const {
  return multishot::chains_prefix_consistent(nodes);
}

WorkloadRig make_rig(const ScenarioOptions& opts) {
  WorkloadRig rig;

  sim::SimConfig sc;
  sc.seed = opts.seed;
  sc.net.delta_bound = opts.delta_bound;
  sc.net.delta_actual = opts.delta_actual;
  sc.net.delta_min = opts.delta_actual;
  if (opts.preset == Preset::kPartitionDuringLoad) {
    // The partition is the only pre-GST misbehavior: same-side traffic flows
    // at delta_actual so the scenario isolates the quorum loss itself.
    rig.gst = opts.load_duration / 2;
  } else if (opts.gst > 0) {
    rig.gst = opts.gst;
  }
  if (rig.gst > 0) {
    sc.net.gst = rig.gst;
    sc.net.pre_gst_drop_prob = 0.0;
    sc.net.pre_gst_delay_min = opts.delta_actual;
    sc.net.pre_gst_delay_max = opts.delta_actual;
  }
  rig.sim = std::make_unique<sim::Simulation>(sc);

  if (opts.preset == Preset::kPartitionDuringLoad) {
    std::vector<NodeId> group_a;
    for (NodeId i = 0; i < opts.n / 2; ++i) group_a.push_back(i);
    rig.sim->network().set_adversary(sim::make_partition_until_gst(group_a, rig.gst));
  }

  rig.node_cfg.n = opts.n;
  rig.node_cfg.f = opts.f;
  rig.node_cfg.delta_bound = opts.delta_bound;
  rig.node_cfg.max_slots = 0;  // chains grow as long as the load needs
  rig.node_cfg.max_batch_txs = opts.max_batch_txs;
  rig.node_cfg.max_batch_bytes = opts.max_batch_bytes;
  rig.node_cfg.pipeline_depth = opts.pipeline_depth;
  if (opts.adaptive_batch_txs > opts.max_batch_txs) {
    rig.node_cfg.adaptive_batch_txs = opts.adaptive_batch_txs;
  }
  rig.node_cfg.mempool_capacity = opts.mempool_capacity;

  rig.tracker = std::make_unique<WorkloadTracker>(rig.sim->metrics());
  // Each honest replica is built the way the facade builds one: a
  // one-shard ShardMux, reached through a key-routing SubmitPort.
  std::vector<SubmitPort*> honest;
  for (NodeId i = 0; i < opts.n; ++i) {
    const bool crashed = opts.preset == Preset::kLeaderCrashUnderLoad && i == 0;
    const bool junk = opts.preset == Preset::kJunkFloodUnderLoad && i == opts.n - 1;
    if (crashed) {
      rig.nodes.push_back(nullptr);
      rig.sim->add_node(std::make_unique<sim::SilentNode>());
    } else if (junk) {
      rig.nodes.push_back(nullptr);
      rig.sim->add_node(std::make_unique<sim::RandomJunkNode>(opts.delta_actual));
    } else {
      std::vector<std::unique_ptr<multishot::MultishotNode>> instances;
      instances.push_back(std::make_unique<multishot::MultishotNode>(rig.node_cfg));
      auto mux = std::make_unique<shard::ShardMux>(std::move(instances));
      shard::ShardMux* replica = mux.get();
      rig.nodes.push_back(&replica->instance(0));
      rig.tracker->observe(replica->instance(0));
      rig.ports.push_back(std::make_unique<shard::RoutedPort>(
          rig.tracker->router(), [replica](std::uint32_t k, std::vector<std::uint8_t> tx) {
            return replica->submit(k, std::move(tx));
          }));
      honest.push_back(rig.ports.back().get());
      rig.sim->add_node(std::move(mux));
    }
  }

  ClientLoad load;
  load.clients = opts.clients;
  load.closed_loop = opts.closed_loop;
  load.burst = opts.preset == Preset::kBurst;
  load.rate_per_sec = opts.rate_per_sec;
  load.outstanding = opts.outstanding;
  load.request_bytes = opts.request_bytes;
  load.stop = opts.load_duration;
  load.retry_timeout = opts.client_retry_timeout;
  add_clients(*rig.sim, load, honest, *rig.tracker);
  return rig;
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  WorkloadRig rig = make_rig(opts);
  rig.sim->start();

  // Load window plus drain: done once the window closed and every admitted
  // request committed (the admitted > 0 guard keeps the predicate from
  // tripping before the first submission). A replica that catches up by a
  // checkpoint install of kDedupHorizon or more slots expires its pool
  // (multishot.mempool.expired), so an admitted request can be stranded for
  // good; empty mempools -- every admitted request finalized or expired, no
  // batch still in flight -- end the run too.
  const auto pools_empty = [&] {
    for (const auto* node : rig.nodes) {
      if (node != nullptr && node->mempool().size() != 0) return false;
    }
    return true;
  };
  const auto drained = [&] {
    return rig.sim->now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
           (rig.tracker->all_admitted_committed() || pools_empty());
  };
  rig.sim->run_until_pred(drained, opts.drain_deadline);

  ScenarioResult res;
  res.elapsed = rig.sim->now();
  // Let in-flight traffic settle so lagging replicas converge before the
  // consistency check (commits are already in).
  rig.sim->run_until(rig.sim->now() + 2 * opts.delta_bound);

  res.report = rig.tracker->report(res.elapsed);
  res.trace_digest = rig.sim->trace().digest();
  res.all_admitted_committed =
      rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed();
  res.chains_consistent = rig.chains_consistent();
  return res;
}

}  // namespace tbft::workload
