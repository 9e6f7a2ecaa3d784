#include "chaos/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"

namespace tbft::chaos {

using sim::kMillisecond;
using sim::kSecond;
using sim::LinkProfile;
using sim::SimTime;
using sim::WanTopology;

const char* wan_shape_name(WanShape s) {
  switch (s) {
    case WanShape::kLan: return "lan";
    case WanShape::kUniformWan: return "wan";
    case WanShape::kGeoRegions: return "geo";
    case WanShape::kGeoAsymmetric: return "geo-asym";
  }
  return "?";
}

const char* byz_role_name(ByzRole r) {
  switch (r) {
    case ByzRole::kHonest: return "honest";
    case ByzRole::kSilent: return "silent";
    case ByzRole::kJunk: return "junk";
    case ByzRole::kSlowLoris: return "slow-loris";
    case ByzRole::kEquivocator: return "equivocator";
  }
  return "?";
}

const char* load_shape_name(LoadShape l) {
  switch (l) {
    case LoadShape::kOpenSteady: return "open";
    case LoadShape::kOpenBurst: return "burst";
    case LoadShape::kClosedLoop: return "closed";
  }
  return "?";
}

namespace {

SimTime draw_time(Rng& rng, SimTime lo, SimTime hi) {
  return static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(lo),
                                          static_cast<std::uint64_t>(hi)));
}

LinkProfile draw_link(Rng& rng, SimTime lat_lo, SimTime lat_hi, double jitter_frac,
                      std::uint64_t bandwidth) {
  LinkProfile l;
  l.latency = draw_time(rng, lat_lo, lat_hi);
  l.jitter = static_cast<SimTime>(static_cast<double>(l.latency) * jitter_frac);
  l.bandwidth_bytes_per_sec = bandwidth;
  return l;
}

WanTopology draw_topology(Rng& rng, WanShape shape, std::uint32_t n) {
  switch (shape) {
    case WanShape::kLan: {
      return WanTopology::uniform(
          n, draw_link(rng, kMillisecond / 5, 2 * kMillisecond, 0.5, 0));
    }
    case WanShape::kUniformWan: {
      // One profile per link, all from the same band; caps on a coin flip.
      const std::uint64_t bw = rng.bernoulli(0.5) ? rng.uniform(200'000, 2'000'000) : 0;
      WanTopology topo(n);
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) {
          if (a != b) topo.link(a, b) = draw_link(rng, 5 * kMillisecond,
                                                  40 * kMillisecond, 0.5, bw);
        }
      }
      return topo;
    }
    case WanShape::kGeoRegions: {
      std::vector<std::uint32_t> region_of(n);
      for (std::uint32_t i = 0; i < n; ++i) region_of[i] = i % 3;
      const LinkProfile intra = draw_link(rng, kMillisecond, 3 * kMillisecond, 0.5, 0);
      std::vector<std::vector<LinkProfile>> inter(3, std::vector<LinkProfile>(3));
      for (std::uint32_t a = 0; a < 3; ++a) {
        for (std::uint32_t b = a; b < 3; ++b) {
          const LinkProfile l =
              draw_link(rng, 20 * kMillisecond, 80 * kMillisecond, 0.3, 0);
          inter[a][b] = l;
          inter[b][a] = l;  // symmetric matrix; asymmetric variant below
        }
      }
      return WanTopology::geo(region_of, inter, intra);
    }
    case WanShape::kGeoAsymmetric: {
      std::vector<std::uint32_t> region_of(n);
      for (std::uint32_t i = 0; i < n; ++i) region_of[i] = i % 3;
      const LinkProfile intra = draw_link(rng, kMillisecond, 3 * kMillisecond, 0.5, 0);
      std::vector<std::vector<LinkProfile>> inter(3, std::vector<LinkProfile>(3));
      for (std::uint32_t a = 0; a < 3; ++a) {
        for (std::uint32_t b = 0; b < 3; ++b) {
          if (a != b) {
            // Drawn per direction: the a->b and b->a routes differ.
            inter[a][b] = draw_link(rng, 10 * kMillisecond, 100 * kMillisecond, 0.4, 0);
          }
        }
      }
      return WanTopology::geo(region_of, inter, intra);
    }
  }
  return WanTopology::uniform(n, LinkProfile{});
}

}  // namespace

ScenarioPlan draw_plan(std::uint64_t seed) {
  // All knobs come off this one stream, in this fixed order: the plan is a
  // pure function of the seed (the reproducer contract).
  Rng rng(mix64(seed) ^ 0x63686165'6f730001ULL);

  ScenarioPlan p;
  p.seed = seed;
  p.n = static_cast<std::uint32_t>(rng.uniform(4, 7));
  p.f = (p.n - 1) / 3;  // n=4..6 -> f=1, n=7 -> f=2

  p.wan = static_cast<WanShape>(rng.index(4));
  p.topology = draw_topology(rng, p.wan, p.n);
  // Delta clears the worst propagation + jitter with 2x headroom, so the
  // shape is felt un-clamped and only bandwidth backlog ever saturates to
  // exactly-Delta delivery.
  p.delta_bound = 2 * p.topology.max_latency_plus_jitter() + 5 * kMillisecond;

  p.load = static_cast<LoadShape>(rng.index(3));
  p.clients = static_cast<std::uint32_t>(rng.uniform(1, 3));
  p.outstanding = static_cast<std::uint32_t>(rng.uniform(2, 8));
  p.request_bytes = static_cast<std::uint32_t>(rng.uniform(32, 128));

  const SimTime view_timeout = 9 * p.delta_bound;
  p.load_duration = std::max<SimTime>(draw_time(rng, 250, 600) * kMillisecond,
                                      2 * view_timeout);
  // Offered load targets a bounded submission total, not a fixed rate: WAN
  // shapes stretch view timeouts (and so load_duration), and a fuzz run's
  // cost must stay flat across shapes.
  const auto total_target = static_cast<double>(rng.uniform(300, 1000));
  p.rate_per_sec = std::max(
      50.0, total_target * kSecond / (static_cast<double>(p.clients) *
                                      static_cast<double>(p.load_duration)));
  p.drain_deadline = p.load_duration + 100 * view_timeout + 60 * kSecond;
  // Retries exist to rescue requests stranded in a crashed (or isolated)
  // replica's mempool, not to race normal commit latency -- sit well above
  // the worst faulty-leader rotation stall so healthy requests rarely spill
  // into the at-least-once window.
  p.client_retry_timeout = 4 * view_timeout;

  // --- Byzantine roles: occupy [0, f] budget slots for the whole run. ------
  p.roles.assign(p.n, ByzRole::kHonest);
  const auto byz_count = static_cast<std::uint32_t>(rng.uniform(0, p.f));
  std::uint32_t placed = 0;
  while (placed < byz_count) {
    const auto node = static_cast<NodeId>(rng.index(p.n));
    if (p.roles[node] != ByzRole::kHonest) continue;
    p.roles[node] = static_cast<ByzRole>(1 + rng.index(4));
    ++placed;
  }

  // --- Churn: only with leftover fault budget, sequential windows so at
  // most one node is down at any instant (plus the standing Byzantines,
  // the budget stays <= f). Restarts land before the drain phase begins.
  if (byz_count < p.f) {
    const auto events = static_cast<std::uint32_t>(rng.uniform(0, 2));
    SimTime cursor = draw_time(rng, p.load_duration / 8, p.load_duration / 3);
    for (std::uint32_t e = 0; e < events; ++e) {
      // Churn only honest nodes: a restarted Byzantine would "heal",
      // muddying the budget accounting.
      NodeId victim = 0;
      bool found = false;
      for (std::uint32_t tries = 0; tries < 16 && !found; ++tries) {
        victim = static_cast<NodeId>(rng.index(p.n));
        found = p.roles[victim] == ByzRole::kHonest;
      }
      if (!found) break;
      const SimTime down = draw_time(rng, view_timeout / 2, 3 * view_timeout);
      if (cursor + down >= p.load_duration + 2 * view_timeout) break;
      p.churn.push_back(ChurnEvent{victim, cursor, cursor + down});
      cursor += down + draw_time(rng, view_timeout / 2, view_timeout);
    }
  }

  // --- Pipelining & adaptive batching. APPENDED draws: every knob above
  // keeps its historical value for a given seed (reproducer stability).
  // Roughly half the plan space runs pipelined leaders; adaptive batching
  // rides along on a second coin (the engine's base tx cap is 32).
  if (rng.bernoulli(0.5)) {
    p.pipeline_depth = static_cast<std::uint32_t>(rng.uniform(2, 8));
    if (rng.bernoulli(0.5)) {
      p.adaptive_batch_txs = static_cast<std::uint32_t>(rng.uniform(64, 512));
    }
  }

  // --- Sharding. APPENDED draw (same contract as above: every earlier knob
  // keeps its historical value). Half the plan space gives every honest
  // replica's ShardMux 2 or 4 key-routed chain instances; Byzantine
  // roles stay unsharded, so their route-0 traffic attacks shard 0 while
  // they are effectively silent in the others -- both within budget.
  if (rng.bernoulli(0.5)) {
    p.shards = rng.bernoulli(0.5) ? 2 : 4;
  }
  return p;
}

std::string ScenarioPlan::describe() const {
  char buf[256];
  std::string byz;
  for (NodeId i = 0; i < n; ++i) {
    if (roles[i] != ByzRole::kHonest) {
      byz += byz.empty() ? "" : ",";
      byz += std::to_string(i);
      byz += ':';
      byz += byz_role_name(roles[i]);
    }
  }
  if (byz.empty()) byz = "none";
  std::snprintf(buf, sizeof buf,
                "seed=%llu n=%u f=%u wan=%s delta=%lldms load=%s clients=%u "
                "dur=%lldms byz=[%s] churn=%zu depth=%u adaptive=%u shards=%u",
                static_cast<unsigned long long>(seed), n, f, wan_shape_name(wan),
                static_cast<long long>(delta_bound / kMillisecond),
                load_shape_name(load), clients,
                static_cast<long long>(load_duration / kMillisecond), byz.c_str(),
                churn.size(), pipeline_depth, adaptive_batch_txs, shards);
  return buf;
}

}  // namespace tbft::chaos
