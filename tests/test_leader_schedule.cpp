// Leader reputation (DESIGN_PERF.md "Leader reputation"): view-0 leaders
// derived from finalized history. The schedule is checked against a
// full-history reference on random proposer histories, its commit-state
// blob against malformed input, its carry across WAL restart, checkpoint
// install and the version 2 checkpoint upgrade, and its effect in running
// clusters: a crashed node costs one detection window, and the window one
// view timeout (its later stripes are suspected and ask for their view
// change as they start); only a silent slot's leader is suspected, and
// junk bytes do not end a suspicion; Byzantine nodes get at most f nodes
// skipped, and a run without faults skips no one.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ms_cluster_helpers.hpp"
#include "multishot/leader_schedule.hpp"
#include "storage/durable_chain.hpp"

namespace tbft::test {
namespace {

namespace fs = std::filesystem;
using multishot::Block;
using multishot::FinalizedStore;
using multishot::kProbePeriod;
using multishot::kScheduleLag;
using multishot::LeaderSchedule;
using multishot::MultishotConfig;
using multishot::MultishotNode;
using multishot::rotation_leader;

// --- Reference: the rule restated over the whole history ---------------------

/// Keeps the skip set after every slot and answers leader_of from the set
/// at s - L directly: no lag bookkeeping to get wrong.
struct Reference {
  std::uint32_t n, f, depth;
  std::vector<std::set<NodeId>> after{{}};  // after[x] = skip set once x finalized
  std::vector<bool> failed{false};          // failed[x]: x's proposer was not its view-0 leader

  [[nodiscard]] NodeId leader_of(Slot s, View v) const {
    const std::set<NodeId>& skip = after[s > kScheduleLag ? s - kScheduleLag : 0];
    const NodeId base = rotation_leader(s, 0, n, depth);
    const std::uint64_t stripe = (s + depth - 1) / depth;
    const std::uint64_t per_period = std::max<std::uint64_t>(1, kProbePeriod / (n * depth));
    const bool probe = skip.count(base) > 0 && (stripe / n) % per_period == 0;
    if (probe && v == 0) return base;
    std::vector<NodeId> candidates;  // in rotation order from the base
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId x = (base + i) % n;
      if (skip.count(x) == 0) candidates.push_back(x);
    }
    const auto steps = static_cast<std::uint64_t>(probe ? v - 1 : v);
    return candidates[steps % candidates.size()];
  }

  void apply(Slot x, NodeId proposer) {
    ASSERT_EQ(after.size(), x);
    const NodeId leader = leader_of(x, 0);
    const bool probe = after[x > kScheduleLag ? x - kScheduleLag : 0].count(leader) > 0;
    std::set<NodeId> skip = after.back();
    if (proposer == leader) {
      if (probe) skip.erase(leader);
    } else if (!probe && !failed.back() && skip.size() < f) {
      skip.insert(leader);
    }
    after.push_back(std::move(skip));
    failed.push_back(proposer != leader);
  }
};

/// Random histories: each slot's view-0 leader proposes with probability
/// `p_led`; otherwise some node does (an honest successor after a view
/// change). Node `dead` never proposes after `dead_from`.
void check_against_reference(std::uint32_t n, std::uint32_t f, std::uint32_t depth,
                             std::uint64_t seed, double p_led, Slot slots, NodeId dead,
                             Slot dead_from) {
  SCOPED_TRACE("n=" + std::to_string(n) + " depth=" + std::to_string(depth) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  LeaderSchedule sched(n, f, depth);
  Reference ref{n, f, depth};
  bool any_failed = false;
  for (Slot x = 1; x <= slots; ++x) {
    const NodeId leader = ref.leader_of(x, 0);
    NodeId proposer = leader;
    if ((leader == dead && x >= dead_from) || rng.uniform01() > p_led) {
      do {
        proposer = static_cast<NodeId>(rng.uniform(0, n - 1));
      } while (proposer == dead && x >= dead_from);
    }
    any_failed = any_failed || proposer != leader;
    ref.apply(x, proposer);
    const auto outcome = sched.apply(x, proposer);
    EXPECT_EQ(outcome == LeaderSchedule::Outcome::kSkipped,
              ref.after[x].size() > ref.after[x - 1].size());
    // The skip set never leaves fewer than n - f candidates.
    ASSERT_LE(sched.skipped().size(), f);
    ASSERT_EQ(std::vector<NodeId>(sched.skipped().begin(), sched.skipped().end()),
              std::vector<NodeId>(ref.after[x].begin(), ref.after[x].end()))
        << "slot " << x;
    // Every slot of the window after x, in every view up to two rotations.
    for (Slot s = x + 1; s <= x + kScheduleLag; ++s) {
      for (View v = 0; v <= 2 * n; ++v) {
        const NodeId got = sched.leader_of(s, v);
        ASSERT_EQ(got, ref.leader_of(s, v)) << "slot " << s << " view " << v << " at tip " << x;
        if (!any_failed) {
          ASSERT_EQ(got, rotation_leader(s, v, n, depth));
        }
      }
    }
  }
}

TEST(LeaderScheduleProperty, MatchesTheFullHistoryReference) {
  for (const std::uint32_t depth : {1u, 4u}) {
    check_against_reference(4, 1, depth, 11, 0.97, 1500, 0, 300);
    check_against_reference(7, 2, depth, 12, 0.9, 1500, 3, 100);
    check_against_reference(4, 1, depth, 13, 0.5, 600, 0, ~Slot{0});
  }
}

TEST(LeaderScheduleProperty, ProbesReadmitAcrossProbePeriods) {
  // Long enough for two probe periods: a node dead for a while is probed,
  // fails, is probed again after it recovered, and is readmitted.
  for (const std::uint32_t depth : {1u, 4u}) {
    check_against_reference(4, 1, depth, 21, 0.999, 2 * kProbePeriod + 200, 2, 50);
  }
  // Node 2 alive again after the first probe: readmitted by the second.
  LeaderSchedule sched(4, 1, 1);
  Reference ref{4, 1, 1};
  bool readmitted = false;
  for (Slot x = 1; x <= 2 * kProbePeriod + 200; ++x) {
    const NodeId leader = ref.leader_of(x, 0);
    const bool dead = leader == 2 && x >= 50 && x < kProbePeriod + 100;
    const NodeId proposer = dead ? 3 : leader;
    ref.apply(x, proposer);
    readmitted = readmitted || sched.apply(x, proposer) == LeaderSchedule::Outcome::kReadmitted;
  }
  EXPECT_TRUE(readmitted);
  EXPECT_TRUE(sched.skipped().empty());
}

TEST(LeaderScheduleProperty, PlainRotationWhileNoLeadFails) {
  for (const std::uint32_t depth : {1u, 4u, 16u}) {
    LeaderSchedule sched(4, 1, depth);
    for (Slot x = 1; x <= 3 * kScheduleLag; ++x) {
      EXPECT_EQ(sched.apply(x, rotation_leader(x, 0, 4, depth)), LeaderSchedule::Outcome::kLed);
      for (View v = 0; v < 6; ++v) {
        EXPECT_EQ(sched.leader_of(x + 1, v), rotation_leader(x + 1, v, 4, depth));
      }
    }
    EXPECT_TRUE(sched.skipped().empty());
  }
}

// --- The commit-state blob ------------------------------------------------------

/// A store with a schedule over `slots` blocks in which node 0 fails its
/// view-0 leads from slot `dead_from` on.
FinalizedStore store_with_history(Slot slots, Slot dead_from, std::size_t tail = 8) {
  FinalizedStore store(tail, LeaderSchedule(4, 1, 1));
  std::uint64_t parent = multishot::kGenesisHash;
  for (Slot x = 1; x <= slots; ++x) {
    NodeId proposer = store.schedule().leader_of(x, 0);
    if (proposer == 0 && x >= dead_from) proposer = 1;
    Block b{x, parent, proposer, {0}};
    parent = b.hash();
    store.append(std::move(b));
  }
  return store;
}

std::vector<std::uint8_t> commit_state(const FinalizedStore& store, Slot at) {
  serde::Writer w;
  store.encode_commit_state(w, at);
  return w.take();
}

/// The commit-state blob with the schedule half replaced by `schedule`.
std::vector<std::uint8_t> with_schedule(const FinalizedStore& store, Slot at,
                                        const std::vector<std::uint8_t>& schedule) {
  serde::Writer w;
  store.commit_index().encode(w, at);
  std::vector<std::uint8_t> blob = w.take();
  blob.insert(blob.end(), schedule.begin(), schedule.end());
  return blob;
}

TEST(LeaderScheduleBlob, MalformedBlobsAreRejectedAndChangeNothing) {
  // Node 0 failed at slot 4, so the anchor's state holds one skip and one
  // toggle inside the lag.
  const FinalizedStore source = store_with_history(40, 4);
  const Slot at = 40;
  ASSERT_EQ(std::vector<NodeId>(source.schedule().skipped().begin(),
                                source.schedule().skipped().end()),
            std::vector<NodeId>{0});

  FinalizedStore target(8, LeaderSchedule(4, 1, 1));
  const auto cp = *source.checkpoint_at(at);
  const auto unchanged = [&] {
    EXPECT_EQ(target.tip(), 0u);
    EXPECT_TRUE(target.schedule().skipped().empty());
    EXPECT_EQ(commit_state(target, 0), commit_state(FinalizedStore(8, LeaderSchedule(4, 1, 1)), 0));
  };
  const std::vector<std::uint8_t> good = commit_state(source, at);

  // Truncated anywhere in the schedule half.
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    std::vector<std::uint8_t> torn(good.begin(), good.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(target.install_checkpoint(cp, torn));
    unchanged();
  }
  // Trailing garbage.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(target.install_checkpoint(cp, trailing));
  unchanged();
  // The schedule half is: skips, ids | toggles, (back, node) pairs | tip
  // flag. An empty one is well-formed.
  EXPECT_TRUE(target.install_checkpoint(cp, with_schedule(source, at, {0, 0, 0})));
  target = FinalizedStore(8, LeaderSchedule(4, 1, 1));
  // A node id >= n, in the skip set and in a toggle.
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {1, 4, 0, 0})));
  unchanged();
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {0, 1, 3, 7, 0})));
  unchanged();
  // More than f skips: at the anchor, and at a lag point the toggles undo.
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {2, 0, 1, 0, 0})));
  unchanged();
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {1, 0, 1, 3, 1, 0})));
  unchanged();
  // A non-ascending skip set, toggles out of order, a toggle at or below
  // the floor of the lag (slot at - 40 = 0), and a tip flag other than 0/1.
  FinalizedStore wide(8, LeaderSchedule(7, 2, 1));
  EXPECT_FALSE(wide.install_checkpoint(cp, with_schedule(source, at, {2, 3, 1, 0, 0})));
  EXPECT_TRUE(wide.schedule().skipped().empty());
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {0, 2, 1, 1, 5, 1, 0})));
  unchanged();
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {0, 1, 40, 0, 0})));
  unchanged();
  EXPECT_FALSE(target.install_checkpoint(cp, with_schedule(source, at, {0, 0, 2})));
  unchanged();
  EXPECT_FALSE(target.install_checkpoint(cp, {}));
  unchanged();

  // The well-formed blob installs, and re-encodes byte-identically.
  ASSERT_TRUE(target.install_checkpoint(cp, good));
  EXPECT_EQ(commit_state(target, at), good);
}

TEST(LeaderScheduleBlob, EveryAnchorEncodesLikeAStoreThatStoppedThere) {
  // A compacting store serves any anchor in [checkpoint, tip]: its blob must
  // equal that of a store whose history ends at the anchor, so honest
  // responders with different tips vouch for the same bytes.
  const FinalizedStore full = store_with_history(300, 150, 8);
  ASSERT_GT(full.checkpoint().slot, 200u);
  for (Slot at = full.checkpoint().slot; at <= full.tip(); ++at) {
    EXPECT_EQ(commit_state(full, at), commit_state(store_with_history(at, 150, 8), at))
        << "anchor " << at;
  }
}

// --- Carry across restart, checkpoint install and the file upgrade ------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_leader_schedule_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Same leaders for every slot of the window after the tip, in every view.
void expect_same_window(const FinalizedStore& a, const FinalizedStore& b) {
  ASSERT_EQ(a.tip(), b.tip());
  for (Slot s = a.tip() + 1; s <= a.tip() + kScheduleLag; ++s) {
    for (View v = 0; v <= 8; ++v) {
      ASSERT_EQ(a.schedule().leader_of(s, v), b.schedule().leader_of(s, v))
          << "slot " << s << " view " << v;
    }
  }
}

TEST(LeaderScheduleCarry, WalRestartAndCheckpointInstallMidSkipAgreeWithAPeer) {
  TempDir dir("carry");
  storage::DurableOptions opts;
  opts.segment_bytes = 512;
  opts.flush_every = 1;
  opts.checkpoint_every = 16;
  // Node 0 fails from slot 90 and is skipped at slot 92: at the tip (120)
  // the toggle is still inside the lag, so the window mixes both schedules,
  // and the durable checkpoint already carries the skip.
  FinalizedStore peer(8, LeaderSchedule(4, 1, 1));
  {
    storage::DurableChain durable(dir.path, opts);
    (void)durable.recover();
    std::uint64_t parent = multishot::kGenesisHash;
    for (Slot x = 1; x <= 120; ++x) {
      NodeId proposer = peer.schedule().leader_of(x, 0);
      if (proposer == 0 && x >= 90) proposer = 1;
      Block b{x, parent, proposer, {0}};
      parent = b.hash();
      peer.append(Block{b});
      durable.append(b, peer);
    }
    ASSERT_GT(durable.durable_checkpoint_slot(), 92u);
  }
  ASSERT_EQ(peer.schedule().skipped().size(), 1u);
  // Node 0 still leads slot 124 (lag point 59) but not slot 184 (119).
  ASSERT_EQ(peer.schedule().leader_of(124, 0), 0u);
  ASSERT_EQ(peer.schedule().leader_of(184, 0), 1u);

  // Restart: the durable checkpoint (past the failure) plus the WAL tail.
  storage::DurableChain durable(dir.path, opts);
  storage::RecoveredState rec = durable.recover();
  FinalizedStore restarted(8, LeaderSchedule(4, 1, 1));
  ASSERT_TRUE(restarted.restore(rec.checkpoint, rec.commit_state));
  for (Block& b : rec.tail) restarted.append(std::move(b));
  expect_same_window(restarted, peer);

  // Checkpoint install at the peer's tip.
  FinalizedStore installed(8, LeaderSchedule(4, 1, 1));
  ASSERT_TRUE(installed.install_checkpoint(*peer.checkpoint_at(120), commit_state(peer, 120)));
  expect_same_window(installed, peer);

  // A version 2 file has no schedule: it loads with an empty skip set.
  storage::DurableCheckpoint current;
  ASSERT_TRUE(storage::load_checkpoint(dir.path, current));
  {
    serde::Writer w;
    w.u32(0x4B43'4254);
    w.u32(2);
    current.cp.encode(w);
    // A version 2 commit state is the commit index alone.
    serde::Reader r(current.commit_state);
    const auto index = multishot::CommitIndex::read(r, current.cp.slot);
    ASSERT_TRUE(index.has_value());
    serde::Writer iw;
    index->encode(iw, current.cp.slot);
    w.bytes(iw.span());
    w.u64(fnv1a64(w.span()));
    std::ofstream f(dir.path / "checkpoint", std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(w.data().data()), static_cast<std::streamsize>(w.size()));
  }
  storage::DurableCheckpoint upgraded;
  ASSERT_TRUE(storage::load_checkpoint(dir.path, upgraded));
  FinalizedStore from_v2(8, LeaderSchedule(4, 1, 1));
  ASSERT_TRUE(from_v2.restore(upgraded.cp, upgraded.commit_state));
  EXPECT_TRUE(from_v2.schedule().skipped().empty());
  EXPECT_EQ(from_v2.schedule().leader_of(upgraded.cp.slot + 1, 0),
            rotation_leader(upgraded.cp.slot + 1, 0, 4, 1));
}

// --- Running clusters -------------------------------------------------------------

/// What each node computed right after finalizing each slot x: its skip set
/// and the leaders of every slot of the window after x, views 0..n.
struct ScheduleLog {
  std::vector<std::map<Slot, std::vector<NodeId>>> by_node;
  std::vector<std::map<Slot, std::size_t>> skipped;

  void watch(MultishotNode& node, NodeId id) {
    if (by_node.size() <= id) {
      by_node.resize(id + 1);
      skipped.resize(id + 1);
    }
    node.set_commit_hook([this, &node, id](const Block& b, runtime::Time) {
      std::vector<NodeId> print(node.skipped_leaders().begin(), node.skipped_leaders().end());
      print.push_back(~NodeId{0});
      for (Slot s = b.slot + 1; s <= b.slot + kScheduleLag; ++s) {
        for (View v = 0; v <= node.config().n; ++v) print.push_back(node.leader_of(s, v));
      }
      by_node[id][b.slot] = std::move(print);
      skipped[id][b.slot] = node.skipped_leaders().size();
    });
  }

  /// Every pair of `honest` nodes agrees at every slot both finalized;
  /// returns how many (node, slot) records were compared.
  std::size_t expect_agreement(const std::vector<NodeId>& honest) const {
    std::size_t compared = 0;
    for (const NodeId a : honest) {
      for (const NodeId b : honest) {
        if (a >= b) continue;
        for (const auto& [slot, print] : by_node[a]) {
          const auto it = by_node[b].find(slot);
          if (it == by_node[b].end()) continue;
          EXPECT_EQ(print, it->second) << "nodes " << a << "/" << b << " at slot " << slot;
          ++compared;
        }
      }
    }
    return compared;
  }
};

/// Distinct (slot, view) pairs announced by view-change messages, counted
/// from `from` on (the benchmark's consensus.view_changes).
struct ViewChangeCounter {
  std::set<std::pair<Slot, View>> seen;
  sim::SimTime from{0};
};

sim::AdversaryHook count_view_changes(std::shared_ptr<ViewChangeCounter> vcs) {
  return [vcs](const sim::Envelope& env,
               sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    const auto bytes = env.payload.bytes();
    if (send_time >= vcs->from && !bytes.empty() &&
        bytes[0] == static_cast<std::uint8_t>(multishot::MsType::ViewChange)) {
      if (const auto m = multishot::decode_ms(bytes)) {
        const auto& vc = std::get<multishot::MsViewChange>(*m);
        vcs->seen.emplace(vc.slot, vc.view);
      }
    }
    return std::nullopt;
  };
}

Slot min_live_finalized(const MsCluster& c, const std::vector<NodeId>& live) {
  Slot m = ~Slot{0};
  for (const NodeId i : live) m = std::min(m, c.nodes[i]->finalized_count());
  return m;
}

void crashed_leader_costs_one_window(std::uint32_t depth) {
  SCOPED_TRACE("depth " + std::to_string(depth));
  constexpr Slot kCrashAt = 100;
  const Slot target = 2 * kProbePeriod + 400;  // two probe periods
  auto vcs = std::make_shared<ViewChangeCounter>();
  MsClusterOptions opts;
  opts.max_slots = target + 100;
  opts.pipeline_depth = depth;
  opts.adversary = count_view_changes(vcs);
  auto c = make_ms_cluster(opts);
  ScheduleLog log;
  for (NodeId i = 0; i < 4; ++i) log.watch(*c.nodes[i], i);
  ASSERT_TRUE(c.run_until_finalized(kCrashAt, 100 * c.timeout()));
  EXPECT_TRUE(vcs->seen.empty());  // no fault, no view change
  vcs->from = c.sim->now();
  c.sim->crash_node(0);
  const std::vector<NodeId> live{1, 2, 3};
  ASSERT_TRUE(c.sim->run_until_pred([&] { return min_live_finalized(c, live) >= target; },
                                    c.sim->now() + 2000 * c.timeout()));
  // One detection window: node 0's stripes inside the lag after its first
  // failed lead, then one failed probe per probe period.
  const std::size_t window = (kScheduleLag + 4 * depth - 1) / (4 * depth);
  const std::size_t probes = target / kProbePeriod;
  EXPECT_LE(vcs->seen.size(), window + probes);
  EXPECT_GE(vcs->seen.size(), 1u);
  for (const NodeId i : live) {
    EXPECT_EQ(std::vector<NodeId>(c.nodes[i]->skipped_leaders().begin(),
                                  c.nodes[i]->skipped_leaders().end()),
              std::vector<NodeId>{0});
  }
  EXPECT_GE(c.sim->metrics().counter("multishot.leader.probes").value(), 2u);
  EXPECT_GT(log.expect_agreement(live), 0u);
  EXPECT_TRUE(c.chains_consistent());
}

TEST(LeaderScheduleCluster, CrashedLeaderCostsOneDetectionWindowDepthOne) {
  crashed_leader_costs_one_window(1);
}

TEST(LeaderScheduleCluster, CrashedLeaderCostsOneDetectionWindowDepthFour) {
  crashed_leader_costs_one_window(4);
}

/// Live nodes' time to finalize the 100 slots after node 0 crashes at slot
/// 100: about one view timeout for node 0's first failed lead, a few message
/// delays for each later stripe of it in the lag (their view changes are
/// asked for as they start), then one slot per delay.
void crashed_window_costs_one_timeout(std::uint32_t depth) {
  SCOPED_TRACE("depth " + std::to_string(depth));
  constexpr Slot kCrashAt = 100;
  MsClusterOptions opts;
  opts.max_slots = kCrashAt + 200;
  opts.pipeline_depth = depth;
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(kCrashAt, 100 * c.timeout()));
  const sim::SimTime crashed = c.sim->now();
  c.sim->crash_node(0);
  const std::vector<NodeId> live{1, 2, 3};
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return min_live_finalized(c, live) >= kCrashAt + 100; }, crashed + 100 * c.timeout()));
  EXPECT_LE(c.sim->now() - crashed, 3 * c.timeout());
  EXPECT_GT(c.sim->metrics().counter("multishot.viewchange.suspected").value(), 0u);
  for (const NodeId i : live) {
    const auto peers = c.nodes[i]->peer_health();
    EXPECT_GT(peers[0].suspect_until, kCrashAt) << "node " << i;
    for (const NodeId j : live) {
      EXPECT_EQ(peers[j].suspect_until, 0u) << "node " << i << " suspects " << j;
    }
  }
  EXPECT_TRUE(c.chains_consistent());
}

TEST(LeaderScheduleCluster, CrashedLeaderWindowCostsOneTimeout) {
  crashed_window_costs_one_timeout(1);
  crashed_window_costs_one_timeout(4);
}

/// The latest end slot of each node's suspicion that each node ever held,
/// sampled after every simulation event: a suspicion can end within one
/// message delay, at the suspect's next well-formed message.
struct SuspicionLog {
  std::vector<std::vector<Slot>> max_until;

  void sample(const MsCluster& c) {
    max_until.resize(c.nodes.size());
    for (NodeId i = 0; i < c.nodes.size(); ++i) {
      if (c.nodes[i] == nullptr) continue;
      const auto peers = c.nodes[i]->peer_health();
      max_until[i].resize(peers.size());
      for (NodeId j = 0; j < peers.size(); ++j) {
        max_until[i][j] = std::max(max_until[i][j], peers[j].suspect_until);
      }
    }
  }
};

TEST(LeaderScheduleCluster, OnlyTheSilentSlotsLeaderIsSuspected) {
  // Node 0 withholds one proposal and stays up. The view change that moves
  // its slot suspects node 0 alone -- not the leader of the lower, notarized
  // slot the timeout names -- until kScheduleLag slots past the silent one,
  // and its next message ends the suspicion: its later stripes are not
  // asked to view-change.
  constexpr Slot kSilent = 40;
  ASSERT_EQ(rotation_leader(kSilent, 0, 4, 1), 0u);
  auto vcs = std::make_shared<ViewChangeCounter>();
  MsClusterOptions opts;
  opts.max_slots = 300;
  opts.adversary = count_view_changes(vcs);
  opts.make_node = [](NodeId id,
                      const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id != 0) return nullptr;
    return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{kSilent});
  };
  auto c = make_ms_cluster(opts);
  SuspicionLog log;
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        log.sample(c);
        return c.min_finalized() >= 290;
      },
      1000 * c.timeout()));
  for (NodeId i = 0; i < 4; ++i) {
    // The silent node does not suspect itself.
    EXPECT_EQ(log.max_until[i][0], i == 0 ? 0 : kSilent + kScheduleLag) << "node " << i;
    for (NodeId j = 1; j < 4; ++j) {
      EXPECT_EQ(log.max_until[i][j], 0u) << "node " << i << " suspects " << j;
    }
    EXPECT_EQ(c.nodes[i]->peer_health()[0].suspect_until, 0u) << "node " << i;
  }
  EXPECT_EQ(c.sim->metrics().counter("multishot.viewchange.suspected").value(), 0u);
  for (const auto& [slot, view] : vcs->seen) {
    EXPECT_GE(slot + 4, kSilent) << "view " << view;
    EXPECT_LE(slot, kSilent) << "view " << view;
  }
  EXPECT_TRUE(c.chains_consistent());
}

TEST(LeaderScheduleCluster, JunkBytesDoNotEndASuspicion) {
  // Node 3 sends nothing but junk, every millisecond. Its silent slots make
  // it a suspect, and malformed bytes are no sign of life: once an honest
  // node suspects it, the suspicion never ends early, and its later stripes
  // ask for their view change as they start.
  MsClusterOptions opts;
  opts.max_slots = 200;
  opts.pipeline_depth = 4;
  opts.make_node = [](NodeId id, const MultishotConfig&) -> std::unique_ptr<sim::ProtocolNode> {
    if (id != 3) return nullptr;
    return std::make_unique<sim::RandomJunkNode>(sim::kMillisecond);
  };
  auto c = make_ms_cluster(opts);
  std::vector<Slot> until(3, 0);  // node i's last sampled suspicion of node 3
  std::size_t suspected = 0;      // samples of an honest node suspecting node 3
  std::size_t cleared = 0;        // samples where one stopped suspecting it
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] {
        for (NodeId i = 0; i < 3; ++i) {
          const Slot now = c.nodes[i]->peer_health()[3].suspect_until;
          if (now < until[i]) ++cleared;
          if (now != 0) ++suspected;
          until[i] = now;
        }
        return c.min_finalized() >= 150;
      },
      1000 * c.timeout()));
  EXPECT_GT(suspected, 0u);
  EXPECT_EQ(cleared, 0u);
  EXPECT_GT(c.sim->metrics().counter("multishot.viewchange.suspected").value(), 0u);
  EXPECT_GT(c.sim->metrics().counter("multishot.malformed").value(), 0u);
  EXPECT_TRUE(c.chains_consistent());
}

TEST(LeaderScheduleCluster, EquivocatorGetsNoHonestNodeSuspected) {
  // An equivocated slot has its view-0 proposals, and so do the honest
  // successors its view change drags along: none of them is silent.
  for (const std::uint32_t depth : {1u, 4u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    MsClusterOptions opts;
    opts.max_slots = 300;
    opts.pipeline_depth = depth;
    opts.make_node = [](NodeId id,
                        const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
      if (id != 1) return nullptr;
      return std::make_unique<multishot::EquivocatingProposer>(cfg);
    };
    auto c = make_ms_cluster(opts);
    const std::vector<NodeId> honest{0, 2, 3};
    SuspicionLog log;
    ASSERT_TRUE(c.sim->run_until_pred(
        [&] {
          log.sample(c);
          return min_live_finalized(c, honest) >= 290;
        },
        2000 * c.timeout()));
    for (const NodeId i : honest) {
      for (const NodeId j : honest) {
        EXPECT_EQ(log.max_until[i][j], 0u) << "node " << i << " suspects " << j;
      }
    }
    EXPECT_TRUE(c.chains_consistent());
  }
}

/// Senders of each MsViewChange{slot, 1} announced from `from` on.
struct ViewOneAsks {
  std::map<Slot, std::set<NodeId>> senders;
  sim::SimTime from{0};
};

TEST(LeaderScheduleCluster, RestartedNodeJoinsThePreemptiveViewChanges) {
  // Node 0 crashes at slot 100; node 1 restarts from its WAL inside the
  // suspicion, so it holds none. The live nodes' requests reach it through
  // the echo: it asks for view 1 at every later slot of node 0's. The
  // restart itself stalls the chain for about four timeouts (its
  // unfinalized slots are gone); the stripes after it cost none each.
  constexpr Slot kCrashAt = 100;
  TempDir dir("suspect_restart");
  storage::DurableOptions dopts;
  dopts.flush_every = 1;
  dopts.checkpoint_every = 16;
  std::vector<std::unique_ptr<storage::DurableChain>> durables;
  auto asks = std::make_shared<ViewOneAsks>();
  MsClusterOptions opts;
  opts.max_slots = kCrashAt + 200;
  opts.adversary = [asks](const sim::Envelope& env,
                          sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    const auto bytes = env.payload.bytes();
    if (send_time >= asks->from && !bytes.empty() &&
        bytes[0] == static_cast<std::uint8_t>(multishot::MsType::ViewChange)) {
      if (const auto m = multishot::decode_ms(bytes)) {
        const auto& vc = std::get<multishot::MsViewChange>(*m);
        if (vc.view == 1) asks->senders[vc.slot].insert(env.src);
      }
    }
    return std::nullopt;
  };
  opts.make_node = [&](NodeId id,
                       const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id != 1) return nullptr;
    auto node = std::make_unique<MultishotNode>(cfg);
    durables.push_back(std::make_unique<storage::DurableChain>(dir.path, dopts));
    durables.back()->attach(*node);
    return node;
  };
  auto c = make_ms_cluster(opts);
  ASSERT_TRUE(c.run_until_finalized(kCrashAt, 100 * c.timeout()));
  const sim::SimTime crashed = c.sim->now();
  c.sim->crash_node(0);
  const std::vector<NodeId> live{1, 2, 3};
  ASSERT_TRUE(c.sim->run_until_pred([&] { return min_live_finalized(c, live) >= kCrashAt + 20; },
                                    crashed + 100 * c.timeout()));
  ASSERT_GT(c.nodes[2]->peer_health()[0].suspect_until, c.nodes[2]->finalized_count() + 20);

  c.sim->crash_node(1);
  durables.push_back(std::make_unique<storage::DurableChain>(dir.path, dopts));
  auto fresh = std::make_unique<MultishotNode>(c.nodes[1]->config());
  durables.back()->attach(*fresh);
  EXPECT_EQ(fresh->peer_health()[0].suspect_until, 0u);
  c.nodes[1] = fresh.get();
  c.sim->restart_node(1, std::move(fresh));
  const Slot restarted_at = c.nodes[2]->finalized_count();
  asks->from = c.sim->now();
  ASSERT_TRUE(c.sim->run_until_pred(
      [&] { return min_live_finalized(c, live) >= kCrashAt + 100; }, crashed + 100 * c.timeout()));
  EXPECT_LE(c.sim->now() - crashed, 8 * c.timeout());
  // Every view-1 request past the restart, up to the end of the suspicion,
  // is for one of node 0's slots, and the restarted node joined each one.
  std::size_t joined = 0;
  for (const auto& [slot, senders] : asks->senders) {
    if (slot <= restarted_at + 4 || slot > c.nodes[2]->peer_health()[0].suspect_until) continue;
    EXPECT_EQ(rotation_leader(slot, 0, 4, 1), 0u) << "slot " << slot;
    EXPECT_EQ(senders.count(1), 1u) << "slot " << slot;
    ++joined;
  }
  EXPECT_GE(joined, 3u);
  EXPECT_TRUE(c.chains_consistent());
}

void byzantine_skip_at_most_f(std::uint32_t n, std::uint32_t depth) {
  SCOPED_TRACE("n=" + std::to_string(n) + " depth=" + std::to_string(depth));
  const std::uint32_t f = (n - 1) / 3;
  MsClusterOptions opts;
  opts.n = n;
  opts.f = f;
  opts.max_slots = 400;
  opts.pipeline_depth = depth;
  // Node 0 never proposes; with f = 2, node 1 equivocates on every slot.
  opts.make_node = [f](NodeId id,
                        const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) {
      std::set<Slot> all;
      for (Slot s = 1; s <= 500; ++s) all.insert(s);
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::move(all));
    }
    if (id == 1 && f >= 2) return std::make_unique<multishot::EquivocatingProposer>(cfg);
    return nullptr;
  };
  auto c = make_ms_cluster(opts);
  ScheduleLog log;
  for (NodeId i = 0; i < n; ++i) log.watch(*c.nodes[i], i);
  std::vector<NodeId> honest;
  for (NodeId i = f; i < n; ++i) honest.push_back(i);
  ASSERT_TRUE(c.sim->run_until_pred([&] { return min_live_finalized(c, honest) >= 380; },
                                    2000 * c.timeout()));
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [slot, count] : log.skipped[i]) {
      ASSERT_LE(count, f) << "node " << i << " slot " << slot;
    }
  }
  EXPECT_GT(log.expect_agreement(honest), 0u);
  // Alone, the silent node is skipped once its failure is agreed. With an
  // equivocator beside it most slots view-change, and the blame can land
  // on honest nodes first -- bounded by f all the same.
  if (f == 1) {
    const auto skipped = c.nodes[honest[0]]->skipped_leaders();
    EXPECT_EQ(std::vector<NodeId>(skipped.begin(), skipped.end()), std::vector<NodeId>{0});
  }
  EXPECT_TRUE(c.chains_consistent());
}

TEST(LeaderScheduleCluster, ByzantineNodesGetAtMostFSkipped) {
  for (const std::uint32_t depth : {1u, 4u}) {
    byzantine_skip_at_most_f(4, depth);
    byzantine_skip_at_most_f(7, depth);
  }
}

TEST(LeaderScheduleCluster, NoFaultRunSkipsNoOne) {
  for (const std::uint32_t depth : {1u, 4u}) {
    MsClusterOptions opts;
    opts.max_slots = 600;
    opts.pipeline_depth = depth;
    auto c = make_ms_cluster(opts);
    ScheduleLog log;
    for (NodeId i = 0; i < 4; ++i) log.watch(*c.nodes[i], i);
    ASSERT_TRUE(c.run_until_finalized(590, 1000 * c.timeout()));
    for (NodeId i = 0; i < 4; ++i) {
      for (const auto& [slot, count] : log.skipped[i]) ASSERT_EQ(count, 0u) << "slot " << slot;
    }
    EXPECT_EQ(c.sim->metrics().counter("multishot.leader.skipped").value(), 0u);
    EXPECT_GT(log.expect_agreement({0, 1, 2, 3}), 0u);
  }
}

TEST(LeaderScheduleCluster, RestartedNodeComputesThePeersSchedule) {
  // Node 0 stays silent (skipped); node 1 crashes mid-skip and restarts from
  // its WAL and durable checkpoint. After the restart it computes the same
  // leaders, slot for slot, as the peers that never stopped.
  TempDir dir("restart");
  storage::DurableOptions dopts;
  dopts.flush_every = 1;
  dopts.checkpoint_every = 16;
  std::vector<std::unique_ptr<storage::DurableChain>> durables;
  MsClusterOptions opts;
  opts.max_slots = 500;
  opts.make_node = [&](NodeId id,
                        const MultishotConfig& cfg) -> std::unique_ptr<sim::ProtocolNode> {
    if (id == 0) {
      std::set<Slot> all;
      for (Slot s = 1; s <= 600; ++s) all.insert(s);
      return std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::move(all));
    }
    if (id != 1) return nullptr;
    auto node = std::make_unique<MultishotNode>(cfg);
    durables.push_back(std::make_unique<storage::DurableChain>(dir.path, dopts));
    durables.back()->attach(*node);
    return node;
  };
  auto c = make_ms_cluster(opts);
  ScheduleLog log;
  for (NodeId i = 0; i < 4; ++i) log.watch(*c.nodes[i], i);
  ASSERT_TRUE(c.run_until_finalized(150, 1000 * c.timeout()));
  ASSERT_FALSE(c.nodes[2]->skipped_leaders().empty());

  c.sim->crash_node(1);
  log.by_node[1].clear();
  durables.push_back(std::make_unique<storage::DurableChain>(dir.path, dopts));
  auto fresh = std::make_unique<MultishotNode>(c.nodes[1]->config());
  durables.back()->attach(*fresh);
  EXPECT_FALSE(fresh->skipped_leaders().empty());
  c.nodes[1] = fresh.get();
  log.watch(*fresh, 1);
  c.sim->restart_node(1, std::move(fresh));
  ASSERT_TRUE(c.sim->run_until_pred([&] { return min_live_finalized(c, {1, 2, 3}) >= 450; },
                                    c.sim->now() + 1000 * c.timeout()));
  EXPECT_GT(log.by_node[1].size(), 200u);
  EXPECT_GT(log.expect_agreement({1, 2, 3}), 0u);
  EXPECT_TRUE(c.chains_consistent());
}

}  // namespace
}  // namespace tbft::test
