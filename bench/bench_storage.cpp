// Finalized-chain storage bench (DESIGN_PERF.md "Finalized-chain storage"):
// enforces the storage engine's contract by exit code.
//
//   1. BOUNDED MEMORY: resident finalized-chain bytes are O(tail), flat
//      across a long run -- sampled at the half-way point and the end of a
//      `slots`-slot drive through the real ChainStore, the end figure must
//      not exceed the midpoint figure (+2% slack), and both must sit far
//      below what the pre-compaction std::vector<Block> layout would hold.
//   2. COMMIT INDEX: tx_finalized through the open-addressing commit index
//      must be >= `min_index_speedup` (default 10x) faster than the
//      whole-chain linear scan it replaced, measured per query over the
//      same committed transactions.
//   3. RANGE SYNC: a node that missed `gap` slots (cut off from proposals
//      and catch-up traffic while the other three keep finalizing) must
//      reach the tip through the pipelined sync protocol while the chain
//      keeps growing -- the few blocks a view-change reply carries could
//      never close a four-digit gap against live traffic.
//   4. RECOVERY REPLAY: a crashed node must come back fast -- replaying a
//      `slots`-record WAL (checksum + parent-linkage verified per record)
//      must sustain >= 100k blocks/sec.
//   5. DURABLE LOGGING: wiring the WAL into the finalized hook must cost
//      <= 15% of commit throughput, measured as the wall-clock delta of two
//      otherwise identical 4-node sim runs (in-memory vs data_dir).
//   6. BOUNDED COMMIT INDEX: at 64 transactions per slot, the commit
//      index's resident bytes over a `slots`-slot run are flat (end <= mid
//      + 2%) -- entries older than the dedup horizon behind the checkpoint
//      are evicted instead of accumulating.
//
// Run: bench_storage [slots] [gap] [min_index_speedup]. Exit code 0 iff all
// invariants hold. Emits BENCH_storage.json for trajectory tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "multishot/chain.hpp"
#include "multishot/node.hpp"
#include "sim/runtime.hpp"
#include "storage/durable_chain.hpp"
#include "storage/wal.hpp"

namespace tbft::bench {
namespace {

using namespace tbft::multishot;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Part 1: bounded resident memory over a long finalizing run -----------

struct MemoryResult {
  std::size_t resident_mid{0};
  std::size_t resident_end{0};
  std::size_t naive_end{0};  // what the unbounded vector layout would hold
  bool flat{false};
};

MemoryResult run_memory(std::uint64_t slots) {
  MemoryResult res;
  ChainStore chain;  // default tail: the production configuration
  std::uint64_t parent = kGenesisHash;
  std::size_t naive = 0;
  for (Slot s = 1; s <= slots; ++s) {
    Block b{s, parent, static_cast<NodeId>(s % 4), {0, 0, 0, 0, 0, 0, 0, 0}};
    parent = b.hash();
    naive += sizeof(Block) + b.payload.size();
    chain.add_block(b);
    chain.notarize(s, 0, b.hash());
    chain.try_finalize();
    if (s == slots / 2) res.resident_mid = chain.finalized().resident_bytes();
  }
  res.resident_end = chain.finalized().resident_bytes();
  res.naive_end = naive;
  // Flat: the second half of the run added nothing (2% slack absorbs the
  // commit-index table should payloads ever carry frames here).
  res.flat = res.resident_end <= res.resident_mid + res.resident_mid / 50;
  return res;
}

// --- Part 2: commit-index lookup vs the replaced whole-chain scan ----------

/// The seed's tx_finalized: walk every finalized block's frames per query.
bool scan_tx_finalized(const std::vector<Block>& chain,
                       std::span<const std::uint8_t> tx) {
  for (const auto& b : chain) {
    for (const auto& f : payload_frames(b.payload)) {
      if (f.size() == tx.size() && std::equal(f.begin(), f.end(), tx.begin())) return true;
    }
  }
  return false;
}

struct IndexResult {
  double index_ns_per_query{0};
  double scan_ns_per_query{0};
  double speedup{0};
  bool all_found{true};
};

IndexResult run_index(std::size_t blocks, std::size_t txs_per_block) {
  // Build one chain twice: through the store (index) and as the flat vector
  // the scan baseline needs.
  FinalizedStore store(blocks + 8);  // all resident: byte-exact probes
  std::vector<Block> flat;
  std::vector<std::vector<std::uint8_t>> txs;
  std::uint64_t parent = kGenesisHash;
  std::uint32_t counter = 0;
  for (Slot s = 1; s <= slot_count(blocks); ++s) {
    serde::Writer w;
    w.varint(0);
    for (std::size_t i = 0; i < txs_per_block; ++i) {
      std::vector<std::uint8_t> tx(24, 0);
      ++counter;
      std::memcpy(tx.data(), &counter, sizeof(counter));
      w.bytes(tx);
      txs.push_back(std::move(tx));
    }
    Block b{s, parent, 0, w.take()};
    parent = b.hash();
    flat.push_back(b);
    store.append(std::move(b));
  }

  IndexResult res;
  const std::size_t index_queries = 200000;
  const std::size_t scan_queries = 200;

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < index_queries; ++q) {
    res.all_found &= store.commit_slot(txs[(q * 7919) % txs.size()]) != 0;
  }
  res.index_ns_per_query = seconds_since(t0) * 1e9 / static_cast<double>(index_queries);

  t0 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < scan_queries; ++q) {
    res.all_found &= scan_tx_finalized(flat, txs[(q * 7919) % txs.size()]);
  }
  res.scan_ns_per_query = seconds_since(t0) * 1e9 / static_cast<double>(scan_queries);
  res.speedup = res.scan_ns_per_query / res.index_ns_per_query;
  return res;
}

// --- Part 3: range-sync catch-up against a growing chain -------------------

struct SyncResult {
  Slot tip_at_heal{0};
  Slot tip_at_catchup{0};
  Slot victim_at_heal{0};
  double catchup_sim_ms{0};
  double blocks_per_sim_sec{0};
  std::uint64_t chunks{0};
  std::uint64_t requests{0};
  bool caught_up{false};
  bool traffic_continued{false};
};

SyncResult run_sync(Slot gap) {
  sim::SimConfig sc;
  sc.seed = 7;
  sc.net.gst = 3600 * sim::kSecond;  // the adversary decides every delivery
  sc.keep_message_trace = false;
  sim::Simulation simulation(sc);

  MultishotConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.delta_bound = 10 * sim::kMillisecond;
  // Short view timeout: the starved victim leads every 4th slot, and each of
  // its slots past its window costs one view-change round while the gap
  // builds -- the build phase, not the measured sync, dominates otherwise.
  cfg.timeout_delta_multiple = 2;
  cfg.max_slots = gap * 4;
  // The bench sizes the tail to serve a gap-deep straggler; a production
  // deployment picks the deepest lag it is willing to heal by range sync
  // (anything deeper needs checkpoint state transfer).
  cfg.finalized_tail = static_cast<std::size_t>(gap) * 3;

  std::vector<MultishotNode*> nodes;
  for (NodeId i = 0; i < cfg.n; ++i) {
    auto node = std::make_unique<MultishotNode>(cfg);
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }

  // Build phase: node 3 sees no proposals and no catch-up traffic, so the
  // gap grows organically while the other three keep finalizing.
  auto cut_off = std::make_shared<bool>(true);
  simulation.network().set_adversary(
      [cut_off](const sim::Envelope& env, sim::SimTime at)
          -> std::optional<sim::DeliveryDecision> {
        const std::uint8_t tag = env.payload.empty() ? 0 : env.payload.front();
        const bool starve = tag == static_cast<std::uint8_t>(MsType::Proposal) ||
                            tag == static_cast<std::uint8_t>(MsType::SyncChunk);
        if (*cut_off && env.dst == 3 && starve) {
          return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
        }
        return sim::DeliveryDecision{.drop = false, .deliver_at = at + sim::kMillisecond};
      });

  simulation.start();
  SyncResult res;
  const auto gap_built = [&] { return nodes[0]->finalized_count() >= gap; };
  if (!simulation.run_until_pred(gap_built, 3600 * sim::kSecond)) return res;

  *cut_off = false;  // heal: catch-up traffic flows again
  res.tip_at_heal = nodes[0]->finalized_count();
  res.victim_at_heal = nodes[3]->finalized_count();
  const sim::SimTime healed_at = simulation.now();

  const auto caught = [&] {
    Slot longest = 0;
    for (const auto* n : nodes) longest = std::max(longest, n->finalized_count());
    return nodes[3]->finalized_count() + 8 >= longest;
  };
  res.caught_up = simulation.run_until_pred(caught, healed_at + 3600 * sim::kSecond);
  res.tip_at_catchup = nodes[0]->finalized_count();
  res.traffic_continued = res.tip_at_catchup > res.tip_at_heal;
  const sim::SimTime took = simulation.now() - healed_at;
  res.catchup_sim_ms = static_cast<double>(took) / sim::kMillisecond;
  const Slot gained = nodes[3]->finalized_count() - res.victim_at_heal;
  if (took > 0) {
    res.blocks_per_sim_sec =
        static_cast<double>(gained) * sim::kSecond / static_cast<double>(took);
  }
  res.chunks = simulation.metrics().counter("multishot.sync.chunks_sent").value();
  res.requests = simulation.metrics().counter("multishot.sync.requests").value();
  return res;
}

// --- Part 4: WAL recovery replay throughput --------------------------------

struct RecoveryResult {
  std::uint64_t blocks{0};
  double blocks_per_sec{0};
  bool complete{false};  // every appended record replayed, nothing dropped
};

RecoveryResult run_recovery(std::uint64_t blocks) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tbft_bench_storage_wal";
  fs::remove_all(dir);

  std::uint64_t parent = kGenesisHash;
  {
    // Huge segment + lazy flush: the write side is not what is measured.
    storage::WriteAheadLog wal(dir, /*segment_bytes=*/256u << 20,
                               /*flush_every=*/1u << 20);
    for (Slot s = 1; s <= blocks; ++s) {
      Block b{s, parent, static_cast<NodeId>(s % 4),
              std::vector<std::uint8_t>(64, static_cast<std::uint8_t>(s))};
      parent = b.hash();
      wal.append(b);
    }
    wal.flush();
  }

  RecoveryResult res;
  res.blocks = blocks;
  storage::WriteAheadLog replay(dir, 256u << 20, 1u << 20);
  const auto t0 = std::chrono::steady_clock::now();
  const storage::WalRecoveryResult rec = replay.recover(0, kGenesisHash);
  const double secs = seconds_since(t0);
  res.complete = rec.blocks.size() == blocks && !rec.truncated;
  if (secs > 0) res.blocks_per_sec = static_cast<double>(rec.blocks.size()) / secs;
  fs::remove_all(dir);
  return res;
}

// --- Part 5: durable-logging overhead on commit throughput ------------------

struct OverheadResult {
  double memory_wall_s{0};
  double durable_wall_s{0};
  double overhead_pct{0};
};

/// Wall-clock for a 4-node sim finalizing `slots` slots; with `durable`, every
/// node persists through the production on-finalized -> DurableChain path
/// (default flush cadence -- the deployment configuration).
double drive_sim(Slot slots, bool durable) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "tbft_bench_storage_overhead";
  if (durable) fs::remove_all(root);

  sim::SimConfig sc;
  sc.seed = 7;
  sc.keep_message_trace = false;
  sim::Simulation simulation(sc);

  MultishotConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.delta_bound = 10 * sim::kMillisecond;
  cfg.max_slots = slots;
  cfg.default_payload_bytes = 256;

  std::vector<MultishotNode*> nodes;
  std::vector<std::unique_ptr<storage::DurableChain>> durables;
  for (NodeId i = 0; i < cfg.n; ++i) {
    auto node = std::make_unique<MultishotNode>(cfg);
    if (durable) {
      durables.push_back(std::make_unique<storage::DurableChain>(
          root / ("node-" + std::to_string(i))));
      node->set_durable(durables.back().get());
    }
    nodes.push_back(node.get());
    simulation.add_node(std::move(node));
  }

  simulation.start();
  const auto t0 = std::chrono::steady_clock::now();
  simulation.run_until_pred(
      [&] {
        for (const auto* n : nodes) {
          if (n->finalized_count() < slots) return false;
        }
        return true;
      },
      3600 * sim::kSecond);
  const double secs = seconds_since(t0);
  if (durable) fs::remove_all(root);
  return secs;
}

OverheadResult run_overhead(Slot slots) {
  OverheadResult res;
  // Interleaved best-of-two per mode damps one-off scheduler noise.
  res.memory_wall_s = drive_sim(slots, false);
  res.durable_wall_s = drive_sim(slots, true);
  res.memory_wall_s = std::min(res.memory_wall_s, drive_sim(slots, false));
  res.durable_wall_s = std::min(res.durable_wall_s, drive_sim(slots, true));
  res.overhead_pct =
      (res.durable_wall_s / res.memory_wall_s - 1.0) * 100.0;
  return res;
}

// --- Part 6: commit-index memory under the dedup horizon --------------------

struct IndexMemResult {
  std::size_t resident_mid{0};
  std::size_t resident_end{0};
  std::size_t entries_end{0};
  bool flat{false};
};

IndexMemResult run_index_memory(std::uint64_t slots) {
  constexpr std::uint32_t kTxsPerSlot = 64;
  IndexMemResult res;
  ChainStore chain;
  std::uint64_t parent = kGenesisHash;
  std::uint32_t counter = 0;
  std::vector<std::uint8_t> tx(24, 0);
  for (Slot s = 1; s <= slots; ++s) {
    // A full batch of distinct 24-byte transactions per block: every slot
    // feeds the commit index at a real batch size.
    serde::Writer w;
    w.varint(0);
    for (std::uint32_t i = 0; i < kTxsPerSlot; ++i) {
      ++counter;
      std::memcpy(tx.data(), &counter, sizeof(counter));
      w.bytes(tx);
    }
    Block b{s, parent, static_cast<NodeId>(s % 4), w.take()};
    parent = b.hash();
    chain.add_block(b);
    chain.notarize(s, 0, b.hash());
    chain.try_finalize();
    if (s == slots / 2) res.resident_mid = chain.finalized().commit_index().resident_bytes();
  }
  res.resident_end = chain.finalized().commit_index().resident_bytes();
  res.entries_end = chain.finalized().commit_index().size();
  res.flat = res.resident_end <= res.resident_mid + res.resident_mid / 50;
  return res;
}

}  // namespace
}  // namespace tbft::bench

int main(int argc, char** argv) {
  using namespace tbft;
  using namespace tbft::bench;

  const std::uint64_t slots = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const Slot gap = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1500;
  const double min_index_speedup = argc > 3 ? std::atof(argv[3]) : 10.0;

  std::printf("== bench_storage: finalized-chain storage engine (slots=%llu, gap=%llu) ==\n",
              static_cast<unsigned long long>(slots), static_cast<unsigned long long>(gap));

  const MemoryResult mem = run_memory(slots);
  std::printf("resident bytes: mid=%zu end=%zu (unbounded layout would hold %zu, %.0fx) %s\n",
              mem.resident_mid, mem.resident_end, mem.naive_end,
              static_cast<double>(mem.naive_end) / static_cast<double>(mem.resident_end),
              mem.flat ? "[ok: flat]" : "[FAIL: grew past the tail]");

  const IndexResult idx = run_index(4096, 4);
  std::printf("commit lookup: index %.0f ns/query, scan %.0f ns/query -> %.0fx %s %.0fx]%s\n",
              idx.index_ns_per_query, idx.scan_ns_per_query, idx.speedup,
              idx.speedup >= min_index_speedup ? "[ok: >=" : "[FAIL: <", min_index_speedup,
              idx.all_found ? "" : " [FAIL: lookups missed commits]");

  const double min_replay_rate = 100000.0;  // blocks/sec (ISSUE 6 gate)
  const double max_overhead_pct = 15.0;     // of commit throughput

  const RecoveryResult rec = run_recovery(slots);
  std::printf("recovery replay: %llu blocks at %.0f blocks/sec %s%s\n",
              static_cast<unsigned long long>(rec.blocks), rec.blocks_per_sec,
              rec.blocks_per_sec >= min_replay_rate ? "[ok: >= 100k/s]"
                                                    : "[FAIL: < 100k/s]",
              rec.complete ? "" : " [FAIL: records lost in replay]");

  const OverheadResult ovh = run_overhead(2000);
  std::printf("durable logging: %.3fs in-memory vs %.3fs durable -> %+.1f%% %s\n",
              ovh.memory_wall_s, ovh.durable_wall_s, ovh.overhead_pct,
              ovh.overhead_pct <= max_overhead_pct ? "[ok: <= 15%]"
                                                   : "[FAIL: > 15%]");

  const IndexMemResult idxmem = run_index_memory(slots);
  std::printf("commit index (64 txs/slot): mid=%zu end=%zu bytes, %zu entries resident %s\n",
              idxmem.resident_mid, idxmem.resident_end, idxmem.entries_end,
              idxmem.flat ? "[ok: flat]" : "[FAIL: grew]");

  const SyncResult sync = run_sync(gap);
  std::printf("range sync: healed at tip=%llu (victim %llu behind), caught up in %.1f sim-ms\n"
              "            %.0f blocks/sim-sec over %llu chunks / %llu requests, tip moved to %llu %s%s\n",
              static_cast<unsigned long long>(sync.tip_at_heal),
              static_cast<unsigned long long>(sync.tip_at_heal - sync.victim_at_heal),
              sync.catchup_sim_ms, sync.blocks_per_sim_sec,
              static_cast<unsigned long long>(sync.chunks),
              static_cast<unsigned long long>(sync.requests),
              static_cast<unsigned long long>(sync.tip_at_catchup),
              sync.caught_up ? "[ok: reached tip]" : "[FAIL: still lagging]",
              sync.traffic_continued ? "" : " [FAIL: chain stalled during sync]");

  JsonReport report("storage");
  report.field("slots", slots)
      .field("gap", static_cast<std::uint64_t>(gap))
      .field("resident_bytes_mid", static_cast<std::uint64_t>(mem.resident_mid))
      .field("resident_bytes_end", static_cast<std::uint64_t>(mem.resident_end))
      .field("unbounded_bytes", static_cast<std::uint64_t>(mem.naive_end))
      .field("index_ns_per_query", idx.index_ns_per_query)
      .field("scan_ns_per_query", idx.scan_ns_per_query)
      .field("index_speedup", idx.speedup)
      .field("sync_catchup_sim_ms", sync.catchup_sim_ms)
      .field("sync_blocks_per_sim_sec", sync.blocks_per_sim_sec)
      .field("sync_chunks", sync.chunks)
      .field("sync_requests", sync.requests)
      .field("tip_at_heal", static_cast<std::uint64_t>(sync.tip_at_heal))
      .field("tip_at_catchup", static_cast<std::uint64_t>(sync.tip_at_catchup))
      .field("recovery_blocks", rec.blocks)
      .field("recovery_blocks_per_sec", rec.blocks_per_sec)
      .field("durable_wall_s", ovh.durable_wall_s)
      .field("memory_wall_s", ovh.memory_wall_s)
      .field("wal_overhead_pct", ovh.overhead_pct)
      .field("index_resident_bytes_mid", static_cast<std::uint64_t>(idxmem.resident_mid))
      .field("index_resident_bytes_end", static_cast<std::uint64_t>(idxmem.resident_end))
      .field("index_entries_end", static_cast<std::uint64_t>(idxmem.entries_end));
  report.write();

  const bool ok = mem.flat && idx.speedup >= min_index_speedup && idx.all_found &&
                  sync.caught_up && sync.traffic_continued && sync.chunks > 0 &&
                  rec.complete && rec.blocks_per_sec >= min_replay_rate &&
                  ovh.overhead_pct <= max_overhead_pct && idxmem.flat;
  std::printf("%s\n", ok ? "ALL STORAGE INVARIANTS HOLD" : "STORAGE INVARIANT VIOLATION");
  return ok ? 0 : 1;
}
