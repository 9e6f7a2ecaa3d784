// Durability layer (DESIGN_PERF.md "Durability"): WAL roundtrip and torn-
// tail recovery, atomic checkpoint files, segment rotation + reclaim, the
// DurableChain checkpoint cadence, and the horizon-bounded commit index
// with its canonical encode/install blobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/serde.hpp"
#include "multishot/finalized_store.hpp"
#include "storage/checkpoint_file.hpp"
#include "storage/durable_chain.hpp"
#include "storage/wal.hpp"

namespace tbft::storage {
namespace {

namespace fs = std::filesystem;
using multishot::Block;
using multishot::Checkpoint;
using multishot::CommitIndex;
using multishot::FinalizedStore;
using multishot::kGenesisHash;

/// Fresh scratch directory per test, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_durability_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

Block mk(Slot slot, std::uint64_t parent, std::vector<std::uint8_t> payload = {1, 2, 3}) {
  return Block{slot, parent, 0, std::move(payload)};
}

/// Consecutive parent-linked blocks for slots [1, n].
std::vector<Block> make_chain(Slot n) {
  std::vector<Block> blocks;
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= n; ++s) {
    Block b = mk(s, parent, {static_cast<std::uint8_t>(s), 0, 1});
    parent = b.hash();
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// A payload carrying exactly the given transaction frames (view nonce 0).
std::vector<std::uint8_t> tx_payload(const std::vector<std::vector<std::uint8_t>>& txs) {
  serde::Writer w;
  w.varint(0);
  for (const auto& tx : txs) w.bytes(tx);
  return w.take();
}

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Wal, AppendRecoverRoundtrip) {
  TempDir dir("roundtrip");
  const std::vector<Block> chain = make_chain(20);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_FALSE(rec.truncated);
  ASSERT_EQ(rec.blocks.size(), 20u);
  for (Slot s = 1; s <= 20; ++s) EXPECT_EQ(rec.blocks[s - 1], chain[s - 1]);
}

TEST(Wal, RecoverSkipsRecordsCoveredByCheckpoint) {
  TempDir dir("skip_covered");
  const std::vector<Block> chain = make_chain(20);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(10, chain[9].hash());
  EXPECT_FALSE(rec.truncated);
  ASSERT_EQ(rec.blocks.size(), 10u);
  EXPECT_EQ(rec.blocks.front().slot, 11u);
  EXPECT_EQ(rec.blocks.back(), chain.back());
}

TEST(Wal, TornTailBytesAreTruncatedAway) {
  TempDir dir("torn_tail");
  const std::vector<Block> chain = make_chain(12);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  // Simulate a crash mid-write: a partial record header at the end.
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    f.write("\x07\x00\x00", 3);
  }
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
    EXPECT_TRUE(rec.truncated);
    EXPECT_TRUE(wal.stats().truncated_tail);
    ASSERT_EQ(rec.blocks.size(), 12u);  // everything before the tear survives
  }
  // The tear was physically truncated: a second recovery is clean.
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.blocks.size(), 12u);
}

TEST(Wal, CorruptRecordDropsItAndEverythingAfter) {
  TempDir dir("corrupt_mid");
  const std::vector<Block> chain = make_chain(12);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  // Flip one byte halfway into the file: some record's checksum now fails,
  // and recovery must not trust anything at or after it.
  const auto size = fs::file_size(segs[0]);
  {
    std::fstream f(segs[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size / 2));
    const char flip = '\xFF';
    f.write(&flip, 1);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_TRUE(rec.truncated);
  EXPECT_LT(rec.blocks.size(), 12u);
  // The surviving prefix is intact and correctly linked.
  for (std::size_t i = 0; i < rec.blocks.size(); ++i) EXPECT_EQ(rec.blocks[i], chain[i]);
}

TEST(Wal, RotationSpreadsSegmentsAndReclaimDropsCoveredOnes) {
  TempDir dir("rotation");
  const std::vector<Block> chain = make_chain(20);
  {
    // 1-byte rotation threshold: every append after the first opens a fresh
    // segment, so each block lands in its own file.
    WriteAheadLog wal(dir.path, 1, 1);
    for (const Block& b : chain) wal.append(b);
    EXPECT_EQ(wal.stats().segments_opened, 20u);
    wal.reclaim(10);
    EXPECT_EQ(wal.stats().segments_reclaimed, 10u);
    // The active segment is never reclaimed, no matter how far the durable
    // checkpoint advanced.
    wal.reclaim(20);
    EXPECT_EQ(segment_files(dir.path).size(), 1u);
  }
  {
    WriteAheadLog wal(dir.path, 1, 1);
    const WalRecoveryResult rec = wal.recover(19, chain[18].hash());
    ASSERT_EQ(rec.blocks.size(), 1u);
    EXPECT_EQ(rec.blocks.front().slot, 20u);
  }
}

TEST(CheckpointFile, RoundtripAndAtomicReplace) {
  TempDir dir("ckpt_roundtrip");
  DurableCheckpoint a;
  a.cp = Checkpoint{10, 0xAAAA, 3, 0xBBBB};
  a.commit_state = {1, 2, 3, 4, 5};
  store_checkpoint(dir.path, a);
  DurableCheckpoint out;
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, a.cp);
  EXPECT_EQ(out.commit_state, a.commit_state);

  // A second store atomically replaces the first.
  DurableCheckpoint b;
  b.cp = Checkpoint{20, 0xCCCC, 9, 0xDDDD};
  store_checkpoint(dir.path, b);
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, b.cp);
  EXPECT_TRUE(out.commit_state.empty());
}

TEST(CheckpointFile, StaleTmpIsIgnoredAndRemoved) {
  TempDir dir("ckpt_tmp");
  DurableCheckpoint good;
  good.cp = Checkpoint{7, 0x1111, 2, 0x2222};
  store_checkpoint(dir.path, good);
  // A crash mid-store leaves a garbage tmp behind; it must not shadow the
  // complete checkpoint.
  {
    std::ofstream f(dir.path / "checkpoint.tmp", std::ios::binary);
    f.write("garbage", 7);
  }
  DurableCheckpoint out;
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, good.cp);
  EXPECT_FALSE(fs::exists(dir.path / "checkpoint.tmp"));
}

TEST(CheckpointFile, CorruptOrMissingFileReportsNoCheckpoint) {
  TempDir dir("ckpt_corrupt");
  DurableCheckpoint out;
  out.cp.slot = 99;  // must stay untouched on failure
  EXPECT_FALSE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp.slot, 99u);

  DurableCheckpoint good;
  good.cp = Checkpoint{7, 0x1111, 2, 0x2222};
  good.commit_state = {9, 9, 9};
  store_checkpoint(dir.path, good);
  // Flip a byte: the trailing whole-file checksum must catch it.
  {
    std::fstream f(dir.path / "checkpoint", std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(9);
    const char flip = '\x5A';
    f.write(&flip, 1);
  }
  EXPECT_FALSE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp.slot, 99u);
}

/// Key of test entry i (spread over the 64-bit space like real digests).
std::uint64_t key_of(std::uint64_t i) { return i * 0x9E3779B97F4A7C15ULL; }

/// Blob of canonically ordered (key, slot) entries, as encode() writes it.
std::vector<std::uint8_t> blob_of(const std::vector<std::pair<std::uint64_t, Slot>>& entries) {
  serde::Writer w;
  w.varint(entries.size());
  for (const auto& [key, slot] : entries) {
    w.u64(key);
    w.u64(slot);
  }
  return w.take();
}

std::vector<std::uint8_t> encoded(const CommitIndex& idx, Slot at) {
  serde::Writer w;
  idx.encode(w, at);
  return w.take();
}

TEST(CommitIndexHorizon, CanonicalEncodeInstallRoundtrip) {
  constexpr Slot kAt = multishot::kDedupHorizon + 900;
  CommitIndex a;
  // Three entries per slot, inserted out of key order, plus a duplicate
  // key within one slot (the same frame twice in a block).
  for (Slot s = 1; s <= kAt + 100; ++s) {
    for (std::uint64_t i : {2, 0, 1}) a.insert(key_of(s * 3 + i), s);
  }
  a.insert(key_of(1'000'001), 2000);
  a.insert(key_of(1'000'001), 2000);

  const std::vector<std::uint8_t> blob = encoded(a, kAt);
  CommitIndex b;
  ASSERT_TRUE(b.install(blob, kAt));
  // Exactly the horizon (kAt - H, kAt] arrived.
  EXPECT_EQ(b.size(), 3 * multishot::kDedupHorizon + 2);
  EXPECT_EQ(b.first_slot(key_of(900 * 3)), 0u);    // slot kAt - H
  EXPECT_EQ(b.first_slot(key_of(901 * 3)), 901u);  // first slot inside
  EXPECT_EQ(b.first_slot(key_of(kAt * 3 + 2)), kAt);
  EXPECT_EQ(b.first_slot(key_of((kAt + 1) * 3)), 0u);  // above the anchor
  // Canonical form: re-encoding the installed copy is byte-identical.
  EXPECT_EQ(encoded(b, kAt), blob);
}

TEST(CommitIndexHorizon, MalformedBlobsAreRejectedAndChangeNothing) {
  constexpr Slot kAt = multishot::kDedupHorizon + 10;
  CommitIndex idx;
  ASSERT_TRUE(idx.install(blob_of({{key_of(1), 11}, {key_of(2), 12}}), kAt));
  const std::vector<std::uint8_t> before = encoded(idx, kAt);
  const auto unchanged = [&] {
    EXPECT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx.first_slot(key_of(1)), 11u);
    EXPECT_EQ(encoded(idx, kAt), before);
  };

  // An entry at kAt - H is outside the window (kAt - H, kAt].
  EXPECT_FALSE(idx.install(blob_of({{key_of(3), 10}, {key_of(4), 20}}), kAt));
  unchanged();
  // ... as is one above the anchor.
  EXPECT_FALSE(idx.install(blob_of({{key_of(3), 20}, {key_of(4), kAt + 1}}), kAt));
  unchanged();
  // Truncated mid-entry.
  std::vector<std::uint8_t> torn = blob_of({{key_of(3), 20}, {key_of(4), 30}});
  torn.resize(torn.size() - 3);
  EXPECT_FALSE(idx.install(torn, kAt));
  unchanged();
  // Trailing garbage after the last entry.
  std::vector<std::uint8_t> trailing = blob_of({{key_of(3), 20}});
  trailing.push_back(0);
  EXPECT_FALSE(idx.install(trailing, kAt));
  unchanged();
  // Out of canonical (slot, key) order.
  EXPECT_FALSE(idx.install(blob_of({{key_of(3), 30}, {key_of(4), 20}}), kAt));
  unchanged();
  // A count the blob's bytes cannot hold.
  serde::Writer short_count;
  short_count.varint(1000);
  EXPECT_FALSE(idx.install(short_count.span(), kAt));
  unchanged();
  EXPECT_FALSE(idx.install({}, kAt));
  unchanged();
}

TEST(DurableChain, CheckpointCadenceReclaimAndRecovery) {
  TempDir dir("durable_chain");
  const std::vector<std::uint8_t> early_tx = {0xAA, 0xBB};
  DurableOptions opts;
  opts.segment_bytes = 512;
  opts.flush_every = 1;
  opts.checkpoint_every = 16;

  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  {
    DurableChain durable(dir.path, opts);
    const RecoveredState fresh = durable.recover();
    EXPECT_EQ(fresh.tip(), 0u);
    for (Slot s = 1; s <= 100; ++s) {
      Block b = mk(s, parent, s == 2 ? tx_payload({early_tx}) : std::vector<std::uint8_t>{0});
      parent = b.hash();
      store.append(Block{b});
      durable.append(b, store);
    }
    EXPECT_GE(durable.checkpoints_stored(), 4u);
    EXPECT_GE(durable.durable_checkpoint_slot(), 64u);
    EXPECT_GT(durable.wal_stats().segments_reclaimed, 0u);
  }

  // A new life: checkpoint + WAL tail rebuild the exact same store state.
  DurableChain durable(dir.path, opts);
  RecoveredState rec = durable.recover();
  EXPECT_EQ(rec.tip(), 100u);
  EXPECT_FALSE(rec.truncated_tail);
  EXPECT_GE(rec.checkpoint.slot, 64u);
  ASSERT_FALSE(rec.commit_state.empty());

  FinalizedStore restored(8);
  ASSERT_TRUE(restored.restore(rec.checkpoint, rec.commit_state));
  for (Block& b : rec.tail) restored.append(std::move(b));
  EXPECT_EQ(restored.tip(), 100u);
  EXPECT_EQ(restored.tip_hash(), store.tip_hash());
  EXPECT_EQ(restored.checkpoint(), store.checkpoint());
  // The commit answered from the recovered digest set: exactly-once survives
  // the restart.
  EXPECT_EQ(restored.commit_slot(early_tx), 2u);
}

/// Overwrite `<dir>/checkpoint` with a file of format `version`, framed the
/// way store_checkpoint frames it.
void write_checkpoint_file(const fs::path& dir, std::uint32_t version, const Checkpoint& cp,
                           const std::vector<std::uint8_t>& commit_state) {
  serde::Writer w;
  w.u32(0x4B43'4254);
  w.u32(version);
  cp.encode(w);
  w.bytes(commit_state);
  w.u64(fnv1a64(w.span()));
  std::ofstream f(dir / "checkpoint", std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(w.data().data()),
          static_cast<std::streamsize>(w.size()));
}

/// A version 1 commit-state blob: rotated_below, the exact entries (a
/// version 2 blob is the same count + entries), no blooms, no ancient bloom.
std::vector<std::uint8_t> v1_commit_state(Slot rotated_below,
                                          const std::vector<std::uint8_t>& v2_entries) {
  serde::Writer w;
  w.u64(rotated_below);
  for (const std::uint8_t b : v2_entries) w.u8(b);
  w.varint(0);
  w.boolean(false);
  return w.take();
}

TEST(DurableChain, VersionOneCheckpointUpgradesAndNeverTruncatesTheWal) {
  TempDir dir("durable_v1");
  const std::vector<std::uint8_t> early_tx = {0xAA, 0xBB};
  DurableOptions opts;
  opts.segment_bytes = 512;
  opts.flush_every = 1;
  opts.checkpoint_every = 16;
  {
    FinalizedStore store(8);
    DurableChain durable(dir.path, opts);
    (void)durable.recover();
    std::uint64_t parent = kGenesisHash;
    for (Slot s = 1; s <= 100; ++s) {
      Block b = mk(s, parent, s == 70 ? tx_payload({early_tx}) : std::vector<std::uint8_t>{0});
      parent = b.hash();
      store.append(Block{b});
      durable.append(b, store);
    }
    ASSERT_GT(durable.wal_stats().segments_reclaimed, 0u);
  }
  DurableCheckpoint v3;
  ASSERT_TRUE(load_checkpoint(dir.path, v3));
  ASSERT_GE(v3.cp.slot, 70u);
  const std::vector<fs::path> segments = segment_files(dir.path);
  // A version 2 commit state is the commit index alone (no leader schedule).
  serde::Reader v3_reader(v3.commit_state);
  const auto index = CommitIndex::read(v3_reader, v3.cp.slot);
  ASSERT_TRUE(index.has_value());
  const std::vector<std::uint8_t> v2_state = encoded(*index, v3.cp.slot);

  // The same state as the parent formats wrote it (no Bloom epochs): each
  // upgrades to the identical version 3 state, and recovery replays the
  // WAL tail on top instead of truncating it against genesis.
  for (const std::uint32_t version : {1u, 2u}) {
    write_checkpoint_file(dir.path, version, v3.cp,
                          version == 1 ? v1_commit_state(0, v2_state) : v2_state);
    DurableChain durable(dir.path, opts);
    const RecoveredState rec = durable.recover();
    EXPECT_EQ(rec.checkpoint, v3.cp);
    EXPECT_EQ(rec.commit_state, v3.commit_state);
    EXPECT_EQ(rec.tip(), 100u);
    FinalizedStore restored(8);
    ASSERT_TRUE(restored.restore(rec.checkpoint, rec.commit_state));
    EXPECT_EQ(restored.commit_slot(early_tx), 70u);
  }
  EXPECT_EQ(segment_files(dir.path), segments);

  // Bloom epochs cannot be made exact, and an unknown version cannot be
  // read: both refuse to recover, and the WAL stays as it was.
  write_checkpoint_file(dir.path, 1, v3.cp, v1_commit_state(64, v2_state));
  EXPECT_THROW(DurableChain(dir.path, opts).recover(), std::runtime_error);
  write_checkpoint_file(dir.path, 4, v3.cp, v3.commit_state);
  EXPECT_THROW(DurableChain(dir.path, opts).recover(), std::runtime_error);
  EXPECT_EQ(segment_files(dir.path), segments);
}

TEST(DurableChain, TornTailRecoversToLastDurableRecord) {
  TempDir dir("durable_torn");
  DurableOptions opts;
  opts.flush_every = 1;
  opts.checkpoint_every = 1u << 20;  // never: genesis + WAL only
  std::vector<Block> chain = make_chain(10);
  {
    DurableChain durable(dir.path, opts);
    (void)durable.recover();
    FinalizedStore store(8);
    for (const Block& b : chain) {
      store.append(Block{b});
      durable.append(b, store);
    }
  }
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    f.write("\xBA\xD0", 2);  // torn write at the moment of the crash
  }
  DurableChain durable(dir.path, opts);
  const RecoveredState rec = durable.recover();
  EXPECT_TRUE(rec.truncated_tail);
  EXPECT_EQ(rec.tip(), 10u);
  EXPECT_EQ(rec.checkpoint.slot, 0u);
}

}  // namespace
}  // namespace tbft::storage
