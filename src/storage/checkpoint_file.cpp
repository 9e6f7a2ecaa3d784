#include "storage/checkpoint_file.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "common/serde.hpp"

namespace tbft::storage {
namespace fs = std::filesystem;

namespace {
constexpr std::uint32_t kMagic = 0x4B43'4254;  // 'TBCK' little-endian
// 2: commit state holds the dedup horizon only; 3: then the leader schedule.
constexpr std::uint32_t kVersion = 3;

fs::path main_path(const fs::path& dir) { return dir / "checkpoint"; }
fs::path tmp_path(const fs::path& dir) { return dir / "checkpoint.tmp"; }

/// A version 2 commit state is the commit index alone; version 3 appends
/// the leader schedule's state, which a version 2 file did not keep: it
/// loads as an empty skip set.
std::vector<std::uint8_t> upgrade_v2_commit_state(std::vector<std::uint8_t> v2) {
  serde::Writer w;
  multishot::LeaderSchedule{}.encode(w);
  v2.insert(v2.end(), w.data().begin(), w.data().end());
  return v2;
}

/// Version 1 commit state held every commit: u64 rotated_below | varint
/// count | (key u64, slot u64) entries | varint bloom count | blooms | bool
/// ancient bloom. Without Bloom tiers it is exact, so its entries in
/// (at - H, at] are the version 2 blob; Bloom tiers cannot be made exact.
std::vector<std::uint8_t> upgrade_v1_commit_state(std::span<const std::uint8_t> v1,
                                                  Slot at) {
  serde::Reader r(v1);
  const std::uint64_t rotated_below = r.u64();
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > r.remaining() / 16) {
    throw std::runtime_error("checkpoint: malformed version 1 commit state");
  }
  multishot::CommitIndex index;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key = r.u64();
    const Slot slot = r.u64();
    if (slot > multishot::horizon_floor(at) && slot <= at) index.insert(key, slot);
  }
  if (rotated_below != 0 || r.varint() != 0 || r.boolean()) {
    throw std::runtime_error(
        "checkpoint: a version 1 file with commit-index Bloom epochs cannot be upgraded");
  }
  if (!r.done()) throw std::runtime_error("checkpoint: malformed version 1 commit state");
  serde::Writer w;
  index.encode(w, at);
  return w.take();
}
}  // namespace

bool load_checkpoint(const fs::path& dir, DurableCheckpoint& out) {
  // A leftover tmp means a crash hit between write and rename: the main
  // file (if any) is still the last complete state; the tmp is garbage.
  {
    std::error_code ec;
    fs::remove(tmp_path(dir), ec);
  }

  std::FILE* f = std::fopen(main_path(dir).string().c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<std::uint8_t> raw;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  raw.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool read_ok =
      raw.empty() || std::fread(raw.data(), 1, raw.size(), f) == raw.size();
  std::fclose(f);
  if (!read_ok || raw.size() < 8) return false;

  // Trailing checksum covers every preceding byte.
  const std::span<const std::uint8_t> body{raw.data(), raw.size() - 8};
  serde::Reader tail({raw.data() + body.size(), 8});
  if (fnv1a64(body) != tail.u64()) return false;

  serde::Reader r(body);
  if (r.u32() != kMagic) return false;
  const std::uint32_t version = r.u32();
  if (version < 1 || version > kVersion) {
    throw std::runtime_error("checkpoint: unsupported format version " +
                             std::to_string(version) + " in " + main_path(dir).string());
  }
  DurableCheckpoint loaded;
  loaded.cp = multishot::Checkpoint::decode(r);
  loaded.commit_state = r.bytes();
  if (!r.done()) return false;
  if (version == 1) {
    loaded.commit_state = upgrade_v1_commit_state(loaded.commit_state, loaded.cp.slot);
  }
  if (version <= 2) loaded.commit_state = upgrade_v2_commit_state(std::move(loaded.commit_state));
  out = std::move(loaded);
  return true;
}

void store_checkpoint(const fs::path& dir, const DurableCheckpoint& state) {
  serde::Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  state.cp.encode(w);
  w.bytes(state.commit_state);
  w.u64(fnv1a64(w.span()));

  const fs::path tmp = tmp_path(dir);
  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp.string());
  }
  const bool wrote = std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("checkpoint: write failed for " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, main_path(dir), ec);  // the atomicity point
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("checkpoint: rename failed for " + tmp.string());
  }
}

}  // namespace tbft::storage
