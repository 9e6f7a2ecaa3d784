// Crash-restart demo: a real-time durable cluster is SIGKILLed mid-load
// (no shutdown hook runs, exactly like a crashed process), then a second
// process builds a cluster over the same data directories. Recovery must
// restore every replica's finalized chain from the checkpoint + WAL tail,
// keep the chains prefix-consistent, and resume finalizing fresh
// transactions on top.
//
//   ./build/crash_restart_demo [data_dir]
//
// Exit code 0 iff recovery and post-restart liveness both hold (the CI
// sanitizer job runs this as its kill-and-restart smoke test).

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "tetrabft.hpp"

using namespace tbft;
namespace fs = std::filesystem;

namespace {

std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return {'d', 'm', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          static_cast<std::uint8_t>(j * 31)};
}

ClusterBuilder demo_builder(const std::string& dir) {
  ClusterBuilder b;
  b.nodes(4)
      .delta_bound(20 * runtime::kMillisecond)
      .storage_tail(64)
      .data_dir(dir)
      .checkpoint_every(8)
      .wal_flush_every(1)      // every append durable: kill -9 loses nothing
      .wal_segment_bytes(4096);  // small segments: rotation + reclaim live too
  return b;
}

/// First life: runs under continuous load until the parent kills the process.
[[noreturn]] void run_victim(const std::string& dir) {
  auto cluster = demo_builder(dir).build_local();
  cluster->start();
  for (std::uint32_t j = 0;; ++j) {
    cluster->submit(j % 4, tx_bytes(j));
    usleep(2000);  // ~500 tx/sec across the cluster
  }
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path dir =
      argc > 1 ? fs::path(argv[1]) : fs::temp_directory_path() / "tbft_crash_restart_demo";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) run_victim(dir.string());

  // Let the victim finalize well past its first durable checkpoints, then
  // kill it the hard way -- no destructor, no flush, mid-WAL-write.
  sleep(3);
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  std::printf("victim pid %d killed with SIGKILL (status %d)\n", pid, status);

  // Second life: rebuild over the same directories and inspect pre-start.
  auto cluster = demo_builder(dir.string()).build_local();
  bool ok = true;
  Slot min_count = 0;
  for (NodeId i = 0; i < 4; ++i) {
    const Slot count = cluster->instance(i).finalized_count();
    const storage::DurableChain* durable = cluster->durable(i);
    std::printf("node %u recovered: %llu finalized slots, checkpoint at %llu, "
                "%llu WAL records replayed%s\n",
                i, static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(cluster->instance(i).chain().checkpoint().slot),
                static_cast<unsigned long long>(durable->wal_stats().recovered),
                durable->wal_stats().truncated_tail ? " (torn tail truncated)" : "");
    ok = ok && count > 0;
    min_count = i == 0 ? count : std::min(min_count, count);
  }
  const bool consistent = multishot::chains_prefix_consistent(cluster->shard_instances());
  std::printf("recovered chains prefix-consistent: %s\n", consistent ? "yes" : "NO");
  ok = ok && consistent;

  // Liveness on top of the recovered prefix: fresh transactions finalize.
  // Replica state is off-limits while the runner is live, so inclusion is
  // observed through the commit stream (the supported runtime boundary).
  std::vector<std::vector<std::uint8_t>> fresh;
  for (std::uint32_t j = 0; j < 8; ++j) {
    fresh.push_back(tx_bytes(1u << 14 | j));  // disjoint from the victim's ids
  }
  std::vector<std::uint32_t> seen(4, 0);  // per-node bitmask, under the commit lock
  cluster->on_commit([&](const runtime::Commit& c) {
    for (const auto& frame : multishot::payload_frames(c.payload)) {
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        if (frame.size() == fresh[k].size() &&
            std::equal(frame.begin(), frame.end(), fresh[k].begin())) {
          seen[c.node] |= 1u << k;
        }
      }
    }
  });
  cluster->start();
  for (std::uint32_t j = 0; j < fresh.size(); ++j) {
    cluster->submit(j % 4, fresh[j]);
  }
  const std::uint32_t all = (1u << fresh.size()) - 1;
  const bool resumed = cluster->wait_for(
      [&] {
        return std::all_of(seen.begin(), seen.end(),
                           [all](std::uint32_t m) { return m == all; });
      },
      30 * runtime::kSecond);
  cluster->stop();
  std::printf("restarted cluster finalized %zu fresh transactions: %s\n", fresh.size(),
              resumed ? "yes" : "NO");
  std::printf("chain resumed at slot %llu and grew to %llu\n",
              static_cast<unsigned long long>(min_count),
              static_cast<unsigned long long>(cluster->instance(0).finalized_count()));
  ok = ok && resumed;

  fs::remove_all(dir);
  std::printf("%s\n", ok ? "CRASH-RESTART RECOVERY OK" : "CRASH-RESTART RECOVERY FAILED");
  return ok ? 0 : 1;
}
