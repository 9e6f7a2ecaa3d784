// Multi-process socket cluster demo: fork 4 OS processes, each hosting one
// sharded TetraBFT replica (two chains behind a shard::ShardMux) on a
// runtime::SocketHost; every protocol message crosses a real TCP connection
// on loopback, its shard route in the frame header. The parent plays
// deployment coordinator -- it collects each child's ephemeral listen port
// over a pipe, broadcasts the full port map, and the children wire up and
// run consensus under client load.
//
//   ./build/socket_cluster
//
// Each child submits its own request-tagged transactions (the tag's home
// shard admits each one, so both shards carry load), then waits until its
// OWN commit stream contains every transaction from every process exactly
// once, each in its home shard. An exit barrier (over the pipes) keeps all
// replicas alive until the slowest one is done; only then do the children
// stop, digest each shard's finalized chain slot-by-slot, and report. The
// parent exits 0 iff all four processes finished, committed every
// transaction, and produced IDENTICAL per-shard chain digests -- the
// multi-process analogue of multishot::chains_prefix_consistent.
// (CI runs this binary as the socket-transport smoke test.)

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/hash.hpp"
#include "tetrabft.hpp"

using namespace tbft;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kTxPerNode = 16;
constexpr std::uint32_t kTotalTx = kNodes * kTxPerNode;

/// Transaction `j` as submitted by process `origin`: a request tagged
/// (client = origin, seq = j), so any commit stream can attribute it and
/// the tag picks its home shard.
std::vector<std::uint8_t> tx_bytes(std::uint32_t origin, std::uint32_t j) {
  return workload::encode_request(origin, j, /*total_bytes=*/24);
}

bool read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t got = ::read(fd, p, len);
    if (got <= 0) return false;
    p += got;
    len -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t put = ::write(fd, p, len);
    if (put <= 0) return false;
    p += put;
    len -= static_cast<std::size_t>(put);
  }
  return true;
}

/// What each child reports after the exit barrier.
struct ChildReport {
  /// Per shard: order-sensitive digest of the slots up to the shard's last
  /// transaction.
  std::uint64_t chain_digest[kShards]{};
  std::uint64_t finalized{0};  // summed over shards
  std::uint8_t ok{0};
};

/// One replica process: wire up from the port map, run under load, verify
/// every transaction commits exactly once in this replica's own stream.
int run_child(NodeId id, int to_parent, int from_parent) {
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(7)
      .delta_bound(500 * runtime::kMillisecond)  // generous: loaded CI machines
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)  // one tx per slot
      .shards(kShards);
  auto node = b.build_socket_node(id);
  runtime::SocketHost& host = node->host(id);

  // --- ephemeral-port exchange ----------------------------------------------
  const std::uint16_t my_port = host.port();
  if (!write_full(to_parent, &my_port, sizeof my_port)) return 1;
  std::uint16_t ports[kNodes] = {};
  if (!read_full(from_parent, ports, sizeof ports)) return 1;
  for (NodeId peer = 0; peer < kNodes; ++peer) {
    if (peer != id) host.set_peer_endpoint(peer, {"127.0.0.1", ports[peer]});
  }

  // --- commit accounting: every tx, exactly once, in MY stream --------------
  std::mutex mx;
  std::vector<std::uint32_t> times_seen(kTotalTx, 0);  // guarded by mx / hub lock
  std::uint64_t commits = 0;
  std::uint64_t misrouted = 0;
  std::uint32_t shards_used = 0;  // bitmask of shards that committed a tx
  node->on_commit([&](const runtime::Commit& c) {
    std::lock_guard<std::mutex> lk(mx);
    ++commits;
    const std::uint32_t shard = shard::stream_shard(c.stream);
    for (const std::uint64_t tag : workload::extract_request_tags(c.payload)) {
      const std::uint32_t origin = workload::tag_client(tag);
      const std::uint32_t j = workload::tag_seq(tag);
      if (origin >= kNodes || j >= kTxPerNode) continue;
      ++times_seen[origin * kTxPerNode + j];
      if (node->router().shard_of(tag) != shard) ++misrouted;
      shards_used |= 1u << shard;
    }
  });

  node->start();
  for (std::uint32_t j = 0; j < kTxPerNode; ++j) {
    node->submit(id, tx_bytes(id, j));
  }

  const bool synced = node->wait_for(
      [&] {
        std::lock_guard<std::mutex> lk(mx);
        for (const std::uint32_t seen : times_seen) {
          if (seen == 0) return false;
        }
        return true;
      },
      60 * runtime::kSecond);

  // --- exit barrier: no replica stops until the slowest is done -------------
  const std::uint8_t sync_byte = synced ? 1 : 0;
  write_full(to_parent, &sync_byte, sizeof sync_byte);
  std::uint8_t release = 0;
  read_full(from_parent, &release, sizeof release);
  node->stop();

  // --- report: exactly-once + per-shard order-sensitive chain digests -------
  ChildReport report;
  bool exactly_once = synced && misrouted == 0 && shards_used == (1u << kShards) - 1;
  for (const std::uint32_t seen : times_seen) exactly_once = exactly_once && seen == 1;
  bool chain_complete = true;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const multishot::MultishotNode& replica = node->instance(id, k);
    report.finalized += replica.finalized_count();
    // The shard's chains agree up to its last transaction; trailing filler
    // slots depend on when each process stopped.
    Slot last = 0;
    for (std::uint32_t origin = 0; origin < kNodes; ++origin) {
      for (std::uint32_t j = 0; j < kTxPerNode; ++j) {
        last = std::max(last, replica.chain().commit_slot(tx_bytes(origin, j)));
      }
    }
    std::uint64_t digest = 0x736f636b65743464ULL;  // arbitrary nonzero start
    for (Slot s = 1; s <= last; ++s) {
      const multishot::Block* blk = replica.block_at(s);
      if (blk == nullptr) {
        chain_complete = false;
        break;
      }
      digest = hash_combine(digest, blk->hash());
    }
    report.chain_digest[k] = digest;
  }
  report.ok = (exactly_once && chain_complete) ? 1 : 0;
  const runtime::NetStats& ns = host.net_stats();
  std::printf(
      "child %u: synced=%d exactly_once=%d finalized=%llu commits=%llu "
      "frames rx/tx=%llu/%llu handshakes=%llu redials=%llu dropped=%llu\n",
      id, int(synced), int(exactly_once),
      static_cast<unsigned long long>(report.finalized),
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(ns.frames_rx.load()),
      static_cast<unsigned long long>(ns.frames_tx.load()),
      static_cast<unsigned long long>(ns.handshakes.load()),
      static_cast<unsigned long long>(ns.dials.load()),
      static_cast<unsigned long long>(ns.queue_dropped.load()));
  write_full(to_parent, &report, sizeof report);
  return report.ok == 1 ? 0 : 1;
}

}  // namespace

int main() {
  int c2p[kNodes][2];
  int p2c[kNodes][2];
  pid_t pids[kNodes];
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    if (::pipe(c2p[i]) != 0 || ::pipe(p2c[i]) != 0) {
      std::perror("pipe");
      return 1;
    }
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    pids[i] = ::fork();
    if (pids[i] < 0) {
      std::perror("fork");
      return 1;
    }
    if (pids[i] == 0) {
      // Child i keeps only its own pipe ends.
      for (std::uint32_t j = 0; j < kNodes; ++j) {
        ::close(c2p[j][0]);
        ::close(p2c[j][1]);
        if (j != i) {
          ::close(c2p[j][1]);
          ::close(p2c[j][0]);
        }
      }
      const int rc = run_child(i, c2p[i][1], p2c[i][0]);
      std::fflush(stdout);
      ::_exit(rc);
    }
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    ::close(c2p[i][1]);
    ::close(p2c[i][0]);
  }

  // Port exchange: gather each child's ephemeral port, broadcast the map.
  std::uint16_t ports[kNodes] = {};
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    if (!read_full(c2p[i][0], &ports[i], sizeof ports[i])) {
      std::fprintf(stderr, "child %u died before reporting its port\n", i);
      return 1;
    }
  }
  std::printf("cluster ports:");
  for (std::uint32_t i = 0; i < kNodes; ++i) std::printf(" %u", ports[i]);
  std::printf("\n");
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    if (!write_full(p2c[i][1], ports, sizeof ports)) return 1;
  }

  // Exit barrier: wait until every child synced, then release all at once.
  bool all_synced = true;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    std::uint8_t sync_byte = 0;
    if (!read_full(c2p[i][0], &sync_byte, sizeof sync_byte) || sync_byte != 1) {
      std::fprintf(stderr, "child %u failed to sync\n", i);
      all_synced = false;
    }
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::uint8_t release = 1;
    write_full(p2c[i][1], &release, sizeof release);
  }

  // Collect reports + exit codes; verify cross-process chain agreement.
  ChildReport reports[kNodes] = {};
  bool ok = all_synced;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    if (!read_full(c2p[i][0], &reports[i], sizeof reports[i])) {
      std::fprintf(stderr, "child %u died before reporting\n", i);
      ok = false;
    }
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    int status = 0;
    ::waitpid(pids[i], &status, 0);
    const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!child_ok) {
      if (WIFSIGNALED(status)) {
        std::fprintf(stderr, "child %u killed by signal %d\n", i, WTERMSIG(status));
      } else if (WIFEXITED(status)) {
        std::fprintf(stderr, "child %u exited %d\n", i, WEXITSTATUS(status));
      }
    }
    ok = ok && child_ok && reports[i].ok == 1 && reports[i].finalized >= kTotalTx;
  }
  bool digests_agree = true;
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    for (std::uint32_t k = 0; k < kShards; ++k) {
      digests_agree = digests_agree && reports[i].chain_digest[k] == reports[0].chain_digest[k];
    }
  }
  ok = ok && digests_agree;
  std::printf(
      "%u processes, %u shards, %u transactions: chain digests %s (%#llx, %#llx), "
      "all >= %u slots: %s\n",
      kNodes, kShards, kTotalTx, digests_agree ? "AGREE" : "DIVERGE",
      static_cast<unsigned long long>(reports[0].chain_digest[0]),
      static_cast<unsigned long long>(reports[0].chain_digest[1]), kTotalTx, ok ? "yes" : "NO");
  std::printf("multi-process socket cluster: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
