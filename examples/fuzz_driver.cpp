// Chaos fuzz driver: replay one seed or sweep a batch.
//
//   ./build/fuzz_driver --seed=N            replay one scenario, verbose
//   ./build/fuzz_driver --first=A --count=K sweep seeds [A, A+K)
//   ./build/fuzz_driver --count=K           sweep [1, 1+K) (default K=50)
//
// Extra flags:
//   --scratch=DIR     durable-chain scratch root (default: fuzz-scratch)
//   --keep            keep work dirs of failing seeds for inspection
//   --fail-file=PATH  append one "fuzz_driver --seed=N" line per failure
//   --quiet           batch mode: only print failures and the summary
//
// Every failure prints a one-line reproducer; exit code is the number of
// failing seeds (capped at 125). Replaying an undrained seed also prints a
// triage dump: per honest chain, the first unfinalized slot, the proposal
// frontier, the nodes skipped as view-0 leaders, the suspects still asked to
// view-change at once (node@end_slot), and the view / proposed /
// proposal-seen / notarization view of the first few unfinalized slots.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "chaos/fuzzer.hpp"

using namespace tbft;

namespace {

bool parse_u64(const char* arg, const char* name, std::uint64_t& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = std::strtoull(arg + len + 1, nullptr, 10);
  return true;
}

bool parse_str(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

/// Appends one "fuzz_driver --seed=N  # plan -> failure" line per failure
/// to `path`; no-op when `path` is empty.
void append_failures(const std::string& path, std::span<const chaos::FuzzResult> failures) {
  if (path.empty() || failures.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "a")) {
    for (const chaos::FuzzResult& r : failures) {
      std::fprintf(f, "%s  # %s -> %s\n", r.reproducer().c_str(), r.plan.c_str(),
                   r.failure.c_str());
    }
    std::fclose(f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t first = 1;
  std::uint64_t count = 50;
  std::string scratch = "fuzz-scratch";
  std::string fail_file;
  bool keep = false;
  bool verbose = true;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_u64(a, "--seed", seed)) {
      have_seed = true;
    } else if (parse_u64(a, "--first", first) || parse_u64(a, "--count", count) ||
               parse_str(a, "--scratch", scratch) ||
               parse_str(a, "--fail-file", fail_file)) {
    } else if (std::strcmp(a, "--keep") == 0) {
      keep = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      verbose = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return 2;
    }
  }

  if (have_seed) {
    const chaos::ScenarioPlan plan = chaos::draw_plan(seed);
    std::printf("plan: %s\n", plan.describe().c_str());
    for (const chaos::ChurnEvent& ev : plan.churn) {
      std::printf("  churn: node %u down at %" PRId64 "ms, up at %" PRId64 "ms\n",
                  ev.node, ev.down_at / sim::kMillisecond, ev.up_at / sim::kMillisecond);
    }
    const chaos::FuzzResult r = chaos::fuzz_one(seed, scratch, keep);
    r.verdict.report.print("  workload");
    std::printf(
        "  consistent=%s drained=%s progressed=%s crashes=%u restarts=%u "
        "max_finalized=%" PRIu64 " elapsed=%" PRId64 "ms trace=%016" PRIx64 "\n",
        r.verdict.chains_consistent ? "yes" : "NO", r.verdict.drained ? "yes" : "NO",
        r.verdict.progressed ? "yes" : "NO", r.verdict.crashes, r.verdict.restarts,
        static_cast<std::uint64_t>(r.verdict.max_finalized),
        r.verdict.elapsed / sim::kMillisecond, r.verdict.trace_digest);
    if (!r.verdict.drained) std::printf("undrained triage:\n%s", r.verdict.triage.c_str());
    std::printf("%s seed=%" PRIu64 " digest=%016" PRIx64 "%s%s\n", r.passed ? "PASS" : "FAIL",
                seed, r.verdict.trace_digest, r.passed ? "" : " failure=", r.failure.c_str());
    if (!r.passed) append_failures(fail_file, {&r, 1});
    return r.passed ? 0 : 1;
  }

  const chaos::FuzzBatchResult batch =
      chaos::fuzz_batch(first, count, scratch, verbose, keep);
  append_failures(fail_file, batch.failures);
  std::printf("fuzz: %" PRIu64 "/%" PRIu64 " seeds passed (first=%" PRIu64 ")\n",
              batch.ran - batch.failed, batch.ran, first);
  return batch.failed > 125 ? 125 : static_cast<int>(batch.failed);
}
