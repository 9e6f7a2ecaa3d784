#include "chaos/fuzzer.hpp"

#include <cstdio>
#include <system_error>

namespace tbft::chaos {

namespace fs = std::filesystem;

FuzzResult fuzz_one(std::uint64_t seed, const fs::path& scratch_root,
                    bool keep_failed_dirs) {
  const fs::path work = scratch_root / ("seed-" + std::to_string(seed));
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);

  FuzzResult r;
  r.seed = seed;
  const ScenarioPlan plan = draw_plan(seed);
  r.plan = plan.describe();
  r.verdict = run_plan(plan, work);
  r.passed = r.verdict.ok();
  r.failure = r.verdict.failure();

  if (r.passed || !keep_failed_dirs) fs::remove_all(work, ec);
  return r;
}

FuzzBatchResult fuzz_batch(std::uint64_t first, std::uint64_t count,
                           const fs::path& scratch_root, bool verbose,
                           bool keep_failed_dirs) {
  FuzzBatchResult batch;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    FuzzResult r = fuzz_one(seed, scratch_root, keep_failed_dirs);
    ++batch.ran;
    if (verbose) {
      std::printf("%s %s committed=%llu crashes=%u elapsed=%lldms digest=%016llx%s%s\n",
                  r.passed ? "PASS" : "FAIL", r.plan.c_str(),
                  static_cast<unsigned long long>(r.verdict.report.committed),
                  r.verdict.crashes, static_cast<long long>(r.verdict.elapsed / sim::kMillisecond),
                  static_cast<unsigned long long>(r.verdict.trace_digest),
                  r.passed ? "" : " failure=", r.failure.c_str());
    }
    if (!r.passed) {
      ++batch.failed;
      // The one-line reproducer contract: paste this command to replay.
      std::fprintf(stderr, "FAIL [%s] %s  # reproduce: %s\n", r.failure.c_str(),
                   r.plan.c_str(), r.reproducer().c_str());
      batch.failures.push_back(std::move(r));
    }
  }
  return batch;
}

}  // namespace tbft::chaos
