#pragma once
// Configuration of a single-shot TetraBFT instance.

#include <cstdint>

#include "common/types.hpp"
#include "runtime/time.hpp"

namespace tbft::core {

struct TetraConfig {
  std::uint32_t n{4};
  std::uint32_t f{1};

  /// Known worst-case post-GST message delay (the paper's Delta).
  runtime::Duration delta_bound{10 * runtime::kMillisecond};

  /// View timeout = timeout_delta_multiple * delta_bound. The paper
  /// justifies 9 (2 for view-change spread + 6 for suggest/proof, proposal
  /// and four votes, + 1 margin); tests/test_node_viewchange.cpp checks the
  /// 6*Delta in-view budget.
  std::uint32_t timeout_delta_multiple{9};

  /// This node's initial value (the consensus input).
  Value initial_value{1};

  [[nodiscard]] QuorumParams quorum_params() const { return {n, f}; }
  [[nodiscard]] runtime::Duration view_timeout() const {
    return static_cast<runtime::Duration>(timeout_delta_multiple) * delta_bound;
  }

  /// Round-robin leader schedule.
  [[nodiscard]] NodeId leader_of(View v) const {
    return static_cast<NodeId>(static_cast<std::uint64_t>(v) % n);
  }
};

}  // namespace tbft::core
