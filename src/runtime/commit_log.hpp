#pragma once
// CommitLog: a commit sink that keeps each node's first decision per
// stream, for the tests, examples and benches that query decisions after a
// run. It grows with the commits it sees, so subscribe one only where they
// are read; a host keeps no decision log of its own.

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "runtime/host.hpp"

namespace tbft::runtime {

class CommitLog final : public CommitSink {
 public:
  CommitLog() = default;
  CommitLog(const CommitLog&) = delete;  // hosts hold its address
  CommitLog& operator=(const CommitLog&) = delete;

  void on_commit(const Commit& c) override {
    first_.emplace(std::pair{c.node, c.stream}, Commit{c.node, c.stream, c.value, {}, c.at});
    const auto [it, inserted] = value_of_.emplace(c.stream, c.value);
    agreement_ = agreement_ && (inserted || it->second == c.value);
  }

  /// First decision of `node` on `stream`, if any (its payload is not kept).
  [[nodiscard]] std::optional<Commit> decision_of(NodeId node, std::uint64_t stream = 0) const {
    const auto it = first_.find(std::pair{node, stream});
    if (it == first_.end()) return std::nullopt;
    return it->second;
  }

  /// True iff no two decisions on the same stream carried different values.
  [[nodiscard]] bool agreement_holds() const noexcept { return agreement_; }

 private:
  std::map<std::pair<NodeId, std::uint64_t>, Commit> first_;
  std::map<std::uint64_t, Value> value_of_;
  bool agreement_{true};
};

}  // namespace tbft::runtime
