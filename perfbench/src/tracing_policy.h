// Forwarding decorator around a PlacementPolicy for the traced run.
//
// The simulator reaches the `policies` layer only through the
// PlacementPolicy interface, so wrapping the registry-built policy is
// how the benchmark times that layer without touching the program: each
// call forwards to the wrapped policy and returns its answer unchanged.
// initialize/rebalance/on_server_failed/on_server_added each record a
// span; owner() is the per-request hot path, so it only counts calls and
// accumulates their time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "policies/policy.h"
#include "spans.h"

namespace perfbench {

struct PolicyCounters {
  std::uint64_t owner_calls = 0;
  std::uint64_t owner_ns = 0;
  std::uint64_t rebalance_calls = 0;
  std::uint64_t rebalance_moves = 0;
  std::uint64_t membership_calls = 0;
  std::uint64_t membership_moves = 0;
};

class TracingPolicy final : public anufs::policy::PlacementPolicy {
 public:
  /// `log` may be null: the decorator then only counts.
  TracingPolicy(anufs::policy::PlacementPolicy& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void initialize(const std::vector<anufs::workload::FileSetSpec>& file_sets,
                  const std::vector<anufs::ServerId>& servers) override {
    const ScopedSpan span(log_, "policy.initialize");
    inner_.initialize(file_sets, servers);
  }

  [[nodiscard]] anufs::ServerId owner(anufs::FileSetId fs) const override {
    const std::uint64_t t0 = now_ns();
    const anufs::ServerId id = inner_.owner(fs);
    counters_.owner_ns += now_ns() - t0;
    ++counters_.owner_calls;
    return id;
  }

  std::vector<anufs::policy::Move> rebalance(
      anufs::sim::SimTime now,
      const std::vector<anufs::core::ServerReport>& reports) override {
    const ScopedSpan span(log_, "policy.rebalance");
    std::vector<anufs::policy::Move> moves = inner_.rebalance(now, reports);
    ++counters_.rebalance_calls;
    counters_.rebalance_moves += moves.size();
    return moves;
  }

  std::vector<anufs::policy::Move> on_server_failed(
      anufs::ServerId id) override {
    const ScopedSpan span(log_, "policy.membership");
    return count_membership(inner_.on_server_failed(id));
  }

  std::vector<anufs::policy::Move> on_server_added(
      anufs::ServerId id) override {
    const ScopedSpan span(log_, "policy.membership");
    return count_membership(inner_.on_server_added(id));
  }

  [[nodiscard]] std::vector<anufs::ServerId> servers() const override {
    return inner_.servers();
  }

  [[nodiscard]] const PolicyCounters& counters() const noexcept {
    return counters_;
  }

 private:
  std::vector<anufs::policy::Move> count_membership(
      std::vector<anufs::policy::Move> moves) {
    ++counters_.membership_calls;
    counters_.membership_moves += moves.size();
    return moves;
  }

  anufs::policy::PlacementPolicy& inner_;
  SpanLog* log_;
  // owner() is const in the interface; its counters are bookkeeping.
  mutable PolicyCounters counters_;
};

}  // namespace perfbench
