// ANU randomization as a placement policy: adapts core::AnuSystem to the
// policy interface used by the cluster simulator. Ownership is never
// stored per file set inside ANU itself — it is re-derived from the hash
// probe sequence against the current region map, which is the paper's
// whole point (shared state scales with servers, not file sets). After
// every change the policy re-derives all owners in one locate_many sweep
// and publishes them as the base class's dense routing table, whose diff
// is the round's Move record.
#pragma once

#include <memory>

#include "core/anu_system.h"
#include "policies/policy.h"

namespace anufs::policy {

class AnuPolicy final : public AssignmentPolicyBase {
 public:
  explicit AnuPolicy(core::AnuConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return config_.mode == core::TunerMode::kDecentralizedPairwise
               ? "anu-pairwise"
               : "anu";
  }

  void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                  const std::vector<ServerId>& servers) override;

  std::vector<Move> rebalance(
      sim::SimTime now,
      const std::vector<core::ServerReport>& reports) override;

  std::vector<Move> on_server_failed(ServerId id) override;
  std::vector<Move> on_server_added(ServerId id) override;

  /// The underlying ANU system (for invariant checks and introspection).
  [[nodiscard]] const core::AnuSystem& system() const {
    ANUFS_EXPECTS(system_ != nullptr);
    return *system_;
  }
  [[nodiscard]] core::AnuSystem& system() {
    ANUFS_EXPECTS(system_ != nullptr);
    return *system_;
  }

 private:
  /// Re-derive every file set's owner from the probe sequence, batched
  /// through AnuSystem::locate_many (one SoA sweep per call), and
  /// publish the result.
  std::vector<Move> rederive();

  core::AnuConfig config_;
  std::unique_ptr<core::AnuSystem> system_;
  // Reused locate_many staging: fingerprints in file_sets_ order
  // (gathered once), results out, and the next owner table.
  std::vector<std::uint64_t> fingerprints_;
  std::vector<core::LocateResult> located_;
  std::vector<ServerId> next_;
};

}  // namespace anufs::policy
