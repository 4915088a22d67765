// Placement policy interface: how file sets map to servers and how the
// mapping reacts to latency reports and membership changes.
//
// The paper's comparison (simple randomization, round-robin, dynamic
// prescient, ANU) plus the baselines and zoo policies all implement it;
// policies/registry.h lists them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "common/ids.h"
#include "core/tuner.h"  // core::ServerReport is the latency report type
#include "sim/time.h"
#include "workload/spec.h"

namespace anufs::policy {

/// One file-set relocation decided by a policy.
struct Move {
  FileSetId file_set;
  ServerId from;
  ServerId to;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Establish the initial assignment. Called once before the first
  /// request; no movement cost applies.
  virtual void initialize(const std::vector<workload::FileSetSpec>& file_sets,
                          const std::vector<ServerId>& servers) = 0;

  /// Current owner of a file set (request routing).
  [[nodiscard]] virtual ServerId owner(FileSetId fs) const = 0;

  /// Periodic reconfiguration with this interval's latency reports.
  /// Returns the moves performed (the internal assignment is already
  /// updated when this returns). Static policies return {}.
  virtual std::vector<Move> rebalance(
      sim::SimTime now, const std::vector<core::ServerReport>& reports) = 0;

  /// Server failure/decommission: the policy must re-home the victim's
  /// file sets. Returns those (and only those... for ANU, plus any
  /// half-occupancy ripple) moves.
  virtual std::vector<Move> on_server_failed(ServerId id) = 0;

  /// Server recovery/commission.
  virtual std::vector<Move> on_server_added(ServerId id) = 0;

  /// Alive servers in id order.
  [[nodiscard]] virtual std::vector<ServerId> servers() const = 0;
};

/// Shared bookkeeping: the dense fs -> server table that owner() answers
/// from, and the one step that publishes a new table and diffs it into
/// moves. The table is the only copy of the assignment.
class AssignmentPolicyBase : public PlacementPolicy {
 public:
  [[nodiscard]] ANUFS_HOT ServerId owner(FileSetId fs) const final {
    // The request hot path: one load from a table indexed by FileSetId
    // (ids are dense, checked by begin_initialize).
    const auto idx = static_cast<std::size_t>(fs.value);
    ANUFS_EXPECTS(idx < owner_table_.size());
    const ServerId id = owner_table_[idx];
    ANUFS_EXPECTS(id != kInvalidServer);
    return id;
  }

  [[nodiscard]] std::vector<ServerId> servers() const final {
    return servers_;
  }

 protected:
  /// Common start of every initialize(): stores the file sets and the
  /// sorted server list and drops any previous table. File-set ids must
  /// be dense (file_sets[i].id.value == i), as Workload::validate
  /// guarantees: the table is indexed by them.
  void begin_initialize(const std::vector<workload::FileSetSpec>& file_sets,
                        const std::vector<ServerId>& servers);

  /// Publish `next` as the assignment and return the induced moves in
  /// ascending FileSetId order. `next` must cover every file set with a
  /// real server. The vectors are swapped, so on return `next` holds
  /// the previous table (callers may reuse it as scratch). The first
  /// publish after begin_initialize is the initial placement: it moves
  /// nothing and leaves no trace record.
  std::vector<Move> publish(std::vector<ServerId>& next);

  /// Re-home the victim's file sets in place, in FileSetId order, each
  /// to `pick()`; returns exactly those moves. No publish step needed.
  template <typename Pick>
  std::vector<Move> rehome(ServerId victim, Pick&& pick) {
    std::vector<Move> moves;
    for (std::size_t i = 0; i < owner_table_.size(); ++i) {
      if (owner_table_[i] != victim) continue;
      const ServerId to = pick();
      moves.push_back(
          Move{FileSetId{static_cast<std::uint32_t>(i)}, victim, to});
      owner_table_[i] = to;
    }
    return moves;
  }

  void add_server_id(ServerId id);
  void remove_server_id(ServerId id);

  std::vector<ServerId> owner_table_;  // index == FileSetId.value
  std::vector<ServerId> servers_;      // sorted
  std::vector<workload::FileSetSpec> file_sets_;
};

}  // namespace anufs::policy
