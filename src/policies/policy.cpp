#include "policies/policy.h"

#include <algorithm>

#include "obs/trace.h"

namespace anufs::policy {

void AssignmentPolicyBase::begin_initialize(
    const std::vector<workload::FileSetSpec>& file_sets,
    const std::vector<ServerId>& servers) {
  ANUFS_EXPECTS(!servers.empty());
  for (std::size_t i = 0; i < file_sets.size(); ++i) {
    ANUFS_EXPECTS(file_sets[i].id.value == i && "file-set ids must be dense");
  }
  file_sets_ = file_sets;
  servers_ = servers;
  std::sort(servers_.begin(), servers_.end());
  owner_table_.clear();
}

std::vector<Move> AssignmentPolicyBase::publish(std::vector<ServerId>& next) {
  const bool initial = owner_table_.empty();
  // Key-set guard: a table of another size would change the file-set
  // population, and a kInvalidServer entry would only abort much later,
  // at some request's owner() call, far from the bug. Catch both here.
  ANUFS_EXPECTS((initial || next.size() == owner_table_.size()) &&
                "publish must preserve the file-set key set");
  std::vector<Move> moves;
  for (std::size_t i = 0; i < next.size(); ++i) {
    ANUFS_EXPECTS(next[i] != kInvalidServer &&
                  "publish must assign every file set");
    if (!initial && next[i] != owner_table_[i]) {
      moves.push_back(Move{FileSetId{static_cast<std::uint32_t>(i)},
                           owner_table_[i], next[i]});
    }
  }
  owner_table_.swap(next);
  if (!initial) {
    ANUFS_TRACE(obs::Category::kMove, "assignment_commit",
                {"file_sets", owner_table_.size()}, {"moved", moves.size()});
  }
  return moves;
}

void AssignmentPolicyBase::add_server_id(ServerId id) {
  ANUFS_EXPECTS(std::find(servers_.begin(), servers_.end(), id) ==
                servers_.end());
  servers_.push_back(id);
  std::sort(servers_.begin(), servers_.end());
}

void AssignmentPolicyBase::remove_server_id(ServerId id) {
  const auto it = std::find(servers_.begin(), servers_.end(), id);
  ANUFS_EXPECTS(it != servers_.end());
  servers_.erase(it);
}

}  // namespace anufs::policy
