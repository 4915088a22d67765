// Tests for the typed op-workload generator.
#include "workload/op_workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "hash/mix64.h"
#include "request_digest.h"

namespace anufs::workload {
namespace {

OpWorkloadConfig small_config() {
  OpWorkloadConfig config;
  config.file_sets = 10;
  config.total_ops = 4000;
  config.duration = 800.0;
  config.seed = 9;
  return config;
}

TEST(OpWorkload, ProducesValidWorkload) {
  const OpWorkloadResult r = make_op_workload(small_config());
  r.workload.validate();
  EXPECT_EQ(r.workload.file_sets.size(), 10u);
  EXPECT_NEAR(static_cast<double>(r.workload.request_count()), 4000.0,
              5 * 64.0);  // Poisson noise
  EXPECT_EQ(r.kinds.size(), r.workload.request_count());
  EXPECT_EQ(r.ok + r.failed, r.workload.request_count());
}

TEST(OpWorkload, Deterministic) {
  const OpWorkloadResult a = make_op_workload(small_config());
  const OpWorkloadResult b = make_op_workload(small_config());
  ASSERT_EQ(a.workload.request_count(), b.workload.request_count());
  for (std::size_t i = 0; i < a.workload.requests.size(); ++i) {
    EXPECT_EQ(a.workload.requests[i].time, b.workload.requests[i].time);
    EXPECT_EQ(a.workload.requests[i].demand, b.workload.requests[i].demand);
    EXPECT_EQ(a.kinds[i], b.kinds[i]);
  }
}

// Pinned output, recorded before the time ordering became a stable
// distribution pass: the request stream and the op kinds aligned with it.
TEST(OpWorkload, PinnedOutput) {
  const OpWorkloadResult r = make_op_workload(small_config());
  EXPECT_EQ(r.workload.request_count(), 4022u);
  EXPECT_EQ(request_digest(r.workload.requests), 0x3bfbb6a2a2dbbb35u);
  std::uint64_t kinds = r.kinds.size();
  for (const fsmeta::OpKind kind : r.kinds) {
    kinds = hash::mix64(kinds ^ static_cast<std::uint64_t>(kind));
  }
  EXPECT_EQ(kinds, 0x6b93ecc66b14fa58u);
}

TEST(OpWorkload, DemandsComeFromExecution) {
  const OpWorkloadConfig config = small_config();
  const OpWorkloadResult r = make_op_workload(config);
  // Every demand is at least the base CPU cost and bounded by a
  // generous ceiling (deep path + big readdir + sync).
  for (const RequestEvent& req : r.workload.requests) {
    EXPECT_GE(req.demand, config.cost.base);
    EXPECT_LT(req.demand, 1.0);
  }
}

TEST(OpWorkload, MutationsCostMoreThanReadsOnAverage) {
  const OpWorkloadResult r = make_op_workload(small_config());
  double read_sum = 0.0;
  double write_sum = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (std::size_t i = 0; i < r.kinds.size(); ++i) {
    if (fsmeta::is_mutation(r.kinds[i])) {
      write_sum += r.workload.requests[i].demand;
      ++writes;
    } else {
      read_sum += r.workload.requests[i].demand;
      ++reads;
    }
  }
  ASSERT_GT(reads, 0u);
  ASSERT_GT(writes, 0u);
  EXPECT_GT(write_sum / static_cast<double>(writes),
            read_sum / static_cast<double>(reads));
}

TEST(OpWorkload, MostOpsSucceed) {
  const OpWorkloadResult r = make_op_workload(small_config());
  // The generator aims live targets; failures (deliberate misses,
  // lock conflicts, stale close paths) stay a modest minority.
  EXPECT_GT(r.ok, r.failed * 2);
}

TEST(OpWorkload, SomeLockActivityHappens) {
  OpWorkloadConfig config = small_config();
  config.total_ops = 20000;
  config.duration = 2000.0;
  const OpWorkloadResult r = make_op_workload(config);
  std::uint64_t opens = 0;
  for (const fsmeta::OpKind k : r.kinds) {
    if (k == fsmeta::OpKind::kOpen) ++opens;
  }
  EXPECT_GT(opens, 100u);
  // Lock conflicts exist (exclusive opens collide) but are rare.
  EXPECT_GT(r.lock_conflicts, 0u);
  EXPECT_LT(r.lock_conflicts, r.workload.request_count() / 10);
}

TEST(OpWorkload, NamespacesEndConsistent) {
  const OpWorkloadResult r = make_op_workload(small_config());
  for (const auto& svc : r.services) {
    svc->tree().check_consistency();
    svc->locks().check_consistency();
    // Every namespace grew beyond its root.
    EXPECT_GT(svc->tree().inode_count(), 1u);
  }
}

TEST(OpWorkload, ActivityFollowsWeights) {
  OpWorkloadConfig config = small_config();
  config.total_ops = 40000;
  config.duration = 4000.0;
  const OpWorkloadResult r = make_op_workload(config);
  EXPECT_GT(r.workload.activity_skew(), 10.0);  // log-uniform weights
}

TEST(OpWorkload, DrivesClusterSimulation) {
  // The generated workload is a drop-in for the cluster simulator.
  const OpWorkloadResult r = make_op_workload(small_config());
  EXPECT_GT(r.workload.request_count(), 1000u);
  EXPECT_TRUE(std::is_sorted(
      r.workload.requests.begin(), r.workload.requests.end(),
      [](const RequestEvent& a, const RequestEvent& b) {
        return a.time < b.time;
      }));
}

}  // namespace
}  // namespace anufs::workload
