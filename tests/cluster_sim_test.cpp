// End-to-end tests for the cluster simulator: request routing, interval
// sampling, movement costs, failure/recovery/commission injection, and
// determinism.
#include "cluster/cluster_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "hash/mix64.h"
#include "policies/anu_policy.h"
#include "policies/round_robin.h"
#include "policies/simple_random.h"
#include "workload/synthetic.h"

namespace anufs::cluster {
namespace {

workload::Workload small_workload(std::uint64_t seed = 1) {
  workload::SyntheticConfig config;
  config.file_sets = 40;
  config.total_requests = 4000;
  config.duration = 1200.0;  // 10 reconfiguration periods
  config.seed = seed;
  return workload::make_synthetic(config);
}

ClusterConfig small_cluster() {
  ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.reconfig_period = 120.0;
  return cc;
}

TEST(ClusterSim, AllRequestsCompleteUnderLightLoad) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_EQ(result.total_requests, work.request_count());
  // Light load: nearly everything finishes inside the horizon.
  EXPECT_GT(result.completed, result.total_requests * 95 / 100);
  EXPECT_EQ(result.lost, 0u);
}

TEST(ClusterSim, StaticPolicyNeverMoves) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  EXPECT_EQ(sim.run().moves, 0u);
}

TEST(ClusterSim, SeriesSampledOncePerPeriodPerServer) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_EQ(result.latency_ms.size(), 5u);
  for (const std::string& label : result.latency_ms.labels()) {
    EXPECT_EQ(result.latency_ms.at(label).size(), 10u);  // 1200 / 120
  }
}

TEST(ClusterSim, LatencySeriesNonNegative) {
  const workload::Workload work = small_workload();
  policy::SimpleRandomPolicy policy{2};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  for (const std::string& label : result.latency_ms.labels()) {
    for (const auto& [t, v] : result.latency_ms.at(label).points()) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  const workload::Workload work = small_workload();
  const auto run_once = [&] {
    policy::AnuPolicy policy{core::AnuConfig{}};
    ClusterSim sim(small_cluster(), work, policy);
    return sim.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  for (const std::string& label : a.latency_ms.labels()) {
    const auto& pa = a.latency_ms.at(label).points();
    const auto& pb = b.latency_ms.at(label).points();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].second, pb[i].second) << label << " sample " << i;
    }
  }
}

TEST(ClusterSim, PerServerAccountingAddsUp) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  std::uint64_t total = 0;
  for (const auto& [id, c] : result.server_completed) total += c;
  EXPECT_EQ(total, result.completed);
  for (const auto& [id, busy] : result.server_busy) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, work.duration * 1.01);
  }
}

TEST(ClusterSim, FasterServersCompleteRequestsFaster) {
  // Under round-robin (equal request share), faster servers must show
  // lower busy time for roughly equal completions.
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.server_busy.at(0), result.server_busy.at(4));
}

TEST(ClusterSim, MovementCostsHoldRequests) {
  // With movement enabled, ANU's early reshaping produces file-set
  // transit periods; total moves > 0 and everything still completes.
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.moves, 0u);
  EXPECT_GT(result.completed, result.total_requests * 9 / 10);
}

TEST(ClusterSim, MovementCostsCanBeDisabled) {
  const workload::Workload work = small_workload();
  ClusterConfig cc = small_cluster();
  cc.movement.enabled = false;
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(cc, work, policy);
  const RunResult result = sim.run();
  EXPECT_GT(result.completed, result.total_requests * 98 / 100);
}

TEST(ClusterSim, FailureLosesQueuedWorkAndRehomes) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(400.0, ServerId{0});
  const RunResult result = sim.run();
  // After the crash nothing routes to server 0: its completions stop.
  EXPECT_EQ(policy.servers().size(), 4u);
  // The run survives and the books still balance.
  std::uint64_t total = 0;
  for (const auto& [id, c] : result.server_completed) total += c;
  EXPECT_EQ(total, result.completed);
  EXPECT_LE(result.completed + result.lost, result.total_requests);
}

TEST(ClusterSim, FailedServerSeriesReportsZero) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(130.0, ServerId{2});
  const RunResult result = sim.run();
  const auto& points = result.latency_ms.at("server2").points();
  // All samples after the crash read 0 (dead server).
  for (const auto& [t, v] : points) {
    if (t > 240.0) {
      EXPECT_EQ(v, 0.0) << "at t=" << t;
    }
  }
}

TEST(ClusterSim, RecoveryRestoresService) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  sim.schedule_failure(240.0, ServerId{1});
  sim.schedule_recovery(600.0, ServerId{1});
  const RunResult result = sim.run();
  EXPECT_EQ(policy.servers().size(), 5u);
  EXPECT_GT(result.completed, result.total_requests / 2);
  policy.system().check_invariants();
}

TEST(ClusterSim, CommissionNewServerJoinsCluster) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterConfig cc = small_cluster();
  ClusterSim sim(cc, work, policy);
  sim.schedule_addition(360.0, ServerId{5}, /*speed=*/9.0);
  const RunResult result = sim.run();
  EXPECT_EQ(policy.servers().size(), 6u);
  // The newcomer appears in the results map.
  EXPECT_TRUE(result.server_completed.contains(5));
  policy.system().check_invariants();
}

TEST(ClusterSim, MovesTimelineMatchesTotal) {
  const workload::Workload work = small_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(small_cluster(), work, policy);
  const RunResult result = sim.run();
  std::uint64_t from_timeline = 0;
  for (const auto& [t, n] : result.moves_timeline) from_timeline += n;
  EXPECT_EQ(from_timeline, result.moves);
}

TEST(ClusterSim, LatencySampleRecordingOptIn) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy p1;
  ClusterSim off(small_cluster(), work, p1);
  const RunResult without = off.run();
  EXPECT_TRUE(without.latency_samples.empty());

  ClusterConfig cc = small_cluster();
  cc.record_latency_samples = true;
  policy::RoundRobinPolicy p2;
  ClusterSim on(cc, work, p2);
  const RunResult with = on.run();
  std::size_t total = 0;
  for (const auto& [id, samples] : with.latency_samples) {
    total += samples.size();
    for (const double lat : samples) EXPECT_GE(lat, 0.0);
  }
  EXPECT_EQ(total, with.completed);
}

// Order-sensitive digest of a run's modelled outputs, in the pattern of
// request_digest.h: every count, time and latency bit, in a fixed order.
// Engine counters other than `fired` are left out: they describe the
// calendar's bookkeeping, not the modelled run.
std::uint64_t run_digest(const RunResult& r) {
  std::uint64_t h = r.total_requests;
  const auto fold = [&h](std::uint64_t v) { h = hash::mix64(h ^ v); };
  const auto fold_time = [&fold](double v) {
    fold(std::bit_cast<std::uint64_t>(v));
  };
  fold(r.completed);
  fold(r.lost);
  fold(r.moves);
  fold(r.crash_moves);
  fold(r.forwarded);
  fold(r.queued_at_end);
  fold(r.held_at_end);
  fold(r.in_transit_at_end);
  fold(r.engine.fired);
  fold_time(r.mean_latency);
  fold_time(r.san_busy);
  fold_time(r.san_mean_end_to_end);
  for (const auto& [t, n] : r.moves_timeline) {
    fold_time(t);
    fold(n);
  }
  for (const RecoveryEpisode& e : r.recoveries) {
    fold_time(e.declared_at);
    fold_time(e.completed_at);
    fold(e.moves);
  }
  for (const auto& [id, n] : r.server_completed) {
    fold(id);
    fold(n);
  }
  for (const auto& [id, busy] : r.server_busy) {
    fold(id);
    fold_time(busy);
  }
  for (const std::string& label : r.latency_ms.labels()) {
    for (const auto& [t, v] : r.latency_ms.at(label).points()) {
      fold_time(t);
      fold_time(v);
    }
  }
  for (const auto& [id, samples] : r.latency_samples) {
    fold(id);
    for (const double lat : samples) fold_time(lat);
  }
  return h;
}

// Requests on a half-second grid, 1-3 per instant, so they land exactly
// on every reconfiguration tick (t = k * 20) and, with dyadic demands,
// speeds, stalls and move costs, on stall completions and move drains.
workload::Workload tick_aligned_workload(std::uint32_t first_step = 0) {
  workload::Workload w;
  w.name = "tick_aligned";
  w.duration = 200.0;
  constexpr std::uint32_t kSets = 12;
  for (std::uint32_t i = 0; i < kSets; ++i) {
    w.file_sets.push_back(
        workload::FileSetSpec::make(i, "tick" + std::to_string(i), 1.0));
  }
  for (std::uint32_t step = first_step; step < 400; ++step) {
    for (std::uint32_t j = 0; j <= step % 3; ++j) {
      const std::uint32_t fs = (step * 7 + j * 5) % kSets;
      w.requests.push_back(workload::RequestEvent{
          0.5 * step, FileSetId{fs}, 0.25 * (1 + (step + j) % 4)});
    }
  }
  w.validate();
  return w;
}

ClusterConfig tick_aligned_cluster() {
  ClusterConfig cc;
  cc.server_speeds = {1, 2, 4};
  cc.reconfig_period = 20.0;
  cc.movement.flush_min = cc.movement.flush_max = 2.0;
  cc.movement.init_min = cc.movement.init_max = 1.0;
  cc.movement.shed_cpu_stall = 1.0;
  cc.movement.acquire_cpu_stall = 0.5;
  cc.movement.cold_requests = 4;
  cc.record_latency_samples = true;
  return cc;
}

// Pinned on the engine that scheduled every arrival as a calendar event:
// arrivals tied with reconfigurations, membership events, stall
// completions and move drains must keep their firing order.
TEST(ClusterSim, TickAlignedRunDigestIsPinned) {
  const workload::Workload work = tick_aligned_workload();
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(tick_aligned_cluster(), work, policy);
  sim.schedule_failure(60.0, ServerId{1});
  sim.schedule_recovery(120.0, ServerId{1});
  sim.schedule_addition(140.0, ServerId{3}, 2.0);
  const RunResult result = sim.run();
  EXPECT_GT(result.moves, 0u);
  EXPECT_EQ(run_digest(result), 0x074f3077ba52ef8du);
}

TEST(ClusterSim, TickAlignedStaleRoutingRunDigestIsPinned) {
  // The same grid with forwarding (stale routes), a silent crash under
  // the failure detector, and the SAN data path.
  const workload::Workload work = tick_aligned_workload();
  ClusterConfig cc = tick_aligned_cluster();
  cc.routing.model_staleness = true;
  cc.routing.distribution_delay = 2.0;
  cc.routing.forward_demand = 0.25;
  cc.routing.forward_hop = 0.5;
  cc.detector.enabled = true;
  cc.detector.sweep_interval = 5.0;
  cc.detector.timeout = 10.0;
  cc.san.enabled = true;
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(cc, work, policy);
  // Crashes between ticks: silent until the detector sweep at t = 75.
  sim.schedule_failure(65.0, ServerId{2});
  sim.schedule_recovery(120.0, ServerId{2});
  const RunResult result = sim.run();
  EXPECT_GT(result.forwarded, 0u);
  EXPECT_GT(result.lost, 0u);
  EXPECT_EQ(run_digest(result), 0x60baeade97eed7b6u);
}

TEST(ClusterSim, FirstArrivalTiedWithFirstDetectorSweepDigestIsPinned) {
  // The first request arrives at t = 5 for a set whose owner crashed
  // silently at t = 0, exactly when the first detector sweep declares
  // the crash. It was numbered before the sweep, so it reaches the dead
  // owner and is lost; the requests after it are re-homed.
  const workload::Workload work = tick_aligned_workload(10);
  ClusterConfig cc = tick_aligned_cluster();
  cc.detector.enabled = true;
  cc.detector.sweep_interval = 5.0;
  cc.detector.timeout = 5.0;
  policy::AnuPolicy policy{core::AnuConfig{}};
  ClusterSim sim(cc, work, policy);
  const ServerId victim = policy.owner(work.requests.front().file_set);
  sim.schedule_failure(0.0, victim);
  sim.schedule_recovery(100.0, victim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.lost, 1u);
  EXPECT_EQ(run_digest(result), 0x0669bd191cd3a1ccu);
}

TEST(ClusterSimDeathTest, RunTwiceAborts) {
  const workload::Workload work = small_workload();
  policy::RoundRobinPolicy policy;
  ClusterSim sim(small_cluster(), work, policy);
  (void)sim.run();
  EXPECT_DEATH((void)sim.run(), "precondition");
}

}  // namespace
}  // namespace anufs::cluster
