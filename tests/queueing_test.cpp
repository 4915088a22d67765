// Tests for the FIFO queueing resource.
#include "sim/queueing.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "counting_new.h"
#include "sim/distributions.h"
#include "sim/random.h"
#include "sim/scheduler.h"

namespace anufs::sim {
namespace {

TEST(FifoServer, SingleJobLatencyIsServiceTime) {
  Scheduler sched;
  std::vector<JobCompletion> done;
  FifoServer server(sched, 2.0,
                    [&](const JobCompletion& c) { done.push_back(c); });
  server.submit(1.0, 7);
  sched.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].latency(), 0.5);  // demand 1.0 / speed 2.0
  EXPECT_DOUBLE_EQ(done[0].wait(), 0.0);
  EXPECT_EQ(done[0].tag, 7u);
}

TEST(FifoServer, JobsServeFifo) {
  Scheduler sched;
  std::vector<std::uint64_t> order;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { order.push_back(c.tag); });
  for (std::uint64_t i = 0; i < 5; ++i) server.submit(1.0, i);
  sched.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(FifoServer, QueueingDelaysLatency) {
  Scheduler sched;
  std::vector<double> latencies;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    latencies.push_back(c.latency());
  });
  for (int i = 0; i < 3; ++i) server.submit(2.0, 0);
  sched.run();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 2.0);
  EXPECT_DOUBLE_EQ(latencies[1], 4.0);
  EXPECT_DOUBLE_EQ(latencies[2], 6.0);
}

TEST(FifoServer, SpeedDividesServiceTime) {
  Scheduler sched;
  double slow_done = 0.0;
  double fast_done = 0.0;
  FifoServer slow(sched, 1.0,
                  [&](const JobCompletion& c) { slow_done = c.completion; });
  FifoServer fast(sched, 9.0,
                  [&](const JobCompletion& c) { fast_done = c.completion; });
  slow.submit(9.0, 0);
  fast.submit(9.0, 0);
  sched.run();
  EXPECT_DOUBLE_EQ(slow_done, 9.0);
  EXPECT_DOUBLE_EQ(fast_done, 1.0);
}

TEST(FifoServer, SpeedChangeAppliesToNextService) {
  Scheduler sched;
  std::vector<double> completions;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    completions.push_back(c.completion);
  });
  server.submit(1.0, 0);
  server.submit(1.0, 1);
  // Upgrade while the first job is in service.
  sched.schedule_at(0.5, [&] { server.set_speed(2.0); });
  sched.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);  // started before the upgrade
  EXPECT_DOUBLE_EQ(completions[1], 1.5);  // 1.0 + 1.0/2.0
}

TEST(FifoServer, OccupyBlocksQueue) {
  Scheduler sched;
  bool stall_done = false;
  double job_completion = 0.0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    job_completion = c.completion;
  });
  server.occupy(5.0, [&] { stall_done = true; });
  server.submit(1.0, 0);
  sched.run();
  EXPECT_TRUE(stall_done);
  EXPECT_DOUBLE_EQ(job_completion, 6.0);
}

TEST(FifoServer, OccupyIsFifoOrdered) {
  Scheduler sched;
  double job_completion = 0.0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    job_completion = c.completion;
  });
  server.submit(2.0, 0);
  server.occupy(5.0);
  sched.run();
  EXPECT_DOUBLE_EQ(job_completion, 2.0);  // job entered first
  EXPECT_DOUBLE_EQ(sched.now(), 7.0);     // stall ran after
}

TEST(FifoServer, BacklogTracksQueuedDemand) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  server.submit(2.0, 0);
  server.submit(3.0, 0);
  EXPECT_DOUBLE_EQ(server.backlog_demand(), 5.0);
  sched.run();
  EXPECT_DOUBLE_EQ(server.backlog_demand(), 0.0);
}

TEST(FifoServer, BusyTimeAccumulates) {
  Scheduler sched;
  FifoServer server(sched, 2.0);
  server.submit(4.0, 0);
  server.occupy(1.0);
  sched.run();
  EXPECT_DOUBLE_EQ(server.busy_time(), 3.0);  // 4/2 + 1
}

TEST(FifoServer, CompletedCounts) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  for (int i = 0; i < 4; ++i) server.submit(0.5, 0);
  server.occupy(1.0);  // stalls do not count as completions
  sched.run();
  EXPECT_EQ(server.completed(), 4u);
}

TEST(FifoServer, QueueLengthExcludesInService) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  server.submit(1.0, 0);
  server.submit(1.0, 0);
  server.submit(1.0, 0);
  EXPECT_TRUE(server.busy());
  EXPECT_EQ(server.queue_length(), 3u);  // deque holds all incl. in-service
  sched.run();
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_FALSE(server.busy());
}

TEST(FifoServer, ResetDropsQueuedJobs) {
  Scheduler sched;
  int completions = 0;
  FifoServer server(sched, 1.0, [&](const JobCompletion&) { ++completions; });
  for (int i = 0; i < 5; ++i) server.submit(1.0, 0);
  sched.schedule_at(2.5, [&] {
    const std::size_t lost = server.reset();
    EXPECT_EQ(lost, 3u);  // 2 completed (t=1,2), 3 dropped
  });
  sched.run();
  EXPECT_EQ(completions, 2);
  EXPECT_FALSE(server.busy());
}

TEST(FifoServer, ResetOrphansInFlightCompletion) {
  Scheduler sched;
  bool completed = false;
  FifoServer server(sched, 1.0, [&](const JobCompletion&) { completed = true; });
  server.submit(2.0, 0);
  sched.schedule_at(1.0, [&] { server.reset(); });
  sched.run();
  EXPECT_FALSE(completed);  // the scheduled completion event was stale
}

TEST(FifoServer, UsableAfterReset) {
  Scheduler sched;
  std::vector<JobCompletion> done;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { done.push_back(c); });
  server.submit(10.0, 0);
  sched.schedule_at(1.0, [&] {
    server.reset();
    server.submit(1.0, 1);
  });
  sched.run();
  EXPECT_EQ(server.completed(), 1u);
  ASSERT_EQ(done.size(), 1u);  // the pre-reset job never completes
  EXPECT_EQ(done[0].tag, 1u);
  EXPECT_DOUBLE_EQ(done[0].latency(), 1.0);
}

TEST(FifoServer, BackdatedArrivalExtendsLatency) {
  Scheduler sched;
  double latency = 0.0;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { latency = c.latency(); });
  sched.schedule_at(10.0, [&] { server.submit(1.0, 0, /*arrival=*/4.0); });
  sched.run();
  EXPECT_DOUBLE_EQ(latency, 7.0);  // waited 6 held + 1 service
}

TEST(FifoServer, DeferredDemandEvaluatedAtServiceStart) {
  Scheduler sched;
  double current_cost = 1.0;
  std::vector<double> served;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { served.push_back(c.demand); });
  // Two deferred jobs; the cost variable changes between their starts.
  for (int i = 0; i < 2; ++i) {
    server.submit_deferred([&current_cost] { return current_cost; }, 0);
  }
  sched.schedule_at(0.5, [&] { current_cost = 3.0; });
  sched.run();
  ASSERT_EQ(served.size(), 2u);
  EXPECT_DOUBLE_EQ(served[0], 1.0);  // started at t=0 with cost 1
  EXPECT_DOUBLE_EQ(served[1], 3.0);  // started at t=1 after the change
}

TEST(FifoServer, DeferredJobsKeepFifoOrder) {
  Scheduler sched;
  std::vector<std::uint64_t> order;
  FifoServer server(sched, 2.0,
                    [&](const JobCompletion& c) { order.push_back(c.tag); });
  server.submit(1.0, 1);
  server.submit_deferred([] { return 1.0; }, 2);
  server.submit(1.0, 3);
  sched.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(FifoServer, DeferredDemandDividedBySpeed) {
  Scheduler sched;
  double completion = 0.0;
  FifoServer server(sched, 4.0,
                    [&](const JobCompletion& c) { completion = c.completion; });
  server.submit_deferred([] { return 2.0; }, 0);
  sched.run();
  EXPECT_DOUBLE_EQ(completion, 0.5);
}

TEST(FifoServer, DeferredEvaluatedExactlyOnce) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  int evaluations = 0;
  server.submit_deferred(
      [&evaluations] {
        ++evaluations;
        return 1.0;
      },
      0);
  sched.run();
  EXPECT_EQ(evaluations, 1);
}

TEST(FifoServer, DeferredLostOnReset) {
  Scheduler sched;
  FifoServer server(sched, 1.0);
  int evaluations = 0;
  server.submit(5.0, 0);  // keeps the channel busy
  server.submit_deferred(
      [&evaluations] {
        ++evaluations;
        return 1.0;
      },
      0);
  sched.schedule_at(1.0, [&] { EXPECT_EQ(server.reset(), 2u); });
  sched.run();
  EXPECT_EQ(evaluations, 0);  // never reached service
}

TEST(FifoServer, StallCallbacksFireInJobOrder) {
  // Stalls with and without a callback interleave with requests; each
  // callback belongs to its own stall, whatever ran between them.
  Scheduler sched;
  std::vector<std::pair<char, double>> log;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    log.emplace_back('r', c.completion);
  });
  server.occupy(1.0, [&] { log.emplace_back('a', sched.now()); });
  server.submit(1.0, 0);
  server.occupy(1.0);
  server.occupy(2.0, [&] { log.emplace_back('b', sched.now()); });
  server.submit(1.0, 1);
  sched.run();
  EXPECT_EQ(log, (std::vector<std::pair<char, double>>{
                     {'a', 1.0}, {'r', 2.0}, {'b', 5.0}, {'r', 6.0}}));
}

TEST(FifoServer, ResetDropsPendingCallbacksAndDemands) {
  // Callbacks and demand functions of dropped jobs are released by the
  // reset and never run; jobs submitted afterwards get their own.
  Scheduler sched;
  std::vector<JobCompletion> done;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { done.push_back(c); });
  auto held = std::make_shared<int>(0);
  int dropped_runs = 0;
  server.submit(5.0, 0);  // keeps the channel busy
  server.occupy(1.0, [held, &dropped_runs] { ++dropped_runs; });
  server.submit_deferred(
      [held, &dropped_runs] {
        ++dropped_runs;
        return 1.0;
      },
      1);
  EXPECT_EQ(held.use_count(), 3);
  double stall_done_at = -1.0;
  sched.schedule_at(1.0, [&] {
    EXPECT_EQ(server.reset(), 2u);
    EXPECT_EQ(held.use_count(), 1);
    server.occupy(1.0, [&] { stall_done_at = sched.now(); });
    server.submit_deferred([] { return 2.0; }, 2);
  });
  sched.run();
  EXPECT_EQ(dropped_runs, 0);
  EXPECT_DOUBLE_EQ(stall_done_at, 2.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 2u);
  EXPECT_DOUBLE_EQ(done[0].demand, 2.0);
  EXPECT_DOUBLE_EQ(done[0].completion, 4.0);  // stall 1..2, deferred 2..4
}

TEST(FifoServer, QueueGrowsPastItsFirstCapacityInOrder) {
  // Deep queues wrap and regrow the job ring; FIFO order must survive.
  Scheduler sched;
  std::vector<std::uint64_t> order;
  FifoServer server(sched, 1.0,
                    [&](const JobCompletion& c) { order.push_back(c.tag); });
  std::uint64_t next = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 37; ++i) server.submit(1.0, next++);
    sched.run_until(sched.now() + 20.0);  // drain part, then refill
  }
  sched.run();
  ASSERT_EQ(order.size(), next);
  for (std::uint64_t i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

TEST(FifoServer, SteadyStateRequestPathAllocatesNothing) {
  // Once the job ring and the scheduler's pool have grown, a request
  // costs no allocation: the job is a plain record, completion goes to
  // the server's one sink, and the finish event fits std::function's
  // inline buffer.
  Scheduler sched;
  std::uint64_t completions = 0;
  double latency_sum = 0.0;
  FifoServer server(sched, 2.0, [&](const JobCompletion& c) {
    ++completions;
    latency_sum += c.latency();
  });
  const auto cycle = [&](std::uint64_t tag) {
    server.submit(1.0, tag);
    sched.run();
  };
  for (std::uint64_t i = 0; i < 100; ++i) cycle(i);  // warm-up
  const std::uint64_t before = anufs::testing::allocations();
  for (std::uint64_t i = 0; i < 10'000; ++i) cycle(i);
  EXPECT_EQ(anufs::testing::allocations(), before);
  EXPECT_EQ(completions, 10'100u);
  EXPECT_DOUBLE_EQ(latency_sum, 10'100 * 0.5);
}

// M/M/1 sanity: with utilization rho, mean sojourn time converges to
// E[S]/(1-rho). This validates the queueing core against theory.
TEST(FifoServer, MM1MeanSojourn) {
  Scheduler sched;
  Xoshiro256 rng{42};
  const double lambda = 0.5;   // arrivals per second
  const double mean_service = 1.0;  // rho = 0.5
  double total_latency = 0.0;
  std::uint64_t completions = 0;
  FifoServer server(sched, 1.0, [&](const JobCompletion& c) {
    total_latency += c.latency();
    ++completions;
  });

  double t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    t += sample_exponential(rng, lambda);
    const double demand = sample_exponential(rng, 1.0 / mean_service);
    sched.schedule_at(t, [&, demand] { server.submit(demand, 0); });
  }
  sched.run();
  const double mean = total_latency / static_cast<double>(completions);
  // Theory: E[T] = E[S]/(1-rho) = 1/(1-0.5) = 2.0. Allow 5% noise.
  EXPECT_NEAR(mean, 2.0, 0.1);
}

}  // namespace
}  // namespace anufs::sim
