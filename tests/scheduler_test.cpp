// Tests for the discrete-event scheduler: ordering, determinism,
// horizons, the slot pool.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "counting_new.h"

namespace anufs::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0.0);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SameTimeFiresInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler sched;
  double seen = -1.0;
  sched.schedule_at(5.5, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 5.5);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  double seen = -1.0;
  sched.schedule_at(2.0, [&] {
    sched.schedule_in(3.0, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 5.0);
}

TEST(Scheduler, HandlerMayScheduleAtCurrentTime) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] {
    order.push_back(1);
    sched.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, PendingCountsUnfiredUncancelled) {
  Scheduler sched;
  sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilAdvancesClockWithoutEvents) {
  Scheduler sched;
  sched.run_until(10.0);
  EXPECT_EQ(sched.now(), 10.0);
}

TEST(Scheduler, EventAtHorizonFires) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(2.0, [&] { fired = true; });
  sched.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StepFiresExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(1.0, [&] { ++count; });
  sched.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, CascadedEventsAllFire) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sched.schedule_in(0.5, chain);
  };
  sched.schedule_in(0.5, chain);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(sched.now(), 50.0, 1e-9);
}

TEST(Scheduler, FiredCounterTracksHandlers) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(1.0 + i, [] {});
  sched.run();
  EXPECT_EQ(sched.fired(), 7u);
}

TEST(Scheduler, StatsTrackFiredCancelledPeak) {
  Scheduler sched;
  sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.schedule_at(3.0, [] {});
  EXPECT_EQ(sched.stats().peak_pending, 3u);
  sched.run();
  EXPECT_EQ(sched.stats().fired, 3u);
  // There is no cancellation: the counter stays 0 for its one reader.
  EXPECT_EQ(sched.stats().cancelled, 0u);
  EXPECT_EQ(sched.stats().peak_pending, 3u);
}

TEST(Scheduler, RunUntilFiresHandlerScheduledAtHorizonByHorizonHandler) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(2.0, [&] {
    order.push_back(1);
    sched.schedule_at(2.0, [&] { order.push_back(2); });
  });
  sched.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, SteadyStateRecyclesSlotsInsteadOfAllocating) {
  // schedule -> fire -> schedule must stop growing the pool once it
  // covers the peak backlog: only the first round allocates nodes, every
  // later schedule is served from the free list.
  Scheduler sched;
  for (int round = 0; round < 100; ++round) {
    for (int e = 0; e < 8; ++e) {
      sched.schedule_in(static_cast<double>(e), [] {});
    }
    sched.run();
  }
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.fired, 800u);
  EXPECT_EQ(stats.pool_allocated, 8u);
  EXPECT_EQ(stats.pool_recycled, 792u);
}

TEST(Scheduler, ReservePreSizesWithoutAllocatingNodes) {
  Scheduler sched;
  sched.reserve(64);
  EXPECT_EQ(sched.stats().pool_allocated, 0u);
  sched.schedule_at(1.0, [] {});
  EXPECT_EQ(sched.stats().pool_allocated, 1u);
  sched.run();
  EXPECT_EQ(sched.fired(), 1u);
}

TEST(Scheduler, StatsSnapshotConservesPoolAcrossScheduleFireStorm) {
  // stats() captures pool composition and the cumulative counters in one
  // call, so the conservation law pool_size == pool_free + pending must
  // hold in EVERY snapshot: while the backlog grows, while handlers fire
  // and schedule into the slots they just freed, and once it drains.
  Scheduler sched;
  const auto check = [&sched](const char* where) {
    const Scheduler::Stats s = sched.stats();
    EXPECT_EQ(s.pool_size, s.pool_free + s.pending) << where;
    EXPECT_EQ(s.pool_size, s.pool_allocated) << where;
    EXPECT_EQ(s.pending, sched.pending()) << where;
  };
  check("empty");

  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(1.0 + i, [&sched, &check, i] {
      check("firing");
      // Every fifth event schedules a follow-up, which reuses a slot.
      if (i % 5 == 0) {
        sched.schedule_in(0.5, [&check] { check("follow-up"); });
      }
    });
    check("scheduling");
  }
  for (int fired = 0; sched.step(); ++fired) {
    if (fired % 7 == 0) check("stepping");
  }
  check("drained");
  const Scheduler::Stats end = sched.stats();
  EXPECT_EQ(end.pending, 0u);
  EXPECT_EQ(end.pool_free, end.pool_size);
  EXPECT_EQ(end.pool_size, 200u);
  EXPECT_EQ(end.fired, 240u);
  EXPECT_EQ(end.pool_recycled, 40u);
}

TEST(Scheduler, ReservedSteadyStateAllocatesNothing) {
  // Once reserve() covers the peak backlog, schedule -> fire cycles
  // allocate nothing at all: not a pool slot, not heap capacity.
  Scheduler sched;
  sched.reserve(256);
  for (int e = 0; e < 200; ++e) {
    sched.schedule_in(static_cast<double>(e), [] {});
  }
  sched.run();
  const std::uint64_t before = anufs::testing::allocations();
  for (int cycle = 0; cycle < 200; ++cycle) {
    for (int e = 0; e < 200; ++e) {
      sched.schedule_in(static_cast<double>(e), [] {});
    }
    sched.run();
  }
  EXPECT_EQ(anufs::testing::allocations(), before);
  EXPECT_EQ(sched.fired(), 200u + 200u * 200u);
}

// ---- merged arrival streams ----------------------------------------------

struct Arrival {
  SimTime time;
};

// Integer times with 1-3 arrivals per instant, starting at 0: dense ties
// with each other and with every integer-time calendar event.
std::vector<Arrival> tied_arrivals(int n) {
  std::vector<Arrival> out;
  for (int i = 0; i < n; ++i) out.push_back(Arrival{std::floor(i * 0.4)});
  return out;
}

// Runs one scenario and returns its firing log. `wire` connects the
// arrival stream to the calendar, given the handler for arrival i; it is
// called between two batches of calendar events, so events scheduled
// before and after arrival 0 takes its number both tie with arrivals.
// Arrival handlers schedule at the current instant (ties with the next
// arrival, whose number is drawn after) and one tick ahead (ties with
// arrivals whose numbers were drawn before); those events schedule more
// at their own instant.
std::vector<int> tie_scenario(
    const std::function<void(Scheduler&, std::function<void(std::size_t)>)>&
        wire,
    double horizon) {
  Scheduler sched;
  std::vector<int> log;
  for (int k = 0; k < 6; ++k) {
    sched.schedule_at(k * 2.0, [&log, k] { log.push_back(1000 + k); });
  }
  wire(sched, [&sched, &log](std::size_t i) {
    const int id = static_cast<int>(i);
    log.push_back(id);
    sched.schedule_in(0.0, [&sched, &log, id] {
      log.push_back(3000 + id);
      if (id % 2 == 0) {
        sched.schedule_in(0.0, [&log, id] { log.push_back(5000 + id); });
      }
    });
    if (id % 3 == 0) {
      sched.schedule_in(1.0, [&log, id] { log.push_back(4000 + id); });
    }
  });
  for (int k = 0; k < 6; ++k) {
    sched.schedule_at(k * 3.0, [&log, k] { log.push_back(2000 + k); });
  }
  if (horizon < 0.0) {
    sched.run();
  } else {
    sched.run_until(horizon);
  }
  log.push_back(static_cast<int>(sched.fired()));
  return log;
}

// The reference: each arrival's handler schedules the next arrival as an
// ordinary calendar event when it returns.
void wire_self_rescheduling(const std::vector<Arrival>& arrivals,
                            Scheduler& sched,
                            std::function<void(std::size_t)> fire) {
  auto chain = std::make_shared<std::function<void(std::size_t)>>();
  *chain = [&arrivals, &sched, fire, weak = std::weak_ptr(chain)](
               std::size_t i) {
    fire(i);
    if (i + 1 < arrivals.size()) {
      sched.schedule_at(arrivals[i + 1].time,
                        [c = weak.lock(), i] { (*c)(i + 1); });
    }
  };
  sched.schedule_at(arrivals.front().time, [chain] { (*chain)(0); });
}

void wire_merged(const std::vector<Arrival>& arrivals, Scheduler& sched,
                 std::function<void(std::size_t)> fire) {
  sched.merge_arrivals(std::span<const Arrival>(arrivals), &Arrival::time,
                       std::move(fire));
}

TEST(Scheduler, MergedArrivalsFireInSelfReschedulingOrder) {
  const std::vector<Arrival> arrivals = tied_arrivals(40);
  for (const double horizon : {-1.0, 0.0, 7.0, 9.0, 100.0}) {
    const auto reference = tie_scenario(
        [&](Scheduler& s, std::function<void(std::size_t)> fire) {
          wire_self_rescheduling(arrivals, s, std::move(fire));
        },
        horizon);
    const auto merged = tie_scenario(
        [&](Scheduler& s, std::function<void(std::size_t)> fire) {
          wire_merged(arrivals, s, std::move(fire));
        },
        horizon);
    EXPECT_EQ(merged, reference) << "horizon " << horizon;
  }
}

TEST(Scheduler, MergedArrivalsAreFiredButTakeNoPoolSlot) {
  Scheduler sched;
  const std::vector<Arrival> arrivals{{1.0}, {1.0}, {2.5}};
  std::vector<std::pair<std::size_t, double>> fired;
  sched.merge_arrivals(std::span<const Arrival>(arrivals), &Arrival::time,
                       [&](std::size_t i) { fired.emplace_back(i, sched.now()); });
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_FALSE(sched.empty());
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(sched.step());
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(fired, (std::vector<std::pair<std::size_t, double>>{
                       {0, 1.0}, {1, 1.0}, {2, 2.5}}));
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.fired, 3u);
  EXPECT_EQ(stats.pool_allocated, 0u);
  EXPECT_EQ(stats.pool_recycled, 0u);
  EXPECT_EQ(stats.peak_pending, 0u);
}

TEST(Scheduler, RunUntilStopsMergedArrivalsAtHorizon) {
  Scheduler sched;
  const std::vector<Arrival> arrivals{{1.0}, {2.0}, {3.0}};
  std::vector<std::size_t> fired;
  sched.merge_arrivals(std::span<const Arrival>(arrivals), &Arrival::time,
                       [&](std::size_t i) { fired.push_back(i); });
  sched.run_until(2.0);  // an arrival at the horizon fires
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sched.now(), 2.0);
  sched.run();
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, EmptyArrivalStreamChangesNothing) {
  Scheduler sched;
  const std::vector<Arrival> none;
  sched.merge_arrivals(std::span<const Arrival>(none), &Arrival::time,
                       [](std::size_t) { FAIL(); });
  EXPECT_TRUE(sched.empty());
  sched.schedule_at(1.0, [] {});
  sched.run();
  EXPECT_EQ(sched.fired(), 1u);
  // Once exhausted, another stream may be merged.
  const std::vector<Arrival> more{{2.0}};
  int seen = 0;
  sched.merge_arrivals(std::span<const Arrival>(more), &Arrival::time,
                       [&](std::size_t) { ++seen; });
  sched.run();
  EXPECT_EQ(seen, 1);
}

TEST(Scheduler, ManyEventsDeterministicOrder) {
  // Two identical schedules must produce identical firing orders.
  const auto run_once = [] {
    Scheduler sched;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      sched.schedule_at((i * 7919) % 100, [&order, i] { order.push_back(i); });
    }
    sched.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace anufs::sim
