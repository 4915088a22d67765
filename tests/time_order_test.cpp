// Tests for order_by_time, the stable linear-time request ordering: it
// must leave exactly what std::stable_sort by time leaves, on spread,
// tied, clamped and clustered inputs.
#include "workload/time_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/random.h"

namespace anufs::workload {
namespace {

struct Rec {
  double time = 0.0;
  std::uint32_t seq = 0;  ///< input position, to check stability

  friend bool operator==(const Rec&, const Rec&) = default;
};

std::vector<Rec> numbered(const std::vector<double>& times) {
  std::vector<Rec> out(times.size());
  for (std::uint32_t i = 0; i < out.size(); ++i) out[i] = {times[i], i};
  return out;
}

/// Orders `times` both ways and requires identical results.
void expect_matches_stable_sort(const std::vector<double>& times,
                                double duration) {
  std::vector<Rec> expected = numbered(times);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Rec& a, const Rec& b) { return a.time < b.time; });
  std::vector<Rec> got = numbered(times);
  order_by_time(std::span(got), duration, [](const Rec& r) { return r.time; });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "at position " << i;
  }
}

/// Per-set increasing runs, set after set: the shape generators emit.
std::vector<double> generated_runs(std::uint32_t sets, std::size_t per_set,
                                   double duration, std::uint64_t seed) {
  std::vector<double> times;
  for (std::uint32_t s = 0; s < sets; ++s) {
    sim::Xoshiro256 rng = sim::make_stream(seed, "time-order-test", s);
    std::vector<double> run(per_set);
    for (double& t : run) t = rng.next_double() * duration;
    std::sort(run.begin(), run.end());
    times.insert(times.end(), run.begin(), run.end());
  }
  return times;
}

TEST(OrderByTime, EmptyAndSingle) {
  std::vector<Rec> none;
  order_by_time(std::span(none), 10.0, [](const Rec& r) { return r.time; });
  EXPECT_TRUE(none.empty());
  std::vector<Rec> one{{3.5, 0}};
  order_by_time(std::span(one), 10.0, [](const Rec& r) { return r.time; });
  EXPECT_EQ(one, (std::vector<Rec>{{3.5, 0}}));
}

TEST(OrderByTime, AllEqualTimesKeepInputOrder) {
  for (const std::size_t n : {2u, 17u, 300u, 5000u}) {
    std::vector<Rec> recs = numbered(std::vector<double>(n, 4.25));
    order_by_time(std::span(recs), 10.0, [](const Rec& r) { return r.time; });
    for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(recs[i].seq, i);
  }
}

TEST(OrderByTime, MatchesStableSortOnGeneratedRuns) {
  expect_matches_stable_sort(generated_runs(500, 200, 10'000.0, 1), 10'000.0);
  expect_matches_stable_sort(generated_runs(21, 3000, 3600.0, 2), 3600.0);
  expect_matches_stable_sort(generated_runs(3, 5, 1.0, 3), 1.0);
}

TEST(OrderByTime, TiesAcrossRunsKeepRunOrder) {
  // Times on a coarse grid, so most records tie with records of other
  // runs and the result depends on the tie rule alone.
  std::vector<double> times = generated_runs(64, 400, 100.0, 4);
  for (double& t : times) t = static_cast<double>(static_cast<int>(t));
  expect_matches_stable_sort(times, 100.0);
}

TEST(OrderByTime, TimesAtBothEndsOfTheHorizon) {
  const double duration = 1000.0;
  std::vector<double> times = generated_runs(40, 100, duration, 5);
  for (std::size_t i = 0; i < times.size(); i += 7) {
    times[i] = (i / 7) % 2 == 0 ? 0.0 : duration;
  }
  expect_matches_stable_sort(times, duration);
}

TEST(OrderByTime, TimesOutsideTheHorizonStillSort) {
  std::vector<double> times = generated_runs(20, 500, 3000.0, 6);
  for (double& t : times) t -= 1000.0;  // spans [-1000, 2000) of [0, 1000]
  expect_matches_stable_sort(times, 1000.0);
}

TEST(OrderByTime, ClusteredInputFallsBackAndStaysStable) {
  // 100k records packed into 1e-3 of a 10,000 s horizon land in one
  // window: the comparison fallback must keep this fast and stable.
  sim::Xoshiro256 rng = sim::make_stream(7, "time-order-test.cluster");
  std::vector<double> times(100'000);
  for (double& t : times) {
    t = 5000.0 + 1e-3 * static_cast<double>(rng.next_below(4096)) / 4096.0;
  }
  expect_matches_stable_sort(times, 10'000.0);
}

TEST(OrderByTime, MixedSpreadAndClusteredInput) {
  // Spread records plus a burst that overfills some windows and fine
  // buckets but not others.
  std::vector<double> times = generated_runs(100, 300, 500.0, 8);
  sim::Xoshiro256 rng = sim::make_stream(8, "time-order-test.burst");
  for (int i = 0; i < 20'000; ++i) {
    times.push_back(250.0 + 0.01 * rng.next_double());
  }
  for (int i = 0; i < 2'000; ++i) times.push_back(125.0);
  expect_matches_stable_sort(times, 500.0);
}

TEST(OrderByTime, SortsIndicesByProjectedTime) {
  // The op-workload shape: a permutation of indices keyed by an
  // external time table.
  const std::vector<double> table = generated_runs(30, 300, 800.0, 9);
  std::vector<std::size_t> order(table.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  order_by_time(std::span(order), 800.0,
                [&](std::size_t i) { return table[i]; });
  std::vector<std::size_t> expected(table.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return table[a] < table[b];
                   });
  EXPECT_EQ(order, expected);
}

TEST(PoissonCapacity, CoversMeanPlusFourSigma) {
  EXPECT_EQ(poisson_capacity(0.0), 64u);
  EXPECT_EQ(poisson_capacity(100'000.0), 100'000u + 1264u + 64u);
}

}  // namespace
}  // namespace anufs::workload
