// Self-tests of the benchmark: the forwarding decorator changes nothing,
// the metric names are well formed, and a bad output is reported as
// failed. Built as perfbench_selftest; perfbench/selftest.py runs it.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "policies/registry.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

namespace anu = anufs;

anu::workload::Workload small_workload() {
  anu::workload::SyntheticConfig wc;
  wc.duration = 600;
  wc.total_requests = 4000;
  wc.file_sets = 60;
  wc.seed = 11;
  return anu::workload::make_synthetic(wc);
}

anu::policy::PolicyParams params_for(const anu::workload::Workload& work) {
  anu::policy::PolicyParams p;
  p.seed = 11;
  p.reconfig_period = 60.0;
  p.workload = &work;
  const double speeds[] = {1, 3, 5, 7, 9, 4};
  for (std::uint32_t i = 0; i < 6; ++i) {
    p.capacities[anu::ServerId{i}] = speeds[i];
  }
  return p;
}

void expect_same_moves(const std::vector<anu::policy::Move>& a,
                       const std::vector<anu::policy::Move>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file_set, b[i].file_set);
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
  }
}

void expect_same_owners(const anu::policy::PlacementPolicy& a,
                        const anu::policy::PlacementPolicy& b,
                        const anu::workload::Workload& work) {
  for (const auto& fs : work.file_sets) {
    EXPECT_EQ(a.owner(fs.id), b.owner(fs.id)) << "file set " << fs.id.value;
  }
  EXPECT_EQ(a.servers(), b.servers());
}

std::vector<anu::core::ServerReport> reports_for(
    const std::vector<anu::ServerId>& servers, double skew) {
  std::vector<anu::core::ServerReport> reports;
  for (const anu::ServerId id : servers) {
    anu::core::ServerReport r;
    r.id = id;
    r.mean_latency = 0.002 + skew * 0.01 / (1.0 + id.value);
    r.requests = 100 + 10 * id.value;
    reports.push_back(r);
  }
  return reports;
}

// Call by call, the decorator answers exactly what a twin of the wrapped
// policy answers, for every policy in the registry.
TEST(TracingPolicy, ForwardsEveryCallUnchangedForEveryPolicy) {
  const anu::workload::Workload work = small_workload();
  const std::vector<anu::ServerId> initial = {
      anu::ServerId{0}, anu::ServerId{1}, anu::ServerId{2}, anu::ServerId{3},
      anu::ServerId{4}};
  for (const anu::policy::PolicyInfo& info :
       anu::policy::registered_policies()) {
    SCOPED_TRACE(info.name);
    const auto twin = info.make(params_for(work));
    const auto inner = info.make(params_for(work));
    SpanLog log;
    TracingPolicy traced(*inner, &log);
    EXPECT_EQ(traced.name(), twin->name());

    twin->initialize(work.file_sets, initial);
    traced.initialize(work.file_sets, initial);
    expect_same_owners(traced, *twin, work);

    for (int round = 1; round <= 3; ++round) {
      const auto reports = reports_for(twin->servers(), round);
      expect_same_moves(traced.rebalance(60.0 * round, reports),
                        twin->rebalance(60.0 * round, reports));
      expect_same_owners(traced, *twin, work);
    }
    expect_same_moves(traced.on_server_failed(anu::ServerId{2}),
                      twin->on_server_failed(anu::ServerId{2}));
    expect_same_owners(traced, *twin, work);
    expect_same_moves(traced.on_server_added(anu::ServerId{5}),
                      twin->on_server_added(anu::ServerId{5}));
    expect_same_owners(traced, *twin, work);

    const PolicyCounters& c = traced.counters();
    EXPECT_EQ(c.rebalance_calls, 3u);
    EXPECT_EQ(c.membership_calls, 2u);
    EXPECT_GT(c.owner_calls, 0u);
    EXPECT_EQ(log.count("policy.rebalance"), 3u);
    EXPECT_EQ(log.count("policy.membership"), 2u);
  }
}

// A whole simulated run through the decorator is bit-identical to the
// scenario driver's own run, for every policy in the registry.
TEST(TracingPolicy, SimulatedRunMatchesTheDriverForEveryPolicy) {
  for (const std::string& name : anu::policy::registered_policy_names()) {
    SCOPED_TRACE(name);
    anu::driver::ScenarioConfig c = anu::driver::parse_scenario_text(
        "workload synthetic\npolicy " + name +
        "\nservers 1,3,5,7,9\nperiod 60\nduration 1200\nrequests 6000\n"
        "file_sets 80\nseed 5\nmovement on\nfail 300 4\nrecover 600 4\n"
        "add 900 5 4.0\n");
    const anu::cluster::RunResult plain = anu::driver::run_scenario_quiet(c);
    SpanLog log;
    const AssembledRun traced = run_assembled(c, &log, true);
    EXPECT_EQ(digest(traced.result), digest(plain));
    EXPECT_TRUE(ledger_holds(traced.result));
    EXPECT_GT(traced.counters.owner_calls, 0u);
    EXPECT_EQ(log.count("sim.run"), 1u);
  }
}

TEST(Metrics, NamesAndUnitsAreWellFormedAndUnique) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  std::size_t end_to_end = 0;
  for (const MetricInfo& m : metric_catalog()) {
    EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.name << " " << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    if (!m.traced) ++end_to_end;
  }
  EXPECT_TRUE(seen.contains("setup_s"));
  EXPECT_GE(end_to_end, 1u);
}

TEST(Checks, BrokenLedgerFailsEveryRequest) {
  anu::cluster::RunResult r;
  r.total_requests = 100;
  r.completed = 99;  // one request unaccounted for
  BenchResult res;
  check_sim_run(r, nullptr, res);
  EXPECT_FALSE(res.correct);
  EXPECT_EQ(res.attempted, 100u);
  EXPECT_EQ(res.failed, 100u);
  EXPECT_NE(res.to_json(false).find("\"correct\": false"), std::string::npos);
}

TEST(Checks, DigestMismatchFailsEveryRequest) {
  anu::cluster::RunResult r;
  r.total_requests = 10;
  r.completed = 8;
  r.lost = 2;
  BenchResult ok;
  const std::uint64_t d = digest(r);
  check_sim_run(r, &d, ok);
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.failed, 0u);  // crash losses are modelled, not failures

  BenchResult bad;
  const std::uint64_t other = d + 1;
  check_sim_run(r, &other, bad);
  EXPECT_FALSE(bad.correct);
  EXPECT_EQ(bad.failed, 10u);
}

TEST(Checks, ServeMismatchFails) {
  anu::serve::EquivalenceReport eq;
  eq.samples_checked = 50;
  BenchResult ok;
  check_serve_window(eq, ok);
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.failed, 0u);

  eq.mismatches = 2;
  eq.unmatched_generation = 1;
  BenchResult bad;
  check_serve_window(eq, bad);
  EXPECT_FALSE(bad.correct);
  EXPECT_EQ(bad.attempted, 50u);
  EXPECT_EQ(bad.failed, 3u);
}

TEST(Scenarios, SameSeedSameInputs) {
  const auto a = make_sim_scenarios(3);
  const auto b = make_sim_scenarios(3);
  const auto c = make_sim_scenarios(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_NE(a[i].seed, c[i].seed);
  }
  EXPECT_EQ(make_serve_config(3, 1, 1.0).seed,
            make_serve_config(3, 1, 1.0).seed);
  EXPECT_NE(make_serve_config(3, 1, 1.0).seed,
            make_serve_config(3, 2, 1.0).seed);
}

}  // namespace
}  // namespace perfbench
