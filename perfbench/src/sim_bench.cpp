#include <cstdio>
#include <optional>
#include <utility>

#include "affinity.h"
#include "bench.h"
#include "fault/fault_injector.h"
#include "metrics/summary.h"
#include "policies/anu_policy.h"
#include "policies/registry.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace anu = anufs;

namespace {

// The three builders below mirror driver/scenario.cpp (make_anu_config,
// build_workload, build_policy), which keeps them private. The self-test
// SimulatedRunMatchesTheDriverForEveryPolicy holds the two in step: a
// run assembled here must reproduce the scenario driver's result digest.

/// The scenario driver's ANU knobs.
anu::core::AnuConfig anu_config(const anu::driver::ScenarioConfig& c) {
  anu::core::AnuConfig config;
  if (c.auto_threshold) config.tuner.auto_threshold = true;
  if (c.threshold >= 0) config.tuner.threshold = c.threshold;
  if (c.max_scale > 0) config.tuner.max_scale = c.max_scale;
  if (c.median_average) config.tuner.average = anu::core::AverageKind::kMedian;
  if (c.pairwise || c.policy == "anu-pairwise") {
    config.mode = anu::core::TunerMode::kDecentralizedPairwise;
  }
  return config;
}

anu::workload::Workload make_workload(const anu::driver::ScenarioConfig& c) {
  ANUFS_EXPECTS(c.workload == "synthetic");
  anu::workload::SyntheticConfig wc;
  if (c.duration > 0) wc.duration = c.duration;
  if (c.requests > 0) wc.total_requests = c.requests;
  if (c.file_sets > 0) wc.file_sets = c.file_sets;
  if (c.seed > 0) wc.seed = c.seed;
  return anu::workload::make_synthetic(wc);
}

std::uint64_t workload_bytes(const anu::workload::Workload& w) {
  std::uint64_t bytes = w.requests.capacity() * sizeof(w.requests[0]) +
                        w.file_sets.capacity() * sizeof(w.file_sets[0]);
  for (const auto& fs : w.file_sets) {
    // Names longer than the small-string buffer live on the heap.
    if (fs.name.capacity() > std::string().capacity()) {
      bytes += fs.name.capacity() + 1;
    }
  }
  return bytes;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double mean(double sum, std::size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

std::unique_ptr<anu::policy::PlacementPolicy> make_policy(
    const anu::driver::ScenarioConfig& c, const anu::workload::Workload& work) {
  anu::policy::PolicyParams params;
  params.seed = c.seed > 0 ? c.seed : 1;
  params.anu = anu_config(c);
  params.reconfig_period = c.cluster.reconfig_period;
  params.workload = &work;
  params.pow_d = c.pow_d;
  for (std::uint32_t i = 0; i < c.cluster.server_speeds.size(); ++i) {
    params.capacities[anu::ServerId{i}] = c.cluster.server_speeds[i];
  }
  for (const anu::driver::MembershipEvent& e : c.events) {
    if (e.kind == anu::driver::MembershipEvent::Kind::kAdd) {
      params.capacities[anu::ServerId{e.server}] = e.speed;
    }
  }
  for (const anu::fault::AddEvent& e : c.faults.additions) {
    params.capacities[anu::ServerId{e.server}] = e.speed;
  }
  return anu::policy::make_registered_policy(c.policy, params);
}

AssembledRun run_assembled(const anu::driver::ScenarioConfig& c, SpanLog* log,
                           bool wrap) {
  AssembledRun out;
  const ScopedSpan root(log, "sim.run");
  std::optional<anu::workload::Workload> work;
  std::unique_ptr<anu::policy::PlacementPolicy> pol;
  std::optional<TracingPolicy> tracer;
  std::optional<anu::cluster::ClusterSim> sim;
  {
    const ScopedSpan setup(log, "setup");
    {
      const ScopedSpan span(log, "workload.build");
      work.emplace(make_workload(c));
    }
    {
      const ScopedSpan span(log, "policy.make");
      pol = make_policy(c, *work);
    }
    tracer.emplace(*pol, log);
    anu::policy::PlacementPolicy& used =
        wrap ? static_cast<anu::policy::PlacementPolicy&>(*tracer) : *pol;
    const ScopedSpan span(log, "cluster.build");
    sim.emplace(c.cluster, *work, used);
    for (const anu::driver::MembershipEvent& e : c.events) {
      switch (e.kind) {
        case anu::driver::MembershipEvent::Kind::kFail:
          sim->schedule_failure(e.time, anu::ServerId{e.server});
          break;
        case anu::driver::MembershipEvent::Kind::kRecover:
          sim->schedule_recovery(e.time, anu::ServerId{e.server});
          break;
        case anu::driver::MembershipEvent::Kind::kAdd:
          sim->schedule_addition(e.time, anu::ServerId{e.server}, e.speed);
          break;
      }
    }
    if (!c.faults.empty()) {
      anu::fault::install_fault_plan(
          *sim, static_cast<std::uint32_t>(c.cluster.server_speeds.size()),
          c.faults);
    }
  }

  {
    const ScopedSpan span(log, "cluster.run");
    out.result = sim->run();
  }
  if (const auto* anu_policy = dynamic_cast<const anu::policy::AnuPolicy*>(
          pol.get())) {
    anu_policy->system().check_invariants();
    out.control = anu_policy->system().control_plane_stats();
    out.cache = anu_policy->system().cache_stats();
  }
  out.counters = tracer->counters();
  out.workload_requests = work->requests.size();
  out.workload_bytes = workload_bytes(*work);
  return out;
}

BenchResult run_sim_timed(const RunOptions& opt) {
  BenchResult res;
  const auto scenarios = make_sim_scenarios(opt.seed);

  // Timed passes through the scenario driver's entry point, whole passes,
  // until the run's time is used. Pass p runs scenario k on CPU
  // (p + k) mod n, so every scenario visits every CPU.
  std::vector<double> setup_s, per_s;
  std::vector<std::uint64_t> digests(scenarios.size());
  const std::vector<int> cpus = allowed_cpus();
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i % scenarios.size() != 0 ||
                          seconds_since(start) < opt.seconds;
       ++i) {
    const std::size_t k = i % scenarios.size();
    std::vector<int> cpu;
    if (!cpus.empty()) {
      cpu.push_back(cpus[(i / scenarios.size() + k) % cpus.size()]);
    }
    const CpuPin pin(cpu);
    anu::driver::RunProfile profile;
    anu::cluster::RunResult r =
        anu::driver::run_scenario_profiled(scenarios[k], profile);
    if (opt.corrupt && i == 0) ++r.completed;
    // Every pass must reproduce the first pass's outputs.
    const bool first_pass = i < scenarios.size();
    if (first_pass) digests[k] = digest(r);
    check_sim_run(r, first_pass ? nullptr : &digests[k], res);
    setup_s.push_back(profile.setup.wall);
    per_s.push_back(static_cast<double>(r.completed) / profile.run.wall);
  }
  const double timed_s = seconds_since(start);
  const double peak_mb = peak_rss_mb();

  // Verification pass, after the timed runs so it cannot raise their
  // memory peak: the benchmark's own assembly of each scenario, so the
  // final ANU map can be checked, recording every request's modelled
  // latency. Its outputs must equal the scenario driver's.
  std::vector<double> latency_ns;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    anu::driver::ScenarioConfig c = scenarios[k];
    c.cluster.record_latency_samples = true;
    const AssembledRun run = run_assembled(c, nullptr, false);
    check_sim_run(run.result, &digests[k], res);
    for (const auto& [server, samples] : run.result.latency_samples) {
      for (const double s : samples) latency_ns.push_back(s * 1e9);
    }
  }

  res.set("setup_s", best_of(setup_s, false));
  res.set("throughput_per_s", best_of(per_s, true));
  // The tail is the 95th percentile: the 99th of a paper-sized cluster is
  // set by a handful of overload episodes per run and moves by 2x from
  // one seed to the next.
  const anu::metrics::Summary latency =
      anu::metrics::summarize(std::move(latency_ns));
  res.set("latency_p50_ns", latency.median);
  res.set("latency_tail_ns", latency.p95);
  res.set("peak_rss_mb", peak_mb);
  std::printf("%s: %zu timed simulated runs over %zu scenarios in %.2f s\n",
              workload_name(opt.workload), setup_s.size(), scenarios.size(),
              timed_s);
  print_spread("setup_s", setup_s);
  print_spread("throughput_per_s", per_s);
  std::printf("modelled latency over %zu requests: p50 %.6g ns, p95 %.6g "
              "ns, p99 %.6g ns\n",
              latency.count, latency.median, latency.p95, latency.p99);
  return res;
}

BenchResult run_sim_traced(const RunOptions& opt) {
  BenchResult res;
  const auto scenarios = make_sim_scenarios(opt.seed);
  SpanLog log;

  // Sums over the traced runs; reported per simulated run.
  std::size_t runs = 0;
  double timed_setup = 0, timed_run = 0, overhead = 0;
  double model_latency_ms = 0, model_moves = 0, model_lost = 0;
  double requests = 0, bytes = 0;
  PolicyCounters pc;
  anu::core::ControlPlaneStats control;
  anu::core::PlacementCache::Stats cache;
  anu::sim::Scheduler::Stats sched;

  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i % scenarios.size() != 0 ||
                          seconds_since(start) < opt.seconds;
       ++i) {
    const auto& c = scenarios[i % scenarios.size()];
    // The untraced run of the same seed: the digest the traced run must
    // reproduce and the wall time its overhead is measured against.
    anu::driver::RunProfile profile;
    const std::uint64_t t0 = now_ns();
    const anu::cluster::RunResult plain =
        anu::driver::run_scenario_profiled(c, profile);
    const double plain_wall = seconds_since(t0);
    check_sim_run(plain, nullptr, res);
    const std::uint64_t expected = digest(plain);

    log.set_trace(i);
    const std::uint64_t t1 = now_ns();
    AssembledRun run = run_assembled(c, &log, true);
    overhead += seconds_since(t1) - plain_wall;
    if (opt.corrupt && i == 0) ++run.result.lost;
    check_sim_run(run.result, &expected, res);

    ++runs;
    timed_setup += profile.setup.wall;
    timed_run += profile.run.wall;
    model_latency_ms += run.result.mean_latency * 1e3;
    model_moves += static_cast<double>(run.result.moves);
    model_lost += static_cast<double>(run.result.lost);
    requests += static_cast<double>(run.workload_requests);
    bytes += static_cast<double>(run.workload_bytes);
    pc.owner_calls += run.counters.owner_calls;
    pc.owner_ns += run.counters.owner_ns;
    pc.rebalance_calls += run.counters.rebalance_calls;
    pc.rebalance_moves += run.counters.rebalance_moves;
    pc.membership_calls += run.counters.membership_calls;
    pc.membership_moves += run.counters.membership_moves;
    control.rounds += run.control.rounds;
    control.rounds_acted += run.control.rounds_acted;
    control.touched_total += run.control.touched_total;
    cache.hits += run.cache.hits;
    cache.misses += run.cache.misses;
    const auto& e = run.result.engine;
    sched.fired += e.fired;
    sched.cancelled += e.cancelled;
    sched.peak_pending += e.peak_pending;
    sched.pool_allocated += e.pool_allocated;
  }

  const auto per_run = [&](double total) { return mean(total, runs); };
  const double workload_s = per_run(log.total_seconds("workload.build"));
  const double policy_init_s = per_run(log.total_seconds("policy.make") +
                                       log.total_seconds("policy.initialize"));
  const double cluster_build_s = per_run(log.self_seconds("cluster.build"));
  const double owner_s = per_run(static_cast<double>(pc.owner_ns) * 1e-9);
  const double rebalance_s = per_run(log.total_seconds("policy.rebalance"));
  const double membership_s = per_run(log.total_seconds("policy.membership"));
  const double run_s = per_run(log.total_seconds("cluster.run"));
  const double self_s = run_s - owner_s - rebalance_s - membership_s;
  const double fired = per_run(static_cast<double>(sched.fired));

  res.set("sim.mean_latency_ms", per_run(model_latency_ms));
  res.set("sim.moves", per_run(model_moves));
  res.set("sim.lost", per_run(model_lost));
  res.set("workload.build_s", workload_s);
  res.set("workload.requests", per_run(requests));
  res.set("workload.bytes", per_run(bytes));
  res.set("policy.init_s", policy_init_s);
  res.set("cluster.build_s", cluster_build_s);
  res.set("policy.owner.calls", per_run(static_cast<double>(pc.owner_calls)));
  res.set("policy.owner_s", owner_s);
  res.set("policy.rebalance.calls",
          per_run(static_cast<double>(pc.rebalance_calls)));
  res.set("policy.rebalance_s", rebalance_s);
  res.set("policy.rebalance.moves",
          per_run(static_cast<double>(pc.rebalance_moves)));
  res.set("policy.membership.calls",
          per_run(static_cast<double>(pc.membership_calls)));
  res.set("policy.membership_s", membership_s);
  res.set("policy.membership.moves",
          per_run(static_cast<double>(pc.membership_moves)));
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  res.set("core.cache.hit_rate",
          lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  res.set("core.cache.lookups", per_run(lookups));
  res.set("core.cache.misses", per_run(static_cast<double>(cache.misses)));
  res.set("core.control.rounds", per_run(static_cast<double>(control.rounds)));
  res.set("core.control.rounds_acted",
          per_run(static_cast<double>(control.rounds_acted)));
  res.set("core.control.touched_total",
          per_run(static_cast<double>(control.touched_total)));
  res.set("cluster.run_s", run_s);
  res.set("cluster.self_s", self_s);
  res.set("sched.fired", fired);
  res.set("sched.cancelled", per_run(static_cast<double>(sched.cancelled)));
  res.set("sched.peak_pending",
          per_run(static_cast<double>(sched.peak_pending)));
  res.set("sched.pool_allocated",
          per_run(static_cast<double>(sched.pool_allocated)));
  res.set("sched.ns_per_event", fired > 0 ? self_s * 1e9 / fired : 0.0);
  res.set("trace.overhead_s", per_run(overhead));

  // The breakdown: the traced layers must add back up to the timed
  // (untraced) phases of the same runs. What is left is either a layer
  // the trace misses (positive) or tracing's own cost (negative).
  const double setup_parts = workload_s + policy_init_s + cluster_build_s;
  const double setup_gap = per_run(timed_setup) - setup_parts;
  const double run_gap = per_run(timed_run) - (self_s + owner_s + rebalance_s +
                                               membership_s);
  res.set("breakdown.setup_unexplained_s", setup_gap);
  res.set("breakdown.run_unexplained_s", run_gap);
  const double traced_setup_gap =
      per_run(log.total_seconds("setup")) - setup_parts;
  std::printf("%s: %zu traced runs, %zu spans\n", workload_name(opt.workload),
              runs, log.spans().size());
  std::printf("breakdown setup: timed %.6f s = workload %.6f + policy %.6f + "
              "cluster %.6f + unexplained %.6f (traced setup span leaves "
              "%.6f)\n",
              per_run(timed_setup), workload_s, policy_init_s,
              cluster_build_s, setup_gap, traced_setup_gap);
  std::printf("breakdown run: timed %.6f s = cluster self %.6f + policy "
              "%.6f + unexplained %.6f\n",
              per_run(timed_run), self_s, owner_s + rebalance_s + membership_s,
              run_gap);
  if (!opt.spans_path.empty() && !log.write_jsonl(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  }
  return res;
}

}  // namespace perfbench
