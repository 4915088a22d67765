// Microbenchmarks (google-benchmark) for the mechanism costs the paper
// argues are negligible: hashing, probe-based lookup ("a hash probe does
// no I/O ... successive hash probes incur negligible costs"), the
// delegate's retune step, and region reshaping / re-partitioning.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "core/anu_system.h"
#include "core/placement_cache.h"
#include "core/tuner.h"
#include "hash/hash_family.h"
#include "obs/trace.h"
#include "policies/anu_policy.h"
#include "policies/join_idle_queue.h"
#include "policies/pow_d.h"
#include "serve/lookup_service.h"
#include "serve/snapshot.h"
#include "sim/distributions.h"
#include "sim/exponential.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "workload/dfstrace_like.h"
#include "workload/spec.h"
#include "workload/synthetic.h"

namespace {

using namespace anufs;

void BM_HashProbe(benchmark::State& state) {
  const hash::HashFamily family;
  std::uint64_t fp = 0x12345678ULL;
  std::uint32_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.probe(fp++, round++ & 15u));
  }
}
BENCHMARK(BM_HashProbe);

void BM_Locate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{123};
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.locate(rng()));
  }
}
BENCHMARK(BM_Locate)->Arg(5)->Arg(64)->Arg(512);

// A simulated run touches the same file sets over and over: the paper's
// workloads have hundreds of file sets, not millions (the synthetic
// workload defaults to 500). Model that with a fixed working set cycled
// in order — the steady state of route().
constexpr std::size_t kWorkingSet = 512;

std::vector<std::uint64_t> working_set_fps() {
  sim::Xoshiro256 rng{123};
  std::vector<std::uint64_t> fps(kWorkingSet);
  for (auto& fp : fps) fp = rng();
  return fps;
}

void BM_LocateUncached(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.locate_uncached(fps[i]));
    i = (i + 1) & (kWorkingSet - 1);
  }
}
BENCHMARK(BM_LocateUncached)->Arg(5)->Arg(64)->Arg(512);

void BM_LocateCached(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.locate(fps[i]));
    i = (i + 1) & (kWorkingSet - 1);
  }
  const core::PlacementCache::Stats stats = system.cache_stats();
  state.counters["hit_rate"] = stats.hit_rate();
}
BENCHMARK(BM_LocateCached)->Arg(5)->Arg(64)->Arg(512);

// Batched addressing (PlacementMap::locate_many, uncached): one SoA
// sweep resolves the whole batch — round-major multi-lane mixing plus
// contiguous owner-table probes — so the per-element cost (items/s)
// is the number to compare against BM_LocateUncached's serial
// probe-chain chasing. Arg is the batch size; the cluster is fixed at
// 64 servers to match the scalar baseline's middle arg.
void BM_LocateBatch(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 64; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::vector<std::uint64_t> in(batch);
  for (std::uint32_t k = 0; k < batch; ++k) in[k] = fps[k & (kWorkingSet - 1)];
  std::vector<core::LocateResult> out(batch);
  for (auto _ : state) {
    system.locate_many_uncached(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_LocateBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(1024);

// Batched cached addressing (PlacementCache::locate_many): steady state
// is one classification pass of pure hits, so this bounds the batch
// overhead over BM_LocateCached's per-lookup memo path.
void BM_LocateBatchCached(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 64; ++i) servers.push_back(ServerId{i});
  const core::AnuSystem system{core::AnuConfig{}, servers};
  const std::vector<std::uint64_t> fps = working_set_fps();
  std::vector<std::uint64_t> in(batch);
  for (std::uint32_t k = 0; k < batch; ++k) in[k] = fps[k & (kWorkingSet - 1)];
  std::vector<core::LocateResult> out(batch);
  for (auto _ : state) {
    system.locate_many(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
  state.counters["hit_rate"] = system.cache_stats().hit_rate();
}
BENCHMARK(BM_LocateBatchCached)->Arg(1)->Arg(8)->Arg(64)->Arg(1024);

// The serving hot path (src/serve): one reader-loop iteration of
// serve::LookupService, exactly what run_batch does per batch — pin a
// published snapshot, draw the batch from the working set, compute it
// with one snap->map.locate_many sweep, fold every answer independently
// into the digest, release the pin. The items/s rate is the
// single-thread ceiling of `anufs_serve`; the multi-thread number is
// measured live by the tool and the serve-smoke gate. The pin amortizes
// across the batch, so per-item cost should approach the BM_LocateBatch
// floor as the batch grows.
void BM_ServeLocateBatch(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < 16; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  serve::SnapshotStore store(/*max_readers=*/1);
  store.publish(system.placement());
  const std::vector<std::uint64_t> fps = working_set_fps();
  sim::Xoshiro256 rng{9};
  std::vector<std::uint64_t> in(batch);
  std::vector<core::LocateResult> out(batch);
  std::uint64_t digest = 0;
  for (auto _ : state) {
    const serve::Snapshot* snap = store.acquire(0);
    for (std::uint32_t k = 0; k < batch; ++k) {
      in[k] = fps[rng.next_below(fps.size())];
    }
    snap->map.locate_many(in, out);
    std::uint64_t folded = 0;
    for (std::uint32_t k = 0; k < batch; ++k) {
      folded += serve::fold_result(0, in[k], out[k]);
    }
    digest += folded;
    store.release(0);
  }
  benchmark::DoNotOptimize(digest);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_ServeLocateBatch)->Arg(1)->Arg(64)->Arg(256);

void BM_SchedulerThroughput(benchmark::State& state) {
  sim::Scheduler sched;
  sched.reserve(256);
  // Self-rescheduling tickers: every fired event schedules exactly one
  // more, so the pool reaches steady state immediately and every
  // schedule after warmup is served from the free list.
  struct Ticker {
    sim::Scheduler& sched;
    void arm(double at) {
      sched.schedule_at(at, [this, at] { arm(at + 1.0); });
    }
  };
  Ticker ticker{sched};
  constexpr int kBacklog = 64;
  for (int i = 0; i < kBacklog; ++i) {
    ticker.arm(static_cast<double>(i) / kBacklog);
  }
  for (auto _ : state) {
    sched.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const sim::Scheduler::Stats stats = sched.stats();
  state.counters["pool_allocated"] =
      static_cast<double>(stats.pool_allocated);
  state.counters["pool_recycled"] = static_cast<double>(stats.pool_recycled);
}
BENCHMARK(BM_SchedulerThroughput);

// L4 end to end: one sim_paper-shaped run of the event engine — the
// paper's {1,3,5,7,9} cluster, the synthetic workload (500 sets, ~100k
// requests over 10,000 s), ANU with period 120, server 4 failing at
// 1200 s and recovering at 2400 s, a speed-9 server added at 3600 s.
// The workload is built once, outside the timed region; each iteration
// builds the policy and the simulator and runs to the horizon. Items
// are completed requests. BM_SchedulerThroughput times the bare
// calendar only.
void BM_ClusterRun(benchmark::State& state) {
  workload::SyntheticConfig wc;
  wc.seed = 11;
  const workload::Workload work = workload::make_synthetic(wc);
  cluster::ClusterConfig cc;
  cc.server_speeds = {1, 3, 5, 7, 9};
  cc.reconfig_period = 120.0;
  cc.seed = 11;
  std::int64_t completed = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    policy::AnuPolicy policy{core::AnuConfig{}};
    cluster::ClusterSim sim(cc, work, policy);
    sim.schedule_failure(1200.0, ServerId{4});
    sim.schedule_recovery(2400.0, ServerId{4});
    sim.schedule_addition(3600.0, ServerId{5}, 9.0);
    const cluster::RunResult result = sim.run();
    completed += static_cast<std::int64_t>(result.completed);
    events = result.engine.fired;
  }
  state.SetItemsProcessed(completed);
  state.counters["events_per_run"] = static_cast<double>(events);
}
BENCHMARK(BM_ClusterRun)->Unit(benchmark::kMillisecond);

// Steady-state retune: the same report set against an unmoved map,
// round after round — the common case of a converged cluster. With
// nothing changed, cost is the memo check (one O(n) bitwise report
// compare at memory-bandwidth constants) plus returning the stored
// decision — no history update, no renormalization, no map walk.
void BM_Retune(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{5};
  std::vector<core::ServerReport> reports;
  for (std::uint32_t i = 0; i < n; ++i) {
    reports.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
  }
  core::LatencyTuner tuner{core::TunerConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.retune(reports, system.regions()));
  }
}
BENCHMARK(BM_Retune)->Arg(5)->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)
    ->Arg(4096);

// Worst-case retune: EVERY server's measurement moved since the last
// round (two report sets alternated so the unchanged-round memo can
// never serve), forcing the full recompute. This bounds the slow lane:
// O(n) with dense per-server lookups.
void BM_RetuneChanged(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{5};
  std::vector<core::ServerReport> even;
  std::vector<core::ServerReport> odd;
  for (std::uint32_t i = 0; i < n; ++i) {
    even.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
    odd.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
  }
  core::LatencyTuner tuner{core::TunerConfig{}};
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tuner.retune(flip ? odd : even, system.regions()));
    flip = !flip;
  }
}
BENCHMARK(BM_RetuneChanged)->Arg(64)->Arg(512)->Arg(4096);

void BM_Rebalance(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  sim::Xoshiro256 rng{6};
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<core::ServerReport> reports;
    for (std::uint32_t i = 0; i < n; ++i) {
      reports.push_back(core::ServerReport{
          ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + round});
    }
    benchmark::DoNotOptimize(system.reconfigure(reports));
    ++round;
  }
}
BENCHMARK(BM_Rebalance)->Arg(5)->Arg(64);

void BM_MembershipChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  core::AnuSystem system{core::AnuConfig{}, servers};
  for (auto _ : state) {
    system.fail_server(ServerId{0});
    system.add_server(ServerId{0});
  }
}
BENCHMARK(BM_MembershipChurn)->Arg(5)->Arg(64);

// -------- policy-zoo decision paths (src/policies) --------

/// The pow-d decision kernel alone: sample d of n and argmin the
/// latency-weighted score. Arg = server count; d = 2.
void BM_PowDChoose(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<ServerId> servers;
  std::vector<core::ServerReport> reports;
  for (std::uint32_t i = 0; i < n; ++i) {
    servers.push_back(ServerId{i});
    // Skewed latencies so the argmin is doing real work.
    reports.push_back({ServerId{i}, 0.001 * (1.0 + i % 7), 100});
  }
  policy::DChoiceTable table;
  table.reset(servers);
  table.observe(reports, 0.5);
  sim::Xoshiro256 rng = sim::make_stream(1, "bench-pow-d", 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.choose(rng, 2));
  }
}
BENCHMARK(BM_PowDChoose)->Arg(5)->Arg(64)->Arg(512);

/// One control-plane round of `policy`: range(0) servers, range(1) file
/// sets, and a report round whose latency skew flips each call so every
/// rebalance finds overloaded servers to shed. The round covers the
/// policy's decision and the publish of its new owner table; the
/// moves_per_round counter shows how much each round moved.
void bench_policy_round(benchmark::State& state,
                        policy::PlacementPolicy& policy) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto set_count = static_cast<std::uint32_t>(state.range(1));
  std::vector<workload::FileSetSpec> sets;
  for (std::uint32_t i = 0; i < set_count; ++i) {
    sets.push_back(
        workload::FileSetSpec::make(i, "fs" + std::to_string(i), 1.0));
  }
  std::vector<ServerId> servers;
  for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
  policy.initialize(sets, servers);
  double now = 0.0;
  std::uint64_t round = 0;
  std::uint64_t moves = 0;
  for (auto _ : state) {
    std::vector<core::ServerReport> reports;
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool hot = i % 2 == round % 2;
      reports.push_back({ServerId{i}, hot ? 0.030 : 0.002, 100});
    }
    now += 120.0;
    ++round;
    const std::vector<policy::Move> moved = policy.rebalance(now, reports);
    benchmark::DoNotOptimize(moved.data());
    moves += moved.size();
  }
  state.counters["moves_per_round"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kAvgIterations);
}

void BM_AnuPolicyRound(benchmark::State& state) {
  policy::AnuPolicy policy{core::AnuConfig{}};
  bench_policy_round(state, policy);
}
BENCHMARK(BM_AnuPolicyRound)->Args({5, 500})->Args({64, 16384});

void BM_PowDRebalance(benchmark::State& state) {
  policy::PowerOfDChoicesPolicy policy{policy::PowDConfig{}};
  bench_policy_round(state, policy);
}
BENCHMARK(BM_PowDRebalance)->Args({5, 40})->Args({64, 512});

void BM_JiqRebalance(benchmark::State& state) {
  policy::JoinIdleQueuePolicy policy{policy::JiqConfig{}};
  bench_policy_round(state, policy);
}
BENCHMARK(BM_JiqRebalance)->Args({5, 40})->Args({64, 512});

// -------- exponential draw (src/sim/exponential) --------

/// One exponential at a time through the scalar log1p port: what the
/// shared-stream samplers (op_workload, the SAN transfer draw) pay.
void BM_SampleExponential(benchmark::State& state) {
  sim::Xoshiro256 rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sample_exponential(rng, 2.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleExponential);

/// Block fill of unit exponentials (the workload generators' path):
/// serial uniform draws, then the eight-lane log1p body where the CPU
/// has AVX-512. Items are draws, so the rate reads as ns per draw.
void BM_FillUnitExponential(benchmark::State& state) {
  sim::Xoshiro256 rng{1};
  std::vector<double> block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::fill_unit_exponential(rng, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FillUnitExponential)->Arg(8)->Arg(256)->Arg(4096);

// -------- workload construction (src/workload) --------

/// The setup cost every simulated run pays before its first event:
/// drawing the request timeline and putting it in time order. Arg 0 is
/// the paper's synthetic workload (500 sets, ~100k requests), arg 1 the
/// DFSTrace-like hour (21 sets, ~113k requests). Each iteration draws a
/// fresh seed.
void BM_WorkloadBuild(benchmark::State& state) {
  const bool dfstrace = state.range(0) == 1;
  std::uint64_t seed = 1;
  std::int64_t requests = 0;
  for (auto _ : state) {
    workload::Workload w;
    if (dfstrace) {
      workload::DfsTraceLikeConfig config;
      config.seed = seed++;
      w = workload::make_dfstrace_like(config);
    } else {
      workload::SyntheticConfig config;
      config.seed = seed++;
      w = workload::make_synthetic(config);
    }
    benchmark::DoNotOptimize(w.requests.data());
    requests += static_cast<std::int64_t>(w.request_count());
  }
  state.SetItemsProcessed(requests);
  state.SetLabel(dfstrace ? "dfstrace_like" : "synthetic");
}
BENCHMARK(BM_WorkloadBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The observability layer's overhead contract (src/obs/trace.h): with
// no sink installed a trace site is one thread-local load and a null
// check; with a sink it is one POD append into a pre-sized ring. Both
// must stay flat — a regression here taxes every decision point in
// every run.
void BM_TraceDisabled(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    ANUFS_TRACE(obs::Category::kMove, "bench", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceDisabled);

void BM_TraceEnabled(benchmark::State& state) {
  obs::TraceSink sink;
  obs::ScopedTraceSink install(sink);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ANUFS_TRACE(obs::Category::kMove, "bench", {"i", i});
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceEnabled);

}  // namespace

BENCHMARK_MAIN();
