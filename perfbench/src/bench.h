// The two halves of the benchmark for each kind of workload.
//
// Timed half (--trace 0): the program's public entry points with nothing
// of the benchmark's inside the timed calls —
// driver::run_scenario_profiled for the simulator (its RunProfile gives
// the setup/run split) and serve::LookupService for serving.
//
// Traced half (--trace 1): the same inputs, assembled by the benchmark
// from each layer's public functions with a span around every call, and
// the policy wrapped in TracingPolicy. It reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/cluster_sim.h"
#include "core/anu_system.h"
#include "driver/scenario.h"
#include "report.h"
#include "scenarios.h"
#include "spans.h"
#include "tracing_policy.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kSimPaper;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Self-test hook: corrupt one output before it is checked, so the
  /// run must report itself incorrect.
  bool corrupt = false;
  /// Where the traced half writes its spans (JSON lines); empty = don't.
  std::string spans_path;
};

[[nodiscard]] BenchResult run_sim_timed(const RunOptions& opt);
[[nodiscard]] BenchResult run_sim_traced(const RunOptions& opt);
[[nodiscard]] BenchResult run_serve_timed(const RunOptions& opt);
[[nodiscard]] BenchResult run_serve_traced(const RunOptions& opt);

/// The policy a scenario runs, built through the registry exactly as the
/// scenario driver builds it.
[[nodiscard]] std::unique_ptr<anufs::policy::PlacementPolicy> make_policy(
    const anufs::driver::ScenarioConfig& c,
    const anufs::workload::Workload& work);

/// One simulated run assembled by the benchmark from the layers' public
/// functions, as driver::run_scenario_profiled runs it.
struct AssembledRun {
  anufs::cluster::RunResult result;
  PolicyCounters counters;
  /// Read after the run from AnuPolicy::system() (zero for other
  /// policies).
  anufs::core::ControlPlaneStats control;
  anufs::core::PlacementCache::Stats cache;
  std::uint64_t workload_requests = 0;
  std::uint64_t workload_bytes = 0;
};

/// Runs `c` with spans into `log` (may be null). With `wrap`, the
/// simulator sees the policy through TracingPolicy. Checks the final
/// ANU map's invariants (aborting on a violation, as the program does).
[[nodiscard]] AssembledRun run_assembled(
    const anufs::driver::ScenarioConfig& c, SpanLog* log, bool wrap);

}  // namespace perfbench
