// The benchmark's workloads, generated from the master seed.
//
// The program receives only what these functions build: scenario
// configs for the simulator and a ServeConfig for the lookup service.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "driver/scenario.h"
#include "serve/lookup_service.h"

namespace perfbench {

enum class Workload { kSimPaper, kServeChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] bool is_sim(Workload w);

/// The simulated runs sim_paper cycles through, one per derived
/// sub-seed: the paper's {1,3,5,7,9} cluster, synthetic workload (500
/// sets, ~100k requests, 10,000 s), ANU, period 120, and the
/// fail/recover/add churn script of scripts/bench.sh.
[[nodiscard]] std::vector<anufs::driver::ScenarioConfig> make_sim_scenarios(
    std::uint64_t seed);

/// The lookup service of serve_churn: 64 servers, 65536 file sets, two
/// closed-loop readers (256-lookup batches) and one writer applying 200
/// control-plane ops/s, serving for `window_seconds`. `window` selects
/// the derived sub-seed, so every window of a run draws fresh inputs.
[[nodiscard]] anufs::serve::ServeConfig make_serve_config(
    std::uint64_t seed, std::uint32_t window, double window_seconds);

/// The serve working set: the fingerprints LookupService draws for
/// `config` (its "serve/filesets" stream), re-derived for the benchmark's
/// own miss-path and cache timings.
[[nodiscard]] std::vector<std::uint64_t> serve_fingerprints(
    const anufs::serve::ServeConfig& config);

}  // namespace perfbench
