// What one benchmark run reports, and the checks behind `correct`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "serve/lookup_service.h"

namespace perfbench {

/// A metric the benchmark can report. `traced` metrics come from the
/// traced run (--trace 1), the others from the timed run (--trace 0).
struct MetricInfo {
  const char* name;
  const char* unit;
  bool traced;
  bool higher_is_better;
};

/// Every metric, in output order. BENCHMARK.json lists the same names.
[[nodiscard]] const std::vector<MetricInfo>& metric_catalog();

struct BenchResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;

  /// Records `name`, which must be in the catalog.
  void set(const std::string& name, double value);

  /// Marks a violated check: `failed_ops` operations count as failed and
  /// the run as incorrect. `why` is printed to stderr.
  void fail(std::uint64_t failed_ops, const std::string& why);

  /// The result line: correct, attempted, failed and the catalog metrics
  /// of one half (traced or not) with their units. A catalog metric the
  /// run did not set reads 0: its layer did no work in this workload.
  [[nodiscard]] std::string to_json(bool traced) const;
};

/// Order-stable digest of a simulated run's outputs.
[[nodiscard]] std::uint64_t digest(const anufs::cluster::RunResult& r);

/// The conservation ledger: every request the workload issued was
/// completed, lost, queued, held behind a move, or mid-forward.
[[nodiscard]] bool ledger_holds(const anufs::cluster::RunResult& r);

/// Checks one simulated run into `out`: its requests count as attempted.
/// When the ledger breaks or the digest differs from `expected_digest`
/// (when given), the run is incorrect and all of its requests fail. A
/// request the model drops with a crashed server's queue is a correct
/// outcome of the simulation (RunResult::lost, reported as sim.lost), not
/// a failed operation of the program.
void check_sim_run(const anufs::cluster::RunResult& r,
                   const std::uint64_t* expected_digest, BenchResult& out);

/// Checks one serving window's replay into `out`: each checked sample is
/// an operation; a mismatch or an unmatched generation fails it.
void check_serve_window(const anufs::serve::EquivalenceReport& eq,
                        BenchResult& out);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The timing estimator of the end-to-end metrics: a run's best sample,
/// the highest rate or the lowest time. Co-tenants slow this class of
/// host by up to ~1.8x for seconds at a time and never speed it up, so
/// the best sample reads the program and the rest read the host.
[[nodiscard]] double best_of(const std::vector<double>& values,
                             bool higher_is_better);

/// Prints a sample's 10th/50th/90th percentiles and count.
void print_spread(const char* name, const std::vector<double>& values);

}  // namespace perfbench
