#include "report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "hash/mix64.h"
#include "metrics/summary.h"

namespace perfbench {

const std::vector<MetricInfo>& metric_catalog() {
  static const std::vector<MetricInfo> catalog = {
      // End to end (timed run, tracing off).
      {"setup_s", "s", false, false},
      {"throughput_per_s", "1/s", false, true},
      {"latency_p50_ns", "ns", false, false},
      {"latency_tail_ns", "ns", false, false},
      {"peak_rss_mb", "MB", false, false},
      // Per layer (traced run). Times and counts of sim_paper
      // are per simulated run, averaged over the traced runs.
      {"sim.mean_latency_ms", "ms", true, false},
      {"sim.moves", "count", true, false},
      {"sim.lost", "count", true, false},
      {"workload.build_s", "s", true, false},
      {"workload.requests", "count", true, false},
      {"workload.bytes", "B", true, false},
      {"policy.init_s", "s", true, false},
      {"cluster.build_s", "s", true, false},
      {"policy.owner.calls", "count", true, false},
      {"policy.owner_s", "s", true, false},
      {"policy.rebalance.calls", "count", true, false},
      {"policy.rebalance_s", "s", true, false},
      {"policy.rebalance.moves", "count", true, false},
      {"policy.membership.calls", "count", true, false},
      {"policy.membership_s", "s", true, false},
      {"policy.membership.moves", "count", true, false},
      {"core.cache.hit_rate", "ratio", true, true},
      {"core.cache.lookups", "count", true, false},
      {"core.cache.misses", "count", true, false},
      {"core.control.rounds", "count", true, false},
      {"core.control.rounds_acted", "count", true, false},
      {"core.control.touched_total", "count", true, false},
      {"cluster.run_s", "s", true, false},
      {"cluster.self_s", "s", true, false},
      {"sched.fired", "count", true, false},
      {"sched.cancelled", "count", true, false},
      {"sched.peak_pending", "count", true, false},
      {"sched.pool_allocated", "count", true, false},
      {"sched.ns_per_event", "ns", true, false},
      {"serve.build_s", "s", true, false},
      {"serve.cache.hit_rate", "ratio", true, true},
      {"serve.cache.lookups", "count", true, true},
      {"serve.cache.misses", "count", true, false},
      {"serve.cache.revalidated", "count", true, true},
      {"serve.cache.invalidations", "count", true, false},
      {"serve.ops_applied", "count", true, true},
      {"serve.snapshots.published", "count", true, false},
      {"serve.snapshots.pending", "count", true, false},
      {"core.locate_many.ns_per_elem", "ns", true, false},
      {"core.cache_locate_many.ns_per_elem", "ns", true, false},
      {"serve.epoch.pin_ns", "ns", true, false},
      {"trace.overhead_s", "s", true, false},
      {"breakdown.setup_unexplained_s", "s", true, false},
      {"breakdown.run_unexplained_s", "s", true, false},
  };
  return catalog;
}

void BenchResult::set(const std::string& name, double value) {
  const auto& catalog = metric_catalog();
  ANUFS_EXPECTS(std::any_of(
      catalog.begin(), catalog.end(),
      [&](const MetricInfo& m) { return name == m.name; }));
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

void BenchResult::fail(std::uint64_t failed_ops, const std::string& why) {
  correct = false;
  failed += failed_ops;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string BenchResult::to_json(bool traced) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : metric_catalog()) {
    if (m.traced != traced) continue;
    double value = 0.0;
    for (const auto& [n, v] : values) {
      if (n == m.name) value = v;
    }
    // JSON has no NaN or infinity; a non-finite value is a defect of the
    // benchmark, reported as 0 rather than as unparseable output.
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(m.name) + "\": {\"value\": " + number +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::uint64_t digest(const anufs::cluster::RunResult& r) {
  std::uint64_t d = 0;
  const auto fold = [&d](std::uint64_t v) {
    d = anufs::hash::mix64(d ^ v);
  };
  fold(r.total_requests);
  fold(r.completed);
  fold(r.lost);
  fold(r.moves);
  fold(r.forwarded);
  fold(r.crash_moves);
  fold(r.move_failures);
  fold(r.queued_at_end);
  fold(r.held_at_end);
  fold(r.in_transit_at_end);
  fold(std::bit_cast<std::uint64_t>(r.mean_latency));
  fold(r.engine.fired);
  for (const auto& [server, completed] : r.server_completed) {
    fold(server);
    fold(completed);
  }
  for (const auto& [server, busy] : r.server_busy) {
    fold(server);
    fold(std::bit_cast<std::uint64_t>(busy));
  }
  for (const auto& [label, series] : r.latency_ms.all()) {
    for (const auto& [t, v] : series.points()) {
      fold(std::bit_cast<std::uint64_t>(t));
      fold(std::bit_cast<std::uint64_t>(v));
    }
  }
  return d;
}

bool ledger_holds(const anufs::cluster::RunResult& r) {
  return r.total_requests == r.completed + r.lost + r.queued_at_end +
                                 r.held_at_end + r.in_transit_at_end;
}

void check_sim_run(const anufs::cluster::RunResult& r,
                   const std::uint64_t* expected_digest, BenchResult& out) {
  out.attempted += r.total_requests;
  if (!ledger_holds(r)) {
    out.fail(r.total_requests, "conservation ledger broken");
  } else if (expected_digest != nullptr && digest(r) != *expected_digest) {
    out.fail(r.total_requests, "result digest differs for the same seed");
  }
}

void check_serve_window(const anufs::serve::EquivalenceReport& eq,
                        BenchResult& out) {
  out.attempted += eq.samples_checked;
  if (eq.samples_checked == 0) {
    out.fail(1, "serving window checked no samples");
  } else if (!eq.ok()) {
    out.fail(eq.mismatches + eq.unmatched_generation,
             "serving equivalence: " + std::to_string(eq.mismatches) +
                 " mismatches, " + std::to_string(eq.unmatched_generation) +
                 " unmatched generations");
  }
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // would report the launching process's footprint when that is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

double best_of(const std::vector<double>& values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

void print_spread(const char* name, const std::vector<double>& values) {
  using anufs::metrics::percentile;
  std::printf("  %s: p10 %.6g, p50 %.6g, p90 %.6g over %zu samples\n", name,
              percentile(values, 0.1), percentile(values, 0.5),
              percentile(values, 0.9), values.size());
}

}  // namespace perfbench
