// Table L: control-plane cost vs cluster size (§8 scalability claim).
//
// The paper's delegate recomputes tuning from n per-server reports each
// round, so control-plane cost grows with n. This table times the two
// control-plane paths at 1k/2k/4k servers:
//
//   retune_fresh_ns  — one retune round with every measurement moved
//                      (measured latencies never repeat bitwise between
//                      rounds, so this is every round);
//   churn_us         — one fail+add membership event, including the
//                      half-occupancy repair and partition reshuffle;
//   touched/evt      — servers whose share moved per membership event.
//                      Membership redistributes conserved measure across
//                      ALL alive servers (half-occupancy), so this is n
//                      by design; the column exists so a future policy
//                      change that localizes repair shows up here.
//
// Cells run serially — these are wall-clock timings and must not share
// cores. The whole table is a few seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/anu_system.h"
#include "core/tuner.h"
#include "metrics/emit.h"
#include "sim/random.h"

namespace {

using namespace anufs;
using Clock = std::chrono::steady_clock;

std::vector<core::ServerReport> make_reports(std::uint32_t n,
                                             sim::Xoshiro256& rng) {
  std::vector<core::ServerReport> reports;
  reports.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    reports.push_back(core::ServerReport{
        ServerId{i}, 0.01 + 0.05 * rng.next_double(), 100 + i});
  }
  return reports;
}

// Median-of-reps wall time per call, in nanoseconds. Each rep times
// `inner` calls back-to-back; the median rep discards scheduler noise.
template <typename F>
double time_ns(int reps, int inner, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const auto stop = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count() /
        inner);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  using namespace anufs;
  metrics::TableEmitter table(
      std::cout, {"servers", "partitions", "retune_fresh_ns", "churn_us",
                  "touched_per_event"});
  table.header(
      "Table L: control-plane cost at growing cluster sizes. retune_fresh "
      "is one retune round with every measurement moved; churn is one "
      "fail+add pair. touched_per_event counts servers whose share a "
      "membership event moved (n by design: half-occupancy conservation "
      "spreads the failed share over every survivor).");

  std::uint64_t checksum = 0;  // defeats whole-call elision
  for (const std::uint32_t n : {64u, 512u, 1024u, 2048u, 4096u}) {
    std::vector<ServerId> servers;
    for (std::uint32_t i = 0; i < n; ++i) servers.push_back(ServerId{i});
    core::AnuSystem system{core::AnuConfig{}, servers};
    sim::Xoshiro256 rng{sim::make_stream(42, "tabl", n)};

    const std::vector<core::ServerReport> fixed = make_reports(n, rng);
    const std::vector<core::ServerReport> moved = make_reports(n, rng);

    core::LatencyTuner tuner{core::TunerConfig{}};
    bool flip = false;
    const double fresh_ns = time_ns(9, 16, [&] {
      checksum += tuner.retune(flip ? moved : fixed, system.regions()).acted;
      flip = !flip;
    });

    const double churn_ns = time_ns(5, 4, [&] {
      system.fail_server(ServerId{0});
      system.add_server(ServerId{0});
    });

    const core::ControlPlaneStats& cp = system.control_plane_stats();
    const double touched_per_event =
        cp.membership_events == 0
            ? 0.0
            : static_cast<double>(cp.touched_total) /
                  static_cast<double>(cp.membership_events);

    table.row({std::to_string(n),
               std::to_string(system.regions().space().count()),
               metrics::TableEmitter::num(fresh_ns, 0),
               metrics::TableEmitter::num(churn_ns / 1e3, 1),
               metrics::TableEmitter::num(touched_per_event, 1)});
  }
  return checksum == ~std::uint64_t{0} ? 1 : 0;
}
