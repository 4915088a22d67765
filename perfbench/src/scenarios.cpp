#include "scenarios.h"

#include "sim/random.h"

namespace perfbench {

namespace {

// Scenarios per benchmark run: enough simulated runs to average the
// seed-to-seed variation of the modelled results, few enough that one
// pass fits well inside a run.
constexpr std::uint32_t kPaperRuns = 16;

std::uint64_t sub_seed(std::uint64_t seed, std::string_view stream,
                       std::uint64_t index) {
  const std::uint64_t s = anufs::sim::derive_seed(seed, stream, index);
  // The scenario driver reads seed 0 as "keep the workload default".
  return s == 0 ? 1 : s;
}

anufs::driver::ScenarioConfig paper_config(std::uint64_t seed) {
  anufs::driver::ScenarioConfig c;
  c.workload = "synthetic";
  c.policy = "anu";
  c.seed = seed;
  c.cluster.seed = seed;
  c.cluster.server_speeds = {1, 3, 5, 7, 9};
  c.cluster.reconfig_period = 120.0;
  c.cluster.san.enabled = false;
  c.cluster.detector.enabled = false;
  c.cluster.movement.enabled = true;
  using Kind = anufs::driver::MembershipEvent::Kind;
  c.events.push_back({Kind::kFail, 1200.0, 4, 1.0});
  c.events.push_back({Kind::kRecover, 2400.0, 4, 1.0});
  c.events.push_back({Kind::kAdd, 3600.0, 5, 9.0});
  return c;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "sim_paper") return Workload::kSimPaper;
  if (name == "serve_churn") return Workload::kServeChurn;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSimPaper:
      return "sim_paper";
    case Workload::kServeChurn:
      return "serve_churn";
  }
  return "unknown";
}

bool is_sim(Workload w) { return w != Workload::kServeChurn; }

std::vector<anufs::driver::ScenarioConfig> make_sim_scenarios(
    std::uint64_t seed) {
  std::vector<anufs::driver::ScenarioConfig> out;
  for (std::uint32_t i = 0; i < kPaperRuns; ++i) {
    out.push_back(paper_config(sub_seed(seed, "sim_paper", i)));
  }
  return out;
}

anufs::serve::ServeConfig make_serve_config(std::uint64_t seed,
                                            std::uint32_t window,
                                            double window_seconds) {
  anufs::serve::ServeConfig c;
  c.threads = 2;
  c.seconds = window_seconds;
  c.seed = sub_seed(seed, "serve_churn", window);
  c.n_servers = 64;
  c.file_sets = 65536;
  c.writer_ops_per_second = 200.0;
  c.batch_size = 256;
  return c;
}

std::vector<std::uint64_t> serve_fingerprints(
    const anufs::serve::ServeConfig& config) {
  std::vector<std::uint64_t> fps;
  fps.reserve(config.file_sets);
  anufs::sim::Xoshiro256 rng =
      anufs::sim::make_stream(config.seed, "serve/filesets");
  for (std::uint32_t i = 0; i < config.file_sets; ++i) fps.push_back(rng());
  return fps;
}

}  // namespace perfbench
