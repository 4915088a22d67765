// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <sim_paper|serve_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>] [--corrupt]
//   perfbench --list-metrics
//
// Prints human-readable lines, then as its last line one JSON object
// with `correct`, `attempted`, `failed` and `metrics`. Exits 0 only when
// every correctness check held. perfbench/run.py builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sim_paper|serve_churn> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>] [--corrupt]\n"
               "       perfbench --list-metrics\n");
  std::exit(2);
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : perfbench::metric_catalog()) {
        std::printf("%s %s %s %s\n", m.name, m.unit,
                    m.higher_is_better ? "higher" : "lower",
                    m.traced ? "per_layer" : "end_to_end");
      }
      return 0;
    }
    if (arg == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w.has_value()) usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_number(value, number) || number < 0) usage();
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      if (!parse_number(value, number) || number <= 0) usage();
      opt.seconds = number;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage();
      }
      traced = value[0] == '1';
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      usage();
    }
  }
  if (!have_workload) usage();

  const bool sim = perfbench::is_sim(opt.workload);
  const perfbench::BenchResult res =
      traced ? (sim ? perfbench::run_sim_traced(opt)
                    : perfbench::run_serve_traced(opt))
             : (sim ? perfbench::run_sim_timed(opt)
                    : perfbench::run_serve_timed(opt));
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.correct ? "yes" : "NO");
  std::printf("%s\n", res.to_json(traced).c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
