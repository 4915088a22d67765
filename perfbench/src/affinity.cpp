#include "affinity.h"

namespace perfbench {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

CpuPin::CpuPin(const std::vector<int>& cpus) {
  if (cpus.empty() || sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pinned_ = sched_setaffinity(0, sizeof set, &set) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

}  // namespace perfbench
