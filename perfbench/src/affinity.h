// Spreads the timed work over the CPUs the process may use.
//
// On a shared host each virtual CPU has its own slow phases (co-tenants
// contending for its core's memory system, for seconds at a time), and
// they are largely independent of one another. Rotating the timed
// iterations over the CPUs keeps one slow CPU from colouring a whole
// run; the best-sample estimator (report.h) then reads the program's
// speed from the samples that ran undisturbed.
#pragma once

#include <sched.h>

#include <vector>

namespace perfbench {

/// The CPUs the calling thread may run on, in id order.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restricts the calling thread, and the threads it creates while the
/// guard lives, to `cpus`; restores the previous set on destruction. An
/// empty list changes nothing.
class CpuPin {
 public:
  explicit CpuPin(const std::vector<int>& cpus);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace perfbench
