// A small fixed-size thread pool for running independent simulations
// concurrently (the parallel experiment runner).
//
// The simulator core (Scheduler, ClusterSim, the policies) is
// single-threaded by design; parallelism lives ONLY at the granularity
// of whole runs. The isolation rule: each concurrent run owns its own
// Scheduler, RNG streams, workload, policy, and ClusterSim — no state
// is shared between runs, so a parallel sweep is bit-identical to the
// same sweep executed serially.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/attributes.h"
#include "common/thread_safety.h"

namespace anufs::sim {

/// Fixed-size worker pool. Tasks are fire-and-forget closures; use
/// wait_idle() as the join point. Tasks must not throw (the simulator
/// reports failure via contract aborts, not exceptions).
class ThreadPool {
 public:
  /// Spawns `threads` workers. `threads == 0` clamps to 1 rather than
  /// constructing a pool that can never run anything (submit would
  /// enqueue forever and wait_idle would deadlock) — so a failed
  /// hardware_concurrency probe or a `--jobs 0` passed straight through
  /// is safe by construction.
  explicit ThreadPool(std::size_t threads);

  /// Waits until the pool is idle — draining pending tasks AND any
  /// follow-on tasks they submit (recursive submission stays legal all
  /// the way through shutdown) — then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Safe to call from any thread, including from inside
  /// a running task. Cold: a sweep submits once per simulated run, never
  /// from inside one — and anufs-lint resolves calls by name, so without
  /// the boundary every hot `submit()` of the request path would reach
  /// this lock.
  ANUFS_COLD void submit(std::function<void()> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Sensible default worker count: std::thread::hardware_concurrency(),
  /// never less than 1.
  [[nodiscard]] static std::size_t hardware_jobs();

 private:
  void worker_loop();

  /// Queue drained and no task mid-flight — the wait_idle() condition.
  [[nodiscard]] bool idle_locked() const ANUFS_REQUIRES(mu_) {
    return tasks_.empty() && active_ == 0;
  }

  common::Mutex mu_;
  common::CondVar task_ready_;
  common::CondVar all_idle_;
  std::queue<std::function<void()>> tasks_ ANUFS_GUARDED_BY(mu_);
  std::size_t active_ ANUFS_GUARDED_BY(mu_) = 0;
  bool stopping_ ANUFS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Run fn(0), fn(1), ..., fn(count-1) across up to `jobs` worker threads
/// and block until all complete. Indices are claimed dynamically, so the
/// execution ORDER is nondeterministic — callers must make fn(i) write
/// only to state owned by index i (e.g. slot i of a pre-sized results
/// vector). jobs <= 1 runs everything inline on the calling thread with
/// no pool at all, which is the reference serial execution.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace anufs::sim
