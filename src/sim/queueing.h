// FIFO queueing resource: the simulated execution model of one metadata
// server. Mirrors the YACSIM facility the paper used: first-in-first-out
// discipline, a single service channel, and a speed factor that divides
// service demand (a "power 9" server finishes the same request 9x faster
// than a "power 1" server).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace anufs::sim {

/// Delivered to the submitter when a job completes service.
struct JobCompletion {
  SimTime arrival;     ///< when the job entered the queue
  SimTime start;       ///< when service began
  SimTime completion;  ///< when service finished (== now at delivery)
  double demand;       ///< service demand in unit-speed seconds
  std::uint64_t tag;   ///< caller-supplied correlation tag

  /// Queueing + service time: the latency metric the paper reports.
  [[nodiscard]] SimDuration latency() const { return completion - arrival; }
  [[nodiscard]] SimDuration wait() const { return start - arrival; }
};

/// FIFO queue over a vector ring. Capacity doubles when full and is never
/// given back, so once a queue has reached its peak depth, push and pop
/// allocate nothing.
template <class T>
class FifoRing {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& front() noexcept { return slots_[head_]; }
  /// The i-th queued element, front first.
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow_ring();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes the front element; its slot is reset, so whatever it owned
  /// is released now.
  T pop_front() {
    T value = std::exchange(slots_[head_], T{});
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

  void clear() {
    while (!empty()) (void)pop_front();
  }

 private:
  ANUFS_COLD void grow_ring() {
    std::vector<T> next(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two size
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Single FIFO server with a tunable speed factor.
///
/// `submit` enqueues a job whose service time is demand/speed, with speed
/// sampled when service starts (so a speed change applies from the next
/// job onward, like a CPU upgrade between requests). `occupy` blocks the
/// channel for a fixed wall duration regardless of speed — used to model
/// cache-flush and file-set-initialization stalls during load movement.
///
/// Every completed request is reported to one completion sink, fixed at
/// construction; the submitter's `tag` identifies the request. A job is
/// a plain record, so the request path allocates nothing once the job
/// ring and the scheduler's pool have grown. The rare per-job callbacks
/// (a stall's `done`, a deferred job's demand) wait in side FIFOs and
/// are consumed in job order.
class FifoServer {
 public:
  using CompletionFn = std::function<void(const JobCompletion&)>;
  using DoneFn = std::function<void()>;
  using DemandFn = std::function<double()>;

  /// `sink` (optional) receives every regular job's completion.
  FifoServer(Scheduler& sched, double speed, CompletionFn sink = {})
      : sched_(sched), speed_(speed), sink_(std::move(sink)) {
    ANUFS_EXPECTS(speed > 0.0);
  }

  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  /// Enqueue a metadata request. `demand` is in unit-speed seconds.
  /// `arrival` backdates the request's queue-entry time (default: now) —
  /// used when a request was held elsewhere (e.g. while its file set was
  /// in flight between servers) so reported latency spans the full wait.
  ANUFS_HOT void submit(double demand, std::uint64_t tag,
                        std::optional<SimTime> arrival = std::nullopt);

  /// Like submit, but the demand is computed WHEN SERVICE STARTS — used
  /// by the executing-server mode, where a request's cost is whatever
  /// the metadata operation actually takes against the file set's state
  /// at that moment. The function must return a demand > 0.
  void submit_deferred(DemandFn demand_fn, std::uint64_t tag,
                       std::optional<SimTime> arrival = std::nullopt);

  /// Enqueue a fixed-duration stall (flush, file-set init). FIFO-ordered
  /// with regular jobs; `done` fires when the stall completes.
  void occupy(SimDuration duration, DoneFn done = {});

  /// Change the speed factor; applies when the next job starts service.
  void set_speed(double speed) {
    ANUFS_EXPECTS(speed > 0.0);
    speed_ = speed;
  }

  [[nodiscard]] double speed() const noexcept { return speed_; }

  /// Jobs queued, including the one in service.
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return jobs_.size();
  }

  [[nodiscard]] bool busy() const noexcept { return in_service_; }

  /// Cumulative busy time (service + occupy), for utilization metrics.
  [[nodiscard]] SimDuration busy_time() const noexcept { return busy_time_; }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// Sum of unit-speed demand currently enqueued (including in service,
  /// pro-rated is NOT attempted — this is a planning heuristic only).
  [[nodiscard]] double backlog_demand() const noexcept { return backlog_; }

  /// Crash model: drop every queued and in-service job without delivering
  /// completions, and return the number of regular jobs lost. The server
  /// is immediately usable again (recovery with an empty queue).
  std::size_t reset();

 private:
  enum class JobKind : std::uint8_t {
    kRequest,   // demand known at submit
    kDeferred,  // demand from the next deferred_ entry at service start
    kStall,     // wall-clock occupation, no callback
    kStallDone  // stall whose callback is the next stall_done_ entry
  };
  struct Job {
    JobKind kind;
    double demand;  // unit-speed seconds (requests) or wall seconds (stalls)
    SimTime arrival;
    std::uint64_t tag;
  };
  [[nodiscard]] static bool is_stall(JobKind kind) noexcept {
    return kind == JobKind::kStall || kind == JobKind::kStallDone;
  }

  ANUFS_HOT void maybe_start();
  ANUFS_HOT void finish(std::uint64_t epoch);
  // Executing-server mode: evaluate the front deferred job's demand.
  ANUFS_COLD void start_deferred(Job& job);
  // Runs the callback of a finished kStallDone job.
  ANUFS_COLD void stall_done();

  Scheduler& sched_;
  double speed_;
  CompletionFn sink_;
  FifoRing<Job> jobs_;
  FifoRing<DoneFn> stall_done_;
  FifoRing<DemandFn> deferred_;
  SimTime service_start_ = kTimeZero;  // of the job in service
  std::uint64_t epoch_ = 0;  // bumped by reset(); stale completions no-op
  bool in_service_ = false;
  SimDuration busy_time_ = 0.0;
  std::uint64_t completed_ = 0;
  double backlog_ = 0.0;
};

}  // namespace anufs::sim
