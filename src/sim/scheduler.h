// Discrete-event scheduler: the core of the YACSIM-replacement engine.
//
// Events are callbacks ordered by (time, insertion sequence). The sequence
// tiebreak makes runs fully deterministic: two events scheduled for the
// same instant always fire in the order they were scheduled, regardless of
// heap internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "sim/time.h"

namespace anufs::sim {

/// Single-threaded event calendar.
///
/// Usage:
///   Scheduler sched;
///   sched.schedule_in(1.0, [&]{ ... });
///   sched.run();                      // until the calendar drains
///
/// Handlers may schedule further events, including at the current time.
/// There is no cancellation: a model that must void a pending event
/// carries its own validity check (the FIFO server's finish event
/// compares an epoch), so every heap entry fires.
///
/// A time-sorted arrival stream (a workload's request vector) can be
/// merged into the calendar with merge_arrivals() instead of each arrival
/// rescheduling the next: the scheduler fires it by index, in (time, seq)
/// order with the heap, without a heap entry or a pool slot per arrival.
///
/// Allocation discipline: handlers live in a slot pool recycled through a
/// free list, so steady-state operation (schedule -> fire -> schedule)
/// performs no per-event heap allocation once the pool has grown to the
/// peak concurrent event count. Stats::pool_allocated / pool_recycled
/// expose the split so tests can assert the steady state really recycles.
///
/// A Scheduler is confined to one thread. Concurrent simulations each own
/// their own Scheduler (see sim::ThreadPool and driver/parallel_runner).
class Scheduler {
 public:
  using Handler = std::function<void()>;
  /// Fires arrival `index` of a merged stream (see merge_arrivals).
  using ArrivalFn = std::function<void(std::size_t index)>;

  /// Engine counters, cheap enough to maintain unconditionally. Exposed
  /// so bench binaries can report throughput (events/sec) and tests can
  /// observe reclamation.
  ///
  /// Thread ownership: the counters are plain fields mutated by the
  /// scheduler's owning thread on every fired event — they are
  /// NOT atomics. stats() therefore returns a by-value snapshot, and
  /// both it and the fields themselves may only be read from the thread
  /// that runs the scheduler (for a parallel sweep: inside the run, or
  /// after the run's task has completed and the pool has joined — the
  /// pattern parallel_runner uses when it copies stats into RunResult).
  struct Stats {
    std::uint64_t fired = 0;       ///< handlers actually run
    /// Always 0: the scheduler has no cancellation. Kept only because
    /// perfbench/src/sim_bench.cpp reports it as sched.cancelled.
    std::uint64_t cancelled = 0;
    std::size_t peak_pending = 0;  ///< high-water mark of pending()
    std::uint64_t pool_allocated = 0;  ///< event nodes freshly allocated
    std::uint64_t pool_recycled = 0;   ///< schedules served from the free list
    // Pool composition AT SNAPSHOT TIME, filled by stats() in the same
    // read as the cumulative counters above so the "allocates nothing"
    // assertions can check conservation (pool_size == pool_free +
    // pending) in one snapshot.
    std::size_t pool_size = 0;  ///< nodes ever allocated (pool high-water)
    std::size_t pool_free = 0;  ///< slots on the free list right now
    std::size_t pending = 0;    ///< scheduled, not yet fired events
  };

  /// Current simulated time. Starts at kTimeZero; advances only while
  /// events run.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events scheduled but not yet fired. Merged arrivals are
  /// not events: they never count here.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// True when nothing is left to fire: no pending event, no arrival.
  [[nodiscard]] bool empty() const noexcept {
    return pending() == 0 && !arrivals_left();
  }

  /// Total events fired so far (useful for progress accounting and tests).
  [[nodiscard]] std::uint64_t fired() const noexcept { return stats_.fired; }

  /// Consistent snapshot of the counters (see Stats for thread rules):
  /// returning by value means a caller holding the result can never
  /// observe a half-updated struct if it outlives this Scheduler or
  /// hands the snapshot to another thread. The pool-composition fields
  /// are captured in the same call as the cumulative counters, so the
  /// conservation law pool_size == pool_free + pending holds in every
  /// snapshot.
  [[nodiscard]] Stats stats() const noexcept {
    Stats s = stats_;
    s.pool_size = handlers_.size();
    s.pool_free = free_slots_.size();
    s.pending = pending();
    return s;
  }

  /// Pre-size the calendar and the node pool for an expected peak of
  /// concurrently pending events (optional; the pool grows on demand).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    handlers_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Merge the arrival stream `records` (sorted by `time`, the first at
  /// or after now()) into the calendar: `fire(i)` runs at records[i].time.
  /// Arrivals order with events by (time, seq) exactly as if each
  /// arrival's handler scheduled the next one on return: arrival 0 draws
  /// its sequence number here, arrival i+1 draws the next free number
  /// when fire(i) returns. Arrivals count in Stats::fired but take no
  /// pool slot and are not pending(). `records` must outlive the run;
  /// a stream may be merged only once the previous one is exhausted.
  template <class Record>
  void merge_arrivals(std::span<const Record> records,
                      SimTime Record::*time, ArrivalFn fire) {
    const std::byte* first =
        records.empty()
            ? nullptr
            : reinterpret_cast<const std::byte*>(&(records.front().*time));
    merge_arrival_stream(first, sizeof(Record), records.size(),
                         std::move(fire));
  }

  /// Schedule `fn` at absolute simulated time `at` (>= now()).
  ANUFS_HOT void schedule_at(SimTime at, Handler fn);

  /// Schedule `fn` `delay` seconds from now (delay >= 0).
  ANUFS_HOT void schedule_in(SimDuration delay, Handler fn) {
    ANUFS_EXPECTS(delay >= 0.0);
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events and arrivals until both are exhausted.
  void run();

  /// Run events with time <= horizon, then advance the clock to exactly
  /// `horizon` (even if no event lies there). Events scheduled at `horizon`
  /// itself do fire, including ones scheduled by handlers firing at the
  /// horizon.
  void run_until(SimTime horizon);

  /// Fire exactly one event or arrival, if any. Returns false when both
  /// are exhausted.
  ANUFS_HOT bool step();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index of the handler in handlers_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool arrivals_left() const noexcept {
    return arrival_next_ < arrival_count_;
  }
  // True when the next arrival fires before the heap's top entry (which
  // exists iff `have_event`): the (time, seq) order of one calendar.
  [[nodiscard]] bool arrival_leads(bool have_event) const noexcept {
    return arrivals_left() &&
           (!have_event ||
            Later{}(heap_.front(), Entry{arrival_time_, arrival_seq_, 0}));
  }
  void merge_arrival_stream(const std::byte* first_time, std::size_t stride,
                            std::size_t count, ArrivalFn fire);
  // Fires the next arrival, then draws the sequence number of the one
  // after it.
  ANUFS_HOT void fire_arrival();
  // Pops and fires the heap's top entry (the heap must be non-empty).
  ANUFS_HOT void fire_top();
  // Slow path of schedule_at: allocate a fresh pool slot because the
  // free list is empty (the pool has not yet grown to this run's peak
  // concurrency). Cold: steady state recycles, never allocates.
  ANUFS_COLD std::uint32_t grow_pool();

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  // Binary heap managed with std::push_heap/pop_heap.
  std::vector<Entry> heap_;
  // Slot pool: handlers stored out of the heap so Entry stays trivially
  // copyable, recycled through free_slots_ so steady state allocates
  // nothing.
  std::vector<Handler> handlers_;
  std::vector<std::uint32_t> free_slots_;
  // The merged arrival stream: a strided view of the records' time
  // fields, the index, time and sequence number of the next arrival.
  const std::byte* arrival_cursor_ = nullptr;
  std::size_t arrival_stride_ = 0;
  std::size_t arrival_next_ = 0;
  std::size_t arrival_count_ = 0;
  SimTime arrival_time_ = kTimeZero;
  std::uint64_t arrival_seq_ = 0;
  ArrivalFn arrival_fire_;
};

}  // namespace anufs::sim
