#include "sim/queueing.h"

#include <utility>

namespace anufs::sim {

void FifoServer::submit(double demand, std::uint64_t tag,
                        std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand > 0.0);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  // anufs-lint: safe(H1) amortized: the ring doubles when full and never
  // shrinks, so once it has reached the peak queue depth this is a store.
  jobs_.push_back(Job{JobKind::kRequest, demand, when, tag});
  backlog_ += demand;
  maybe_start();
}

void FifoServer::submit_deferred(DemandFn demand_fn, std::uint64_t tag,
                                 std::optional<SimTime> arrival) {
  ANUFS_EXPECTS(demand_fn != nullptr);
  const SimTime when = arrival.value_or(sched_.now());
  ANUFS_EXPECTS(when <= sched_.now());
  deferred_.push_back(std::move(demand_fn));
  jobs_.push_back(Job{JobKind::kDeferred, 0.0, when, tag});
  maybe_start();
}

void FifoServer::occupy(SimDuration duration, DoneFn done) {
  ANUFS_EXPECTS(duration >= 0.0);
  JobKind kind = JobKind::kStall;
  if (done) {
    stall_done_.push_back(std::move(done));
    kind = JobKind::kStallDone;
  }
  jobs_.push_back(Job{kind, duration, sched_.now(), 0});
  maybe_start();
}

void FifoServer::maybe_start() {
  if (in_service_ || jobs_.empty()) return;
  in_service_ = true;
  Job& job = jobs_.front();
  if (job.kind == JobKind::kDeferred) start_deferred(job);
  service_start_ = sched_.now();
  const SimDuration service =
      is_stall(job.kind) ? job.demand : job.demand / speed_;
  busy_time_ += service;
  sched_.schedule_in(service, [this, epoch = epoch_] { finish(epoch); });
}

void FifoServer::start_deferred(Job& job) {
  job.demand = deferred_.pop_front()();  // executing-server mode: cost is real
  ANUFS_EXPECTS(job.demand > 0.0);
  backlog_ += job.demand;
}

void FifoServer::finish(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // job was lost to a reset() crash
  ANUFS_ENSURES(in_service_ && !jobs_.empty());
  const Job job = jobs_.pop_front();
  in_service_ = false;
  if (job.kind == JobKind::kStallDone) {
    stall_done();
  } else if (job.kind != JobKind::kStall) {
    backlog_ -= job.demand;
    ++completed_;
    if (sink_) {
      sink_(JobCompletion{job.arrival, service_start_, sched_.now(),
                          job.demand, job.tag});
    }
  }
  maybe_start();
}

void FifoServer::stall_done() {
  const DoneFn done = stall_done_.pop_front();
  done();
}

std::size_t FifoServer::reset() {
  std::size_t lost = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (!is_stall(jobs_[i].kind)) ++lost;
  }
  jobs_.clear();
  stall_done_.clear();
  deferred_.clear();
  backlog_ = 0.0;
  in_service_ = false;
  ++epoch_;  // orphan the pending completion event, if any
  return lost;
}

}  // namespace anufs::sim
