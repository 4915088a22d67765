// SAN / client-side data-path model.
//
// The paper's motivation (Section 2): "clients acquire metadata prior to
// data. Clients blocked on metadata may leave the high bandwidth SAN
// underutilized." We model the data path as a shared link of infinite
// parallelism: a client's direct-to-disk transfer begins the moment its
// metadata request completes and lasts the transfer duration. The model
// tracks three quantities:
//
//   busy time    — at least one transfer is in flight;
//   wasted time  — NO transfer is in flight while at least one client
//                  is blocked waiting on metadata (the paper's
//                  underutilization);
//   end-to-end   — metadata latency + transfer time per file access.
//
// This turns metadata-server imbalance into the client-visible metric
// the paper argues about (see bench/tabd_san_utilization).
#pragma once

#include <cstdint>

#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace anufs::cluster {

struct SanConfig {
  bool enabled = false;
  /// Mean data-transfer duration per file access (exponential), seconds.
  double mean_transfer = 0.05;
};

class SanModel {
 public:
  explicit SanModel(sim::Scheduler& sched) : sched_(sched) {}

  SanModel(const SanModel&) = delete;
  SanModel& operator=(const SanModel&) = delete;

  /// A client issued a metadata request and is now blocked on it.
  void on_metadata_issued() {
    advance();
    ++blocked_;
  }

  /// The metadata completed after `metadata_latency`; the client starts
  /// its SAN transfer of `transfer_duration` seconds (stretched by the
  /// current degradation factor — see set_slowdown).
  void on_metadata_done(sim::SimDuration metadata_latency,
                        sim::SimDuration transfer_duration) {
    ANUFS_EXPECTS(blocked_ > 0);
    ANUFS_EXPECTS(transfer_duration >= 0.0);
    advance();
    --blocked_;
    ++active_;
    ++accesses_;
    const sim::SimDuration effective = transfer_duration * slowdown_;
    end_to_end_total_ += metadata_latency + effective;
    sched_.schedule_in(effective, [this] {
      advance();
      ANUFS_ENSURES(active_ > 0);
      --active_;
    });
  }

  /// Fault injection: transfers started from now on take `factor` times
  /// as long (SAN congestion / degraded-array window; 1.0 restores full
  /// bandwidth). Applied at transfer start so it never consumes extra
  /// RNG draws — a degraded window perturbs durations, not sequences.
  void set_slowdown(double factor) {
    ANUFS_EXPECTS(factor > 0.0);
    slowdown_ = factor;
  }

  /// A blocked client's request was dropped (server crash): unblock
  /// without a transfer.
  void on_metadata_lost() {
    ANUFS_EXPECTS(blocked_ > 0);
    advance();
    --blocked_;
  }

  /// Fold in state up to now (call before reading accumulators).
  void advance() {
    const sim::SimTime now = sched_.now();
    const sim::SimDuration dt = now - last_change_;
    if (dt > 0.0) {
      if (active_ > 0) busy_ += dt;
      if (active_ == 0 && blocked_ > 0) wasted_ += dt;
    }
    last_change_ = now;
  }

  [[nodiscard]] sim::SimDuration busy_time() const noexcept { return busy_; }

  /// Time the SAN sat idle while clients were blocked on metadata.
  [[nodiscard]] sim::SimDuration wasted_idle() const noexcept {
    return wasted_;
  }

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

  /// Mean metadata-plus-transfer time per completed file access.
  [[nodiscard]] double mean_end_to_end() const {
    return accesses_ == 0
               ? 0.0
               : end_to_end_total_ / static_cast<double>(accesses_);
  }

  [[nodiscard]] std::uint32_t blocked_clients() const noexcept {
    return blocked_;
  }
  [[nodiscard]] std::uint32_t active_transfers() const noexcept {
    return active_;
  }

 private:
  sim::Scheduler& sched_;
  double slowdown_ = 1.0;
  std::uint32_t blocked_ = 0;
  std::uint32_t active_ = 0;
  sim::SimTime last_change_ = 0.0;
  sim::SimDuration busy_ = 0.0;
  sim::SimDuration wasted_ = 0.0;
  std::uint64_t accesses_ = 0;
  double end_to_end_total_ = 0.0;
};

}  // namespace anufs::cluster
