// File-set movement cost model.
//
// Moving a file set in the target system takes five to ten seconds: the
// releasing server flushes its dirty cache for the set to shared disk,
// the acquiring server initializes the set, and the acquirer then runs
// with a cold cache for that set. We model this as:
//
//  * UNAVAILABILITY: the set cannot be served for flush+init seconds;
//    requests arriving meanwhile are held and replayed in order at the
//    new owner with their original arrival times (latency spans the
//    full wait);
//  * CPU STALLS: small fixed-duration occupations of the shedding and
//    acquiring servers (the flush itself is mostly disk I/O, so it does
//    not block the server's CPU for the full duration);
//  * COLD CACHE: the set's next `cold_requests` requests at the new
//    owner carry inflated service demand, decaying linearly back to 1x.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "sim/random.h"

namespace anufs::cluster {

/// Fault injection: while active, each file-set transfer attempt fails
/// with `probability`; a failed attempt costs `backoff` seconds plus a
/// fresh init attempt before the set becomes available. At most
/// `max_retries` failures per move, so transfers always complete
/// eventually (liveness is never faulted away, only delayed).
struct MoveFaultSpec {
  double probability = 0.0;
  std::uint32_t max_retries = 3;
  double backoff = 2.0;
};

struct MovementConfig {
  double flush_min = 2.0;   ///< seconds, releasing side
  double flush_max = 5.0;
  double init_min = 1.0;    ///< seconds, acquiring side
  double init_max = 3.0;
  double shed_cpu_stall = 0.2;     ///< CPU occupation on the shedder
  double acquire_cpu_stall = 0.2;  ///< CPU occupation on the acquirer
  double cold_factor = 2.0;        ///< initial demand multiplier
  std::uint32_t cold_requests = 50;  ///< requests until fully warm
  /// Crash-induced moves skip the flush (there is no one to flush; the
  /// shared-disk image is recovered by the acquirer instead).
  bool enabled = true;
};

/// Samples per-move costs and tracks per-file-set cache temperature.
/// Deterministic in the seed.
class MovementModel {
 public:
  MovementModel(MovementConfig config, std::uint64_t seed)
      : config_(config), rng_(sim::make_stream(seed, "movement")) {
    ANUFS_EXPECTS(config.flush_min >= 0 &&
                  config.flush_max >= config.flush_min);
    ANUFS_EXPECTS(config.init_min >= 0 && config.init_max >= config.init_min);
    ANUFS_EXPECTS(config.cold_factor >= 1.0);
  }

  [[nodiscard]] const MovementConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] double sample_flush() {
    return config_.flush_min +
           (config_.flush_max - config_.flush_min) * rng_.next_double();
  }

  [[nodiscard]] double sample_init() {
    return config_.init_min +
           (config_.init_max - config_.init_min) * rng_.next_double();
  }

  /// Mark a file set as freshly moved: its cache is cold.
  void on_move(FileSetId fs) {
    if (config_.cold_requests > 0 && config_.cold_factor > 1.0) {
      if (fs.value >= cold_remaining_.size()) {
        cold_remaining_.resize(std::size_t{fs.value} + 1, 0);
      }
      if (cold_remaining_[fs.value] == 0) ++cold_sets_;
      cold_remaining_[fs.value] = config_.cold_requests;
    }
  }

  /// Demand multiplier for the next request of `fs`, consuming one step
  /// of warm-up. 1.0 once warm. Linear decay from cold_factor to 1.
  [[nodiscard]] double demand_multiplier(FileSetId fs) {
    if (fs.value >= cold_remaining_.size()) return 1.0;
    std::uint32_t& remaining = cold_remaining_[fs.value];
    if (remaining == 0) return 1.0;
    const double frac = static_cast<double>(remaining) /
                        static_cast<double>(config_.cold_requests);
    if (--remaining == 0) --cold_sets_;
    return 1.0 + (config_.cold_factor - 1.0) * frac;
  }

  [[nodiscard]] std::size_t cold_sets() const noexcept { return cold_sets_; }

  // ---- fault injection (flaky transfers) --------------------------------

  /// Enter a flaky-transfer window. Replaces any active spec.
  void set_fault(const MoveFaultSpec& spec) {
    ANUFS_EXPECTS(spec.probability >= 0.0 && spec.probability <= 1.0);
    ANUFS_EXPECTS(spec.backoff >= 0.0);
    fault_ = spec;
    fault_active_ = true;
  }

  void clear_fault() { fault_active_ = false; }

  [[nodiscard]] double fault_backoff() const noexcept {
    return fault_.backoff;
  }

  /// Failed attempts before the next move succeeds: geometric in the
  /// fault probability, capped at max_retries. 0 outside fault windows
  /// (no RNG draw, so an unused window leaves every sequence intact).
  [[nodiscard]] std::uint32_t sample_move_failures() {
    if (!fault_active_ || fault_.probability <= 0.0) return 0;
    std::uint32_t failures = 0;
    while (failures < fault_.max_retries &&
           rng_.next_double() < fault_.probability) {
      ++failures;
    }
    return failures;
  }

 private:
  MovementConfig config_;
  sim::Xoshiro256 rng_;
  // Warm-up requests left, dense by FileSetId.value (0: warm), and the
  // number of cold sets.
  std::vector<std::uint32_t> cold_remaining_;
  std::size_t cold_sets_ = 0;
  MoveFaultSpec fault_;
  bool fault_active_ = false;
};

}  // namespace anufs::cluster
