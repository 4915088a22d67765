// Serving mode: a concurrent lookup service over a live AnuSystem.
//
// The simulator proves ANU's placement properties in virtual time; the
// LookupService proves the ADDRESSING hot path serves real concurrent
// traffic. One WRITER thread owns the AnuSystem (the project's
// single-thread confinement rule, unchanged) and drives seed-
// deterministic control-plane churn — delegate retunes, server failures,
// commissions — publishing an immutable placement snapshot through a
// SnapshotStore after every mutation. N READER threads compute every
// lookup from the snapshot they have pinned — no memo, no lookup table
// beyond the map itself (paper §5: addressing is pure computation);
// they never take a lock and never block on the control plane,
// and the control plane never waits for them (serve/epoch.h has the
// reclamation proof, DESIGN.md §6i the prose).
//
// Correctness is checked two ways, both exercised by the test battery:
//
//  * INLINE — each recorded sample is one answer of the batch just
//    served (batched locate_many) and is validated against the very
//    snapshot it was served from (== that snapshot's scalar locate), so
//    a torn or half-published map cannot hide;
//  * REPLAY — the writer records every control-plane op verbatim
//    (retune reports included); check_equivalence() replays the log on
//    a fresh AnuSystem and requires every concurrently-served sample to
//    be bit-identical — all four LocateResult fields — to the
//    sequential derivation at the same generation. Concurrency may
//    change timing and throughput, never an answer.
//
// Readers draw fingerprints from a shared immutable working set, batch
// their lookups under one epoch pin, resolve each batch with one
// PlacementMap::locate_many sweep (run_batch is the ANUFS_HOT loop;
// rule H1 statically forbids it from allocating, throwing, locking, or
// sleeping), and keep single-writer relaxed-atomic counters so
// live_stats() can be harvested from any thread mid-serve.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/attributes.h"
#include "core/anu_system.h"
#include "core/placement_cache.h"
#include "fault/fault_plan.h"
#include "hash/mix64.h"
#include "obs/metrics_registry.h"
#include "serve/snapshot.h"
#include "sim/random.h"
#include "sim/thread_pool.h"

namespace anufs::serve {

struct ServeConfig {
  /// Reader thread count (each gets its own epoch slot and RNG).
  std::uint32_t threads = 4;
  /// Wall-clock serving window. 0 = run until the writer exhausts
  /// `writer_ops` and every reader has completed `min_batches` (the
  /// deterministic-shape mode the tests use).
  double seconds = 1.0;
  std::uint64_t seed = 42;

  // ---- cluster / placement ----
  std::uint32_t n_servers = 16;  ///< initial servers, ids 0..n-1
  std::uint32_t file_sets = 4096;
  core::AnuConfig anu;  ///< tuner/placement knobs (defaults are fine)

  // ---- writer churn ----
  /// Control-plane ops to apply. 0 = unlimited (churn for the whole
  /// window).
  std::uint64_t writer_ops = 0;
  /// Target control-plane rate; 0 = apply ops back-to-back.
  double writer_ops_per_second = 200.0;
  /// Never fail below this many alive servers.
  std::uint32_t min_alive = 2;
  /// Optional fault plan: its crash/recover/add events are folded into
  /// the churn schedule (in time order) between generated retunes.
  fault::FaultPlan faults;

  // ---- reader shape ----
  std::uint32_t batch_size = 256;  ///< lookups per epoch pin
  /// With seconds == 0: each reader runs at least this many batches.
  std::uint64_t min_batches = 64;
  /// Record one sample every 2^k batches per reader (k = this; the
  /// sample is one answer of the batch just served, validated inline
  /// against the pinned snapshot's scalar locate when validate_inline
  /// is set).
  std::uint32_t sample_every_batches_log2 = 2;
  std::size_t max_samples_per_reader = 4096;
  bool validate_inline = true;
};

/// Fold of one served answer into a digest. The readers fold each answer
/// from 0 and sum the folds (order-independent, no serial chain);
/// check_equivalence chains them in its own stable order.
[[nodiscard]] constexpr std::uint64_t fold_result(
    std::uint64_t digest, std::uint64_t fp, const core::LocateResult& r) {
  std::uint64_t x = digest ^ fp;
  x = hash::mix64(x ^ (static_cast<std::uint64_t>(r.server.value) |
                       (static_cast<std::uint64_t>(r.probes) << 32) |
                       (r.fallback ? std::uint64_t{1} << 63 : 0)));
  return hash::mix64(x ^ r.position);
}

/// One concurrently-served lookup, replayable: `generation` names the
/// exact published configuration it was answered from.
struct Sample {
  std::uint64_t fingerprint = 0;
  std::uint64_t generation = 0;
  core::LocateResult result;
};

/// One recorded control-plane op. Retune reports are stored verbatim so
/// replay feeds the tuner bit-identical inputs.
struct WriterOp {
  enum class Kind : std::uint8_t { kRetune, kFail, kAdd };
  Kind kind = Kind::kRetune;
  ServerId server;  ///< kFail / kAdd
  std::vector<core::ServerReport> reports;  ///< kRetune
  std::uint64_t generation_after = 0;       ///< map generation post-op
};

/// Any-thread snapshot of serving progress (single-writer atomics).
struct LiveStats {
  std::uint64_t lookups = 0;
  std::uint64_t batches = 0;
};

struct ServeResult {
  std::uint32_t threads = 0;
  double seconds = 0.0;  ///< measured serving wall time
  std::uint64_t lookups = 0;
  double lookups_per_second = 0.0;
  /// Readers keep no cache: every lookup is computed, so this always
  /// reads hits 0, misses == lookups, invalidations 0, revalidated 0.
  /// Kept so cache-shaped consumers see the honest all-miss numbers.
  core::PlacementCache::Stats cache;
  /// Per-lookup latency derived from per-batch timing (ns).
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// Per-lookup latency distribution (ns), merged across readers; the
  /// fixed log2 buckets merge again across runs (obs::Histogram::merge).
  obs::Histogram latency_ns{1.0, 40};
  /// Control plane.
  std::uint64_t ops_applied = 0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshots_freed = 0;
  std::size_t snapshots_pending = 0;  ///< retired, not yet reclaimed
  std::uint64_t final_generation = 0;
  /// Order-independent fold of every served result: the wrapping sum,
  /// over every lookup of every reader, of that answer's own mix64
  /// fold. Two runs serving the same multiset of answers agree on it,
  /// and (unlike XOR) repeated identical answers do not cancel.
  std::uint64_t digest = 0;
  std::size_t samples = 0;
};

/// check_equivalence() verdict. ok() is the serving-mode correctness
/// claim: concurrency changed no answer.
struct EquivalenceReport {
  std::size_t samples_checked = 0;
  std::size_t mismatches = 0;
  /// Samples whose generation never appeared at a replayed op boundary
  /// (must be 0: readers can only pin published configurations).
  std::size_t unmatched_generation = 0;
  /// mix64 fold over (fingerprint, generation, result) of every checked
  /// sample, in (generation, fingerprint) order — the serve-smoke gate
  /// logs this as the run's equivalence digest.
  std::uint64_t digest = 0;
  [[nodiscard]] bool ok() const noexcept {
    return mismatches == 0 && unmatched_generation == 0;
  }
};

class LookupService {
 public:
  explicit LookupService(ServeConfig config);
  /// Joins everything if still running.
  ~LookupService();

  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  /// Launch the writer and the readers. Idempotent-hostile: once per
  /// service instance.
  void start();

  /// Ask everyone to wind down (readers finish their current batch;
  /// the writer abandons any ops not yet applied) and join. Safe to
  /// call with readers mid-epoch — that is the shutdown the stress
  /// test exercises.
  void stop();

  /// start(), serve for the configured window, stop(), summarize.
  ServeResult run();

  /// Any-thread progress probe; safe while readers are running (the
  /// per-reader counters are single-writer atomics).
  [[nodiscard]] LiveStats live_stats() const;

  [[nodiscard]] bool running() const noexcept {
    return started_ && !joined_;
  }

  /// Post-stop: the recorded control-plane log and served samples.
  [[nodiscard]] const std::vector<WriterOp>& ops() const;
  [[nodiscard]] std::vector<Sample> all_samples() const;
  [[nodiscard]] const ServeResult& result() const;

  /// Post-stop: replay ops() sequentially on a fresh AnuSystem and
  /// check every sample bit-identical at its generation.
  [[nodiscard]] EquivalenceReport check_equivalence() const;

  /// Fold a ServeResult + EquivalenceReport into a metrics registry
  /// (serve_* names; the driver exports it like any run snapshot).
  static void harvest(const ServeResult& result, obs::Registry& registry);

 private:
  /// Everything one reader thread owns, cache-line padded so neighbours
  /// never false-share the hot counters.
  struct alignas(64) ReaderState {
    ReaderState(std::uint64_t stream_seed, std::uint32_t batch_size)
        : rng(stream_seed), batch_fps(batch_size), batch_results(batch_size) {}
    sim::Xoshiro256 rng;
    /// run_batch staging, preallocated so the hot path never allocates
    /// (H1): the batch's drawn fingerprints and their batched answers.
    std::vector<std::uint64_t> batch_fps;
    std::vector<core::LocateResult> batch_results;
    std::uint64_t digest = 0;
    std::uint64_t batch_count = 0;
    std::vector<Sample> samples;          ///< reader-confined until join
    std::vector<double> batch_ns;         ///< per-lookup ns, one per batch
    obs::Histogram latency_ns{1.0, 40};   ///< same values, mergeable form
    std::atomic<std::uint64_t> lookups{0};   ///< single-writer, any-reader
    std::atomic<std::uint64_t> batches{0};   ///< single-writer, any-reader
  };

  void writer_loop();
  void reader_loop(std::size_t idx);
  /// The serving hot path: `n` lookups against the pinned snapshot's
  /// map — drawn into preallocated staging, computed with one
  /// map.locate_many sweep, then digest-folded. Each answer folds on its
  /// own and the folds are summed, so there is no serial dependency
  /// chain across the batch. Allocation/lock/sleep-free by rule H1
  /// (tools/anufs_lint.py walks its call graph).
  ANUFS_HOT void run_batch(ReaderState& r, const core::PlacementMap& map,
                           std::uint32_t n);
  /// Off the hot path: record one answer of the `n`-lookup batch
  /// run_batch just served from `snap`, validated against scalar locate.
  ANUFS_COLD void record_sample(ReaderState& r, const Snapshot& snap,
                                std::uint32_t n);

  /// Build (and record) the next churn op; returns false when the op
  /// budget is exhausted.
  bool apply_next_op();
  void apply_op(core::AnuSystem& system, const WriterOp& op) const;

  [[nodiscard]] bool readers_warmed() const;

  ServeConfig config_;
  std::vector<std::uint64_t> fingerprints_;  ///< immutable working set
  std::vector<ServerId> initial_ids_;        ///< replay starts from these
  std::unique_ptr<core::AnuSystem> system_;  ///< writer-confined
  SnapshotStore store_;
  std::vector<std::unique_ptr<ReaderState>> readers_;

  // Writer-confined churn state.
  sim::Xoshiro256 writer_rng_;
  std::vector<WriterOp> ops_;
  /// Fault-plan membership events (true = fail), time-ordered but stored
  /// reversed so consumption is pop_back().
  std::vector<std::pair<bool, ServerId>> plan_events_;
  std::uint32_t next_fresh_server_ = 0;
  std::vector<ServerId> failed_pool_;
  bool map_dirty_ = false;  ///< set by the RegionMap mutation hook

  std::atomic<bool> stop_{false};
  std::atomic<bool> writer_done_{false};
  bool started_ = false;
  bool joined_ = false;
  /// Readers run as long-lived tasks on the project's worker pool (one
  /// per pool thread); the writer gets a dedicated thread so the
  /// control plane never queues behind a reader.
  std::unique_ptr<sim::ThreadPool> pool_;
  std::thread writer_;
  std::uint64_t serve_begin_ns_ = 0;
  ServeResult result_;
};

}  // namespace anufs::serve
