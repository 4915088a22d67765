// Generation-stamped memo for PlacementMap::locate(), with invalidation
// scoped to the partitions a mutation actually touched.
//
// The paper argues request-time addressing is cheap because "successive
// hash probes incur negligible costs" — but even a negligible probe chain
// is pure recomputation when neither the fingerprint nor the region map
// changed. This cache makes the request hot path O(1) amortized: a
// direct-mapped table memoizes fingerprint -> LocateResult, with every
// entry stamped by the RegionMap generation at insert time.
//
// Invalidation happens at two granularities:
//
//  * FAST PATH — entry generation == map generation: nothing anywhere
//    has changed since insert; serve the result.
//  * SCOPED REVALIDATION — the generations differ, but a locate() answer
//    depends ONLY on the partitions its probe chain visited (each probe
//    either missed unmapped space or landed on the owner). The map keeps
//    a per-partition last-change stamp, so the entry is still exact iff
//    every chain partition's stamp is <= the entry's stamp — checked by
//    re-deriving the chain's positions (a handful of hash evaluations)
//    without consulting ownership at all. A single-server resize
//    therefore no longer evicts entries for unaffected servers: only
//    chains crossing the touched partitions miss. Fallback-path entries
//    additionally require the membership stamp to be unchanged, since
//    the direct hash indexes the alive list.
//
// A hit — fast or revalidated — is bit-identical to an uncached locate()
// by construction (tests/placement_cache_test.cpp re-proves this under
// the invariant auditor for random mutation/lookup interleavings).
//
// Collisions simply overwrite (direct-mapped): correctness never depends
// on residency, only on the stamp checks. The table never allocates
// after construction.
//
// Thread ownership: like the Scheduler, a PlacementCache is confined to
// one thread for MUTATION — exactly one thread ever calls locate() or
// clear() on a given instance. Concurrent simulations each own their own
// cache (AnuSystem embeds one per instance, and each parallel-sweep run
// owns its system; serving-mode readers keep no cache — they compute
// every batch with PlacementMap::locate_many). The hit/miss counters,
// however, are single-writer relaxed atomics, so stats() is safe to
// call from ANY thread at any time, including while the owner is
// mid-locate (tests/serve_harvest_test.cpp proves that harvest is
// race-free under TSan). Single-writer is what
// makes the load+store increment below exact — there is no concurrent
// increment to lose — while costing the owner a plain add, not an
// interlocked RMW, on the ~2.7 ns hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "core/placement.h"
#include "obs/trace.h"

namespace anufs::core {

class PlacementCache {
 public:
  /// Hit/miss accounting, cheap enough to maintain unconditionally.
  /// A plain snapshot struct: stats() materializes one from the atomic
  /// counters, so callers keep value semantics.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Epoch changes observed (a lower bound on map mutations: several
    /// mutations between lookups count once).
    std::uint64_t invalidations = 0;
    /// Hits served through scoped revalidation: the map moved since the
    /// entry was cached, but not under this entry's probe chain.
    std::uint64_t revalidated = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// `capacity` is rounded up to a power of two. The default (16384
  /// slots, ~640 KiB) keeps direct-mapped collisions under ~3% for the
  /// simulator's file-set working sets (hundreds of sets); residency
  /// only affects speed, never answers.
  explicit PlacementCache(std::size_t capacity = 16384)
      : mask_(round_up_pow2(capacity) - 1),
        slots_(mask_ + 1),
        scratch_fps_(kBatchChunk),
        scratch_results_(kBatchChunk),
        scratch_ranks_(kBatchChunk) {}

  // Moves belong to the owning thread, BEFORE the instance has been
  // advertised to any stats() reader (a move during concurrent harvest
  // would be a race by construction). The atomics only make the
  // counters any-thread-readable; they do not make the cache itself a
  // shared object.
  PlacementCache(PlacementCache&& other) noexcept
      : mask_(other.mask_),
        slots_(std::move(other.slots_)),
        scratch_fps_(std::move(other.scratch_fps_)),
        scratch_results_(std::move(other.scratch_results_)),
        scratch_ranks_(std::move(other.scratch_ranks_)),
        last_gen_(other.last_gen_) {
    hits_.store(other.hits_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    misses_.store(other.misses_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    invalidations_.store(other.invalidations_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    revalidated_.store(other.revalidated_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  PlacementCache& operator=(PlacementCache&& other) noexcept {
    mask_ = other.mask_;
    slots_ = std::move(other.slots_);
    scratch_fps_ = std::move(other.scratch_fps_);
    scratch_results_ = std::move(other.scratch_results_);
    scratch_ranks_ = std::move(other.scratch_ranks_);
    last_gen_ = other.last_gen_;
    hits_.store(other.hits_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    misses_.store(other.misses_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    invalidations_.store(other.invalidations_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    revalidated_.store(other.revalidated_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  /// Resolve `fp` against `map`, serving from the cache when the entry
  /// provably still matches the map (same generation, or no touched
  /// partition under its probe chain). Bit-identical to map.locate(fp)
  /// in every field of LocateResult.
  [[nodiscard]] ANUFS_HOT LocateResult locate(const PlacementMap& map,
                                              std::uint64_t fp) {
    const std::uint64_t gen = map.regions().generation();
    if (gen != last_gen_) {
      bump(invalidations_);
      ANUFS_TRACE(obs::Category::kCache, "invalidate", {"generation", gen},
                  {"hits", hits_.load(std::memory_order_relaxed)},
                  {"misses", misses_.load(std::memory_order_relaxed)});
      last_gen_ = gen;
    }
    // Fingerprints are themselves hash outputs (hash::fingerprint of the
    // unique name), so their low bits are already uniform — indexing
    // directly saves a re-mix on every request.
    Slot& slot = slots_[fp & mask_];
    // Generation 0 never occurs in a live RegionMap (it starts at 1), so
    // default-constructed slots can never pass either check.
    if (slot.fingerprint == fp && slot.generation != 0) {
      if (slot.generation == gen) {
        bump(hits_);
        return slot.result;
      }
      if (chain_unchanged(map, slot)) {
        // Promote: the entry is exact as of the current generation, so
        // later lookups take the fast path again.
        slot.generation = gen;
        bump(hits_);
        bump(revalidated_);
        return slot.result;
      }
    }
    bump(misses_);
    const LocateResult result = map.locate(fp);
    slot.fingerprint = fp;
    slot.generation = gen;
    slot.result = result;
    return result;
  }

  /// Batched resolve: `out[i]` is bit-identical to calling
  /// locate(map, fps[i]) for i = 0..n-1 in index order — same four
  /// result fields per element, same hit/miss/revalidated/invalidation
  /// counts, and the same end-of-batch slot contents (duplicate
  /// fingerprints hit the batch's own install; colliding slots end with
  /// the last writer). Misses, instead of each chasing their own probe
  /// chain, are resolved together by one SoA sweep per chunk
  /// (PlacementMap::locate_many). Requires out.size() >= fps.size().
  ANUFS_HOT void locate_many(const PlacementMap& map,
                             std::span<const std::uint64_t> fps,
                             std::span<LocateResult> out) {
    ANUFS_EXPECTS(out.size() >= fps.size());
    if (fps.empty()) return;
    // Pending claims (below) ride in the probes field of a claimed slot;
    // real probe counts are bounded by max_rounds + 1.
    ANUFS_EXPECTS(map.config().max_rounds < kPendingBit - 1);
    const std::uint64_t gen = map.regions().generation();
    if (gen != last_gen_) {
      // The scalar sequence would observe the epoch change at its first
      // lookup, before any of the batch's own bumps — so counting it
      // here, once, reproduces both the counter and the trace record.
      bump(invalidations_);
      ANUFS_TRACE(obs::Category::kCache, "invalidate", {"generation", gen},
                  {"hits", hits_.load(std::memory_order_relaxed)},
                  {"misses", misses_.load(std::memory_order_relaxed)});
      last_gen_ = gen;
    }
    std::size_t done = 0;
    while (done < fps.size()) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(kBatchChunk, fps.size() - done));
      locate_chunk(map, gen, fps.data() + done, n, out.data() + done);
      done += n;
    }
  }

  /// Snapshot of the counters. Callable from any thread, even while the
  /// owning thread is mid-locate: each counter is read atomically
  /// (relaxed), so the snapshot is tear-free per field. Fields may be
  /// mutually skewed by in-flight lookups; the skew is bounded by one
  /// lookup and vanishes once the owner quiesces.
  [[nodiscard]] Stats stats() const noexcept {
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.invalidations = invalidations_.load(std::memory_order_relaxed);
    out.revalidated = revalidated_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// Drop every entry (and reset nothing else; stats persist). Not needed
  /// for correctness — generation stamps already fence stale entries —
  /// but useful for benchmarks that want a cold start.
  void clear() {
    for (Slot& slot : slots_) slot = Slot{};
  }

 private:
  struct Slot {
    std::uint64_t fingerprint = 0;
    std::uint64_t generation = 0;  ///< map generation at insert/promotion
    LocateResult result;
  };

  /// Fingerprints per batched chunk; bounds the preallocated scratch so
  /// locate_many itself never allocates (H1).
  static constexpr std::uint32_t kBatchChunk = 1024;
  /// Set in the probes field of a slot claimed by a pending miss; the
  /// low bits hold the miss rank within the current chunk.
  static constexpr std::uint32_t kPendingBit = 1u << 31;
  /// ranks[] sentinel: this element's result was copied during
  /// classification (fast or revalidated hit), nothing to patch.
  static constexpr std::uint32_t kResolved = 0xFFFFFFFFu;

  /// One chunk of locate_many. Three passes, all in index order:
  ///
  ///  1. CLASSIFY: hits (fast or revalidated, exactly the scalar checks)
  ///     copy their result immediately — the slot may be overwritten by
  ///     a later colliding miss, just as it could be under the scalar
  ///     sequence after this lookup returned. Misses claim their slot
  ///     with a pending marker carrying their miss rank, so a later
  ///     duplicate fingerprint in the chunk hits the claim exactly as it
  ///     would hit the freshly-installed entry scalar-wise (counted as a
  ///     hit, result aliased by rank). A later colliding miss simply
  ///     re-claims the slot.
  ///  2. RESOLVE: all chunk misses in one SoA sweep.
  ///  3. INSTALL: miss results written back in rank (= index) order, so
  ///     a slot claimed several times ends with the last writer — the
  ///     same end state the scalar install sequence leaves. Finally the
  ///     aliased elements are patched from the resolved results.
  ANUFS_HOT void locate_chunk(const PlacementMap& map, std::uint64_t gen,
                              const std::uint64_t* fps, std::uint32_t n,
                              LocateResult* out) {
    std::uint64_t* miss_fps = scratch_fps_.data();
    LocateResult* miss_results = scratch_results_.data();
    std::uint32_t* ranks = scratch_ranks_.data();
    std::uint32_t miss_count = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t fp = fps[i];
      Slot& slot = slots_[fp & mask_];
      if (slot.fingerprint == fp && slot.generation != 0) {
        if (slot.result.probes & kPendingBit) {
          // Claimed by an earlier miss in this chunk for the same
          // fingerprint: under the scalar sequence this lookup would hit
          // the just-installed entry.
          bump(hits_);
          ranks[i] = slot.result.probes & ~kPendingBit;
          continue;
        }
        if (slot.generation == gen) {
          bump(hits_);
          out[i] = slot.result;
          ranks[i] = kResolved;
          continue;
        }
        if (chain_unchanged(map, slot)) {
          slot.generation = gen;
          bump(hits_);
          bump(revalidated_);
          out[i] = slot.result;
          ranks[i] = kResolved;
          continue;
        }
      }
      bump(misses_);
      ranks[i] = miss_count;
      miss_fps[miss_count] = fp;
      slot.fingerprint = fp;
      slot.generation = gen;
      slot.result.probes = kPendingBit | miss_count;
      ++miss_count;
    }
    if (miss_count > 0) {
      map.locate_many(std::span<const std::uint64_t>(miss_fps, miss_count),
                      std::span<LocateResult>(miss_results, miss_count));
      for (std::uint32_t r = 0; r < miss_count; ++r) {
        Slot& slot = slots_[miss_fps[r] & mask_];
        slot.fingerprint = miss_fps[r];
        slot.generation = gen;
        slot.result = miss_results[r];
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (ranks[i] != kResolved) out[i] = miss_results[ranks[i]];
    }
  }

  /// True iff no partition under the entry's probe chain (and, for
  /// fallback entries, the membership list) changed after the entry was
  /// stamped. locate() is a pure function of exactly that state, so an
  /// unchanged chain implies a bit-identical re-derivation.
  [[nodiscard]] static ANUFS_HOT bool chain_unchanged(const PlacementMap& map,
                                                      const Slot& slot) {
    const RegionMap& regions = map.regions();
    const std::uint64_t stamped = slot.generation;
    if (slot.result.fallback) {
      // The direct hash indexes the sorted alive list; any membership
      // change re-homes fallback fingerprints.
      if (regions.membership_stamp() > stamped) return false;
      const std::uint32_t rounds = map.config().max_rounds;
      for (std::uint32_t round = 0; round < rounds; ++round) {
        const hash::Pos pos = map.family().probe(slot.fingerprint, round);
        if (regions.stamp_at(pos) > stamped) return false;
      }
      return true;
    }
    // probes-1 misses through unmapped space, then the landing probe.
    for (std::uint32_t round = 0; round < slot.result.probes; ++round) {
      const hash::Pos pos = map.family().probe(slot.fingerprint, round);
      if (regions.stamp_at(pos) > stamped) return false;
    }
    return true;
  }

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    ANUFS_EXPECTS(n >= 1);
    std::size_t p = 1;
    while (p < n) p <<= 1u;
    return p;
  }

  /// Single-writer increment: a relaxed load+store pair compiles to a
  /// plain add (no interlocked RMW) because only the owning thread ever
  /// writes, yet concurrent stats() readers see a well-defined value.
  static ANUFS_HOT void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }

  std::size_t mask_;
  std::vector<Slot> slots_;
  // Preallocated locate_many scratch (miss fingerprints, their resolved
  // results, and the per-element rank/alias table). Owner-thread-only,
  // like the slots.
  std::vector<std::uint64_t> scratch_fps_;
  std::vector<LocateResult> scratch_results_;
  std::vector<std::uint32_t> scratch_ranks_;
  std::uint64_t last_gen_ = 0;
  // Owner-thread-written, any-thread-readable (see class comment). The
  // atomics delete the copy operations (callers never replicate a
  // cache) and force the explicit owner-thread-only moves above.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> revalidated_{0};
};

}  // namespace anufs::core
