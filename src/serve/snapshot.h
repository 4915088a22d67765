// Epoch-reclaimed placement snapshots: the immutable state a serving
// reader routes against.
//
// The live AnuSystem stays single-threaded (the project's confinement
// rule) and is owned by the serving WRITER thread. After every control-
// plane operation the writer publishes a Snapshot — a value copy of the
// PlacementMap plus its generation — through a SnapshotStore. Readers
// pin an epoch (serve/epoch.h), load the current snapshot pointer, and
// compute any number of lookups against it with PlacementMap::
// locate_many; they never block on the control plane and the control
// plane never blocks on them. Superseded snapshots are retired into a
// writer-local list and freed once every reader epoch has advanced past
// the retirement stamp — "why retired snapshots are safe to free" is
// the memory-ordering argument in epoch.h (DESIGN.md §6i walks it in
// prose).
//
// Publication correctness leans on the generation discipline: rule G1
// statically guarantees every RegionMap mutator
// advances the generation, and the mutation hook (RegionMap::
// set_mutation_hook) marks the live map dirty at each mutator's tail,
// so publish_if_changed() can (a) skip no-op publishes O(1)-cheaply and
// (b) assert that the hook and the generation agree — a mutation can
// neither escape publication nor publish a half-mutated map (the hook
// only fires at op boundaries).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"
#include "core/placement.h"
#include "serve/epoch.h"

namespace anufs::serve {

/// One immutable, generation-stamped placement configuration. `map` is
/// never mutated after construction (its mutation hook is cleared, so
/// it cannot even notify).
struct Snapshot {
  core::PlacementMap map;
  std::uint64_t generation = 0;  ///< map.regions().generation() at publish
  std::uint64_t seq = 0;         ///< publish sequence number, from 0
};

/// Single-writer/many-reader snapshot cell with epoch reclamation.
/// Writer methods (publish*, reclaim, destructor) belong to one thread;
/// acquire/release may be called concurrently from any reader slot.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::size_t max_readers);

  /// Frees the current snapshot and everything still retired. Callers
  /// must have quiesced every reader first (the serving harness joins
  /// its readers before the store dies).
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // ---- writer side -------------------------------------------------------

  /// Publish a snapshot of `map` unconditionally. Retires the previous
  /// snapshot and opportunistically reclaims whatever is now safe.
  void publish(const core::PlacementMap& map);

  /// Publish iff `map`'s generation differs from the last published one
  /// (the per-op fast path; a no-op round costs one integer compare).
  /// Returns true when a snapshot was published.
  bool publish_if_changed(const core::PlacementMap& map);

  /// Free every retired snapshot whose grace period has elapsed.
  void reclaim();

  [[nodiscard]] std::uint64_t published() const noexcept {
    return published_;
  }
  [[nodiscard]] std::uint64_t freed() const noexcept { return freed_; }
  [[nodiscard]] std::size_t retired_pending() const noexcept {
    return retired_.size();
  }
  [[nodiscard]] std::uint64_t last_generation() const noexcept {
    return last_generation_;
  }

  // ---- reader side -------------------------------------------------------

  /// Pin `slot`'s epoch and return the current snapshot. The pointer
  /// stays valid until release(slot) — or the next acquire on the same
  /// slot, which re-pins and may therefore let the previous snapshot be
  /// reclaimed. Never returns null once the writer has published.
  [[nodiscard]] ANUFS_HOT const Snapshot* acquire(std::size_t slot) noexcept {
    (void)epochs_.pin(slot);
    return current_.load(std::memory_order_seq_cst);
  }

  ANUFS_HOT void release(std::size_t slot) noexcept { epochs_.unpin(slot); }

  [[nodiscard]] EpochDomain& epochs() noexcept { return epochs_; }

 private:
  EpochDomain epochs_;
  std::atomic<const Snapshot*> current_{nullptr};
  /// Writer-confined: superseded snapshots awaiting their grace period.
  std::vector<std::pair<const Snapshot*, std::uint64_t>> retired_;
  std::uint64_t published_ = 0;
  std::uint64_t freed_ = 0;
  std::uint64_t last_generation_ = 0;
};

}  // namespace anufs::serve
