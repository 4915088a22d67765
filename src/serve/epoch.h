// Epoch-based reclamation for single-writer, many-reader snapshot
// publication (the serving mode's RCU analogue).
//
// The protocol has one writer thread and up to `max_readers` reader
// slots. A reader PINS an epoch before touching any published object
// and UNPINS when done; the writer RETIRES a superseded object stamped
// with a fresh epoch and frees it only once every pinned reader has
// advanced past that stamp. Readers never take a lock, never wait, and
// never observe a freed object; the writer never waits for readers
// either — reclamation is deferred, not blocking (grace detection is a
// bounded scan of the reader slots on the writer's own schedule).
//
// Memory-ordering argument (all operations on `global_`, the slots, and
// the publisher's object pointer are seq_cst, so one total order S over
// them exists):
//
//   writer:  ptr.store(new)  <S  global_.fetch_add  <S  slot scans
//   reader:  global_.load -> e,  slot.exchange(e),  ptr.load
//
// Retire stamp for the old object is the value global_ takes AFTER the
// pointer swap. Case 1 — the writer's scan observes the reader's slot:
// a pinned epoch e < stamp defers the free (the reader may hold the old
// pointer); e >= stamp means the reader pinned after the fetch_add, so
// its ptr.load follows the swap in S and sees the new object. Case 2 —
// the scan does NOT observe the slot (reader was between its global_
// load and its slot exchange): then the scan's slot load precedes the
// reader's exchange in S, so the reader's ptr.load — later still in S —
// follows the writer's swap and sees the new object; freeing the old
// one is safe. Either way no reader can dereference a freed snapshot.
// tests/serve_stress_test.cpp re-proves this dynamically under TSan.
//
// Pin cost is one seq_cst exchange (~a locked xchg); serving amortizes
// it over a batch of lookups computed with one locate_many sweep
// (measured together by BM_ServeLocateBatch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/attributes.h"
#include "common/check.h"

namespace anufs::serve {

class EpochDomain {
 public:
  /// Slot value meaning "this reader holds no published object".
  static constexpr std::uint64_t kQuiescent = 0;

  explicit EpochDomain(std::size_t max_readers) : slots_(max_readers) {
    ANUFS_EXPECTS(max_readers >= 1);
  }

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  [[nodiscard]] std::size_t max_readers() const noexcept {
    return slots_.size();
  }

  // ---- reader side -------------------------------------------------------

  /// Pin the current epoch into `slot`. Until unpin(), any object whose
  /// retire stamp exceeds the returned epoch stays allocated. Re-pinning
  /// an already-pinned slot simply advances it (the per-batch idiom).
  ANUFS_HOT std::uint64_t pin(std::size_t slot) noexcept {
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    // seq_cst exchange: the slot publication must be ordered before the
    // subsequent object-pointer load in the single total order S (see
    // file comment); a release store would not give us that.
    slots_[slot].epoch.exchange(e, std::memory_order_seq_cst);
    return e;
  }

  ANUFS_HOT void unpin(std::size_t slot) noexcept {
    slots_[slot].epoch.store(kQuiescent, std::memory_order_release);
  }

  // ---- writer side -------------------------------------------------------

  /// Advance the global epoch; the returned value stamps a retirement.
  std::uint64_t advance() noexcept {
    return global_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  [[nodiscard]] std::uint64_t current() const noexcept {
    return global_.load(std::memory_order_seq_cst);
  }

  /// Smallest pinned epoch, or max() when every slot is quiescent. An
  /// object retired at stamp S is reclaimable iff S <= min_active():
  /// every reader that could still hold it would be pinned below S.
  [[nodiscard]] std::uint64_t min_active() const noexcept {
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    for (const Slot& s : slots_) {
      const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e != kQuiescent && e < min) min = e;
    }
    return min;
  }

 private:
  // One cache line per slot: a pinning reader must not false-share with
  // its neighbours (pin/unpin are the per-batch steady state).
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kQuiescent};
  };

  // Starts at 1 so kQuiescent can never be a real epoch.
  std::atomic<std::uint64_t> global_{1};
  std::vector<Slot> slots_;
};

/// RAII pin over one reader slot (the per-batch guard).
class EpochGuard {
 public:
  ANUFS_HOT EpochGuard(EpochDomain& domain, std::size_t slot) noexcept
      : domain_(domain), slot_(slot) {
    (void)domain_.pin(slot_);
  }
  ANUFS_HOT ~EpochGuard() { domain_.unpin(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain& domain_;
  std::size_t slot_;
};

}  // namespace anufs::serve
