// The agreed-upon family of hash functions used for placement probes.
//
// Round r of the probe sequence for a file set with fingerprint f is
// H_r(f); file sets landing in unmapped space are re-hashed with the next
// function (Section 4 of the paper). Every node evaluates the same family
// so addressing requires no communication and no I/O.
#pragma once

#include <cstdint>

#include "common/attributes.h"
#include "hash/mix64.h"
#include "hash/unit_interval.h"

namespace anufs::hash {

/// Indexed family {H_0, H_1, ...} of independent-looking 64-bit hashes.
///
/// Construction: perturb the fingerprint with a round-dependent odd
/// constant, then alternate two unrelated finalizers. Each H_r is a
/// bijection of the fingerprint for fixed r, so distinct file sets never
/// collide within a round, and rounds are pairwise uncorrelated in every
/// statistical test we run (see tests/hash_family_test.cpp).
class HashFamily {
 public:
  /// A family is parameterized by a cluster-wide salt so that two
  /// independent clusters do not correlate. Salt 0 is the default family.
  explicit constexpr HashFamily(std::uint64_t salt = 0) : salt_(salt) {}

  /// The salt-and-tweak pre-xor of round `round`: H_r(f) =
  /// mixer_r(f ^ round_pre(r)). Exposed so batch loops can hoist and
  /// broadcast it once per round instead of once per lane group.
  [[nodiscard]] constexpr std::uint64_t round_pre(std::uint32_t round) const {
    const std::uint64_t tweak =
        (static_cast<std::uint64_t>(round) * 2 + 1) * 0x9E3779B97F4A7C15ULL;
    return salt_ ^ tweak;
  }

  /// Position of probe round `round` for fingerprint `fp`.
  [[nodiscard]] constexpr ANUFS_HOT Pos probe(std::uint64_t fp,
                                              std::uint32_t round) const {
    const std::uint64_t x = fp ^ round_pre(round);
    return (round & 1u) ? mix64_v2(x) : mix64(x);
  }

  /// Multi-lane probe: positions of round `round` for `n` independent
  /// fingerprints at once. Lane `l` of `out` is bit-identical to
  /// probe(fps[l], round) — the round tweak is hoisted once and the
  /// finalizer runs as a flat lane loop (hash::mix64_many), so a batch
  /// mixes at multiply throughput instead of chaining one fingerprint's
  /// three-multiply latency after another's. This is the mixer stage of
  /// PlacementMap::locate_many.
  ANUFS_HOT void probe_many(const std::uint64_t* fps, std::uint32_t n,
                            std::uint32_t round, Pos* out) const {
    const std::uint64_t pre = round_pre(round);
    if (round & 1u) {
      mix64_v2_many(fps, n, pre, out);
    } else {
      mix64_many(fps, n, pre, out);
    }
  }

#if ANUFS_MIX64_X8
  /// Eight-lane vector probe: lane l is bit-identical to
  /// probe(fps[l], round). The round tweak broadcasts once; the lanes
  /// run the vector finalizer (hash::mix64_x8 / mix64_v2_x8). Callers
  /// must have checked avx512f+avx512dq support at runtime.
  __attribute__((target("avx512f,avx512dq"))) [[nodiscard]] ANUFS_HOT __m512i
  probe_x8(__m512i fps, std::uint32_t round) const {
    return probe_x8_pre(fps, broadcast_u64(round_pre(round)), round);
  }

  /// probe_x8 with the round pre-xor already broadcast (round_pre(round)
  /// through broadcast_u64) — `round` only selects the finalizer. Lets a
  /// batch loop pay the broadcast once per round rather than per group.
  __attribute__((target("avx512f,avx512dq"))) [[nodiscard]] ANUFS_HOT
  static __m512i
  probe_x8_pre(__m512i fps, __m512i pre, std::uint32_t round) {
    const __m512i x = _mm512_xor_si512(fps, pre);
    return (round & 1u) ? mix64_v2_x8(x) : mix64_x8(x);
  }
#endif  // ANUFS_MIX64_X8

  /// The direct-to-server fallback hash used after `max_rounds` failed
  /// probes: maps the fingerprint to an index in [0, n_servers).
  [[nodiscard]] ANUFS_HOT std::uint32_t fallback_server(
      std::uint64_t fp, std::uint32_t n_servers) const;

  [[nodiscard]] constexpr std::uint64_t salt() const noexcept {
    return salt_;
  }

 private:
  std::uint64_t salt_;
};

}  // namespace anufs::hash
