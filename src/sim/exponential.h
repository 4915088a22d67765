// The exponential draw every Poisson arrival and service demand in the
// model is made of: -log1p(-u) for a uniform u in [0, 1).
//
// The logarithm is computed here, not by the host's libm. It is a port
// of glibc's fdlibm-derived log1p, restricted to the draw's domain
// (-1, 0], with std::fma written out exactly where glibc's FMA build
// fuses a multiply-add. It returns the bits glibc returns on an FMA
// host, and it returns them on every IEEE-754 host, so request
// timelines, goldens and digests no longer depend on which libm variant
// the dynamic loader picks (DESIGN.md §5).
//
// exponential.cpp is compiled with -ffp-contract=off: every fused
// operation is spelled out, and the compiler must not fuse any other.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "sim/random.h"

namespace anufs::sim {

/// log1p(x) for x in (-1, 0], bit-identical to glibc's FMA log1p.
/// Outside that domain the result is unspecified.
[[nodiscard]] double log1p_nonpositive(double x);

/// One unit-rate exponential: -log1p(-u) for the next uniform of `rng`.
[[nodiscard]] inline double unit_exponential(Xoshiro256& rng) {
  return -log1p_nonpositive(-rng.next_double());
}

/// Fills `out` with unit-rate exponentials, one uniform per element in
/// stream order: the values, and the end state of `rng`, are bit for
/// bit those of out.size() calls to unit_exponential. The bulk runs
/// eight lanes at a time where the CPU has AVX-512.
void fill_unit_exponential(Xoshiro256& rng, std::span<double> out);

/// A stream of unit-rate exponentials drawn ahead in blocks. It owns its
/// generator, so nothing else can draw from it between blocks: the n-th
/// next() is exactly the n-th unit_exponential of the stream it was
/// given. The block lives inside the object (no heap).
class ExponentialStream {
 public:
  explicit ExponentialStream(Xoshiro256 rng) : rng_(rng) {}

  [[nodiscard]] double next() {
    if (pos_ == kBlock) {
      fill_unit_exponential(rng_, block_);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  static constexpr std::size_t kBlock = 256;
  Xoshiro256 rng_;
  std::size_t pos_ = kBlock;
  std::array<double, kBlock> block_;
};

namespace detail {

/// The two in-place bodies behind fill_unit_exponential, each mapping
/// every u in `values` to -log1p(-u). Exposed so tests can hold them
/// bit-identical.
void neg_log1p_neg_scalar(std::span<double> values);

/// True when this CPU can run neg_log1p_neg_x8.
[[nodiscard]] bool has_x8();

/// Eight-lane AVX-512 body; a tail of fewer than eight values runs as
/// one masked group. Only call when has_x8().
void neg_log1p_neg_x8(std::span<double> values);

}  // namespace detail

}  // namespace anufs::sim
