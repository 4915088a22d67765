// The in-repo exponential draw (sim/exponential.h): its log1p port
// against the host's libm and against pinned bits, the AVX-512 body
// against the scalar port, and the block fill against one-at-a-time
// draws.
#include "sim/exponential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/distributions.h"

namespace anufs::sim {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::uint32_t high_word(double d) {
  return static_cast<std::uint32_t>(bits(d) >> 32);
}

double from_words(std::uint32_t high, std::uint64_t low) {
  return std::bit_cast<double>((static_cast<std::uint64_t>(high) << 32) |
                               (low & 0xffffffffu));
}

// glibc's log1p is our reference only where glibc runs its FMA build:
// x86-64 with FMA. There the port must agree on every input.
bool libm_is_reference() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#define SKIP_UNLESS_LIBM_IS_REFERENCE()                                     \
  if (!libm_is_reference()) {                                               \
    GTEST_SKIP() << "host libm log1p is not glibc's FMA build (no x86-64 " \
                    "FMA), so it is no reference for the port";             \
  }

/// Counts inputs where the port and std::log1p differ in any bit.
struct Oracle {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  double first_bad = 0.0;

  void check(double input) {
    // Through a volatile, so the compiler cannot fold std::log1p of a
    // literal with its own correctly rounded arithmetic.
    const volatile double opaque = input;
    const double x = opaque;
    ++checked;
    if (bits(log1p_nonpositive(x)) != bits(std::log1p(x))) {
      if (mismatches++ == 0) first_bad = x;
    }
  }
};

void expect_clean(const Oracle& o) {
  EXPECT_EQ(o.mismatches, 0u)
      << "of " << o.checked << " inputs; first at x = " << std::hexfloat
      << o.first_bad << ": port " << log1p_nonpositive(o.first_bad)
      << ", libm " << std::log1p(o.first_bad);
}

// Lanes whose answer is pinned, so the port is checked on hosts where
// libm is no reference too. The first is a lane where glibc's FMA and
// non-FMA builds differ in the last bit (non-FMA: ...d461p-2).
TEST(ExponentialPort, PinnedLanes) {
  EXPECT_EQ(bits(log1p_nonpositive(-0x1.5b4964a13ee96p-2)),
            bits(-0x1.a82a5c889d46p-2));
  EXPECT_EQ(bits(log1p_nonpositive(-0x1.b83904fdd3758p-3)),
            bits(-0x1.efa37ec8e9ec8p-3));
  EXPECT_EQ(bits(log1p_nonpositive(-0x1.597c7af6c4225p-1)),
            bits(-0x1.1f8d193f6879cp+0));
  EXPECT_EQ(bits(log1p_nonpositive(-0.5)), bits(-0x1.62e42fefa39efp-1));
}

TEST(ExponentialPort, ZeroDrawIsPositiveZero) {
  EXPECT_EQ(bits(log1p_nonpositive(-0.0)), bits(-0.0));
  EXPECT_EQ(bits(log1p_nonpositive(0.0)), bits(0.0));
  std::vector<double> block(9, 0.0);
  detail::neg_log1p_neg_scalar(block);
  for (const double v : block) EXPECT_EQ(bits(v), bits(0.0));
}

// >= 10^8 draws on the 2^-53 grid next_double() produces, spread over
// [0, 1) by an odd golden-ratio stride so every region is visited.
TEST(ExponentialPort, MatchesLibmOnTheDrawGrid) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  constexpr std::uint64_t kDraws = 100'000'000;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 53) - 1;
  constexpr std::uint64_t kStride = 0x13C6EF372FE94Bull | 1;  // ~2^53/phi
  Oracle o;
  std::uint64_t m = 0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    m = (m + kStride) & kMask;
    o.check(-static_cast<double>(m) * 0x1.0p-53);
  }
  expect_clean(o);
}

// The port's domain is all of (-1, 0], not only the grid: off-grid x
// make 1 + x inexact, which exercises the correction term c.
TEST(ExponentialPort, MatchesLibmOffTheGrid) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  Xoshiro256 rng{99};
  Oracle o;
  for (int e = 1; e <= 60; ++e) {
    for (int j = 0; j < 20000; ++j) {
      const double mant = 1.0 + rng.next_double();  // [1, 2)
      const double x = -std::ldexp(mant, -e);
      if (x > -1.0) o.check(x);
    }
  }
  expect_clean(o);
}

// |x| < 2^-29 takes the two-term series.
TEST(ExponentialPort, MatchesLibmOnTinyInputs) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  Oracle o;
  for (std::uint64_t m = 1; m <= 4096; ++m) {
    o.check(-static_cast<double>(m) * 0x1.0p-53);
  }
  Xoshiro256 rng{5};
  for (int j = 0; j < 100000; ++j) {
    o.check(-std::ldexp(rng.next_double(), -29));
  }
  o.check(-0x1.fffffffffffffp-30);
  o.check(-0x1.0p-29);
  expect_clean(o);
}

// hu == 0: 1 + x within 2^-20 of a power of two, from above (the mantissa
// high word is zero) or from below (halved, (0x100000 - hu) >> 2 == 0),
// and exactly a power of two (f == 0).
TEST(ExponentialPort, MatchesLibmOnNormalisationLanes) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  Xoshiro256 rng{17};
  Oracle o;
  std::uint64_t hu_zero = 0;
  for (int e = 1; e <= 53; ++e) {
    const double p = std::ldexp(1.0, -e);
    o.check(p - 1.0);  // f == 0
    for (int j = 0; j < 4000; ++j) {
      const double above = p * (1.0 + std::ldexp(rng.next_double(), -20));
      const double below = p * (1.0 - std::ldexp(rng.next_double(), -22));
      for (const double y : {above, below}) {
        const double x = y - 1.0;
        if (!(x > -1.0 && x < -0.2929)) continue;
        const std::uint32_t hu = high_word(1.0 + x) & 0xfffff;
        hu_zero += (hu == 0 || hu > 0xffffc) ? 1 : 0;
        o.check(x);
      }
    }
  }
  EXPECT_GT(hu_zero, 100000u) << "the sweep no longer reaches hu == 0";
  expect_clean(o);
}

// The k = 0 boundary near x = -0.2929 (high word 0xbfd2bec4, which
// already reduces) and the
// sqrt(2)/2 halving boundary of 1 + x (mantissa high word 0x6a09e).
TEST(ExponentialPort, MatchesLibmAtReductionBoundaries) {
  SKIP_UNLESS_LIBM_IS_REFERENCE();
  Xoshiro256 rng{23};
  Oracle o;
  for (std::uint32_t high = 0xbfd2bebcu; high <= 0xbfd2beccu; ++high) {
    for (int j = 0; j < 20000; ++j) {
      o.check(from_words(high, rng()));
    }
  }
  for (std::uint32_t mant = 0x6a094u; mant <= 0x6a0a8u; ++mant) {
    for (int j = 0; j < 20000; ++j) {
      o.check(from_words(0x3fe00000u | mant, rng()) - 1.0);
    }
  }
  expect_clean(o);
}

/// Draw-like inputs with every special lane mixed in.
std::vector<double> mixed_draws(std::size_t n) {
  Xoshiro256 rng{31};
  std::vector<double> v(n);
  const double specials[] = {0.0,    0x1.0p-53, 0x1.0p-30, 0.5,
                             0.75,   0.2928932, 0.2929,    1.0 - 0x1.0p-53,
                             0.5 + 0x1.0p-40};
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i % 5 == 3) ? specials[(i / 5) % std::size(specials)]
                        : rng.next_double();
  }
  return v;
}

TEST(ExponentialFill, X8BodyMatchesScalarAtEveryLengthAndOffset) {
  if (!detail::has_x8()) GTEST_SKIP() << "no AVX-512F/DQ on this CPU";
  const std::vector<double> source = mixed_draws(67 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      std::vector<double> scalar(source.begin(), source.end());
      std::vector<double> x8(source.begin(), source.end());
      detail::neg_log1p_neg_scalar(std::span(scalar).subspan(offset, len));
      detail::neg_log1p_neg_x8(std::span(x8).subspan(offset, len));
      for (std::size_t i = 0; i < source.size(); ++i) {
        ASSERT_EQ(bits(x8[i]), bits(scalar[i]))
            << "offset " << offset << " length " << len << " index " << i;
      }
    }
  }
}

TEST(ExponentialFill, X8BodyMatchesScalarOnManyDraws) {
  if (!detail::has_x8()) GTEST_SKIP() << "no AVX-512F/DQ on this CPU";
  std::vector<double> scalar = mixed_draws(1 << 20);
  std::vector<double> x8 = scalar;
  detail::neg_log1p_neg_scalar(scalar);
  detail::neg_log1p_neg_x8(x8);
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(bits(x8[i]), bits(scalar[i])) << "index " << i;
  }
}

TEST(ExponentialFill, ChunkedFillReproducesOneAtATimeDraws) {
  constexpr std::size_t kTotal = 3000;
  Xoshiro256 one{77};
  std::vector<double> expected(kTotal);
  for (double& v : expected) v = sample_exponential(one, 1.0);
  for (const std::size_t chunk : std::vector<std::size_t>{1, 7, 8, 9, 256}) {
    Xoshiro256 rng{77};
    std::vector<double> got(kTotal);
    for (std::size_t at = 0; at < kTotal; at += chunk) {
      const std::size_t n = std::min(chunk, kTotal - at);
      fill_unit_exponential(rng, std::span(got).subspan(at, n));
    }
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(bits(got[i]), bits(expected[i]))
          << "chunk " << chunk << " index " << i;
    }
    Xoshiro256 after = one;
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rng(), after()) << "chunk " << chunk;
  }
}

TEST(ExponentialFill, StreamReproducesOneAtATimeDraws) {
  Xoshiro256 one{5};
  ExponentialStream stream(Xoshiro256{5});
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(bits(stream.next()), bits(unit_exponential(one))) << i;
  }
}

}  // namespace
}  // namespace anufs::sim
