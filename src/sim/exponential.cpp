#include "sim/exponential.h"

#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ANUFS_EXPONENTIAL_X86 1
#include <immintrin.h>
#endif

namespace anufs::sim {

namespace {

// Constants of glibc's sysdeps/ieee754/dbl-64/s_log1p.c (from fdlibm).
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 3fe62e42 fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 3dea39ef 35793c76
constexpr double kLp1 = 6.666666666666735130e-01;      // 3FE55555 55555593
constexpr double kLp2 = 3.999999999940941908e-01;      // 3FD99999 9997FA04
constexpr double kLp3 = 2.857142874366239149e-01;      // 3FD24924 94229359
constexpr double kLp4 = 2.222219843214978396e-01;      // 3FCC71C5 1D8E78AF
constexpr double kLp5 = 1.818357216161805012e-01;      // 3FC74664 96CB03DE
constexpr double kLp6 = 1.531383769920937332e-01;      // 3FC39A09 D078C69F
constexpr double kLp7 = 1.479819860511658591e-01;      // 3FC2F112 DF3E5244
constexpr double kTwoThirds = 0.66666666666666666;

// High-word thresholds. |x| < 2^-29 takes the two-term series; a high
// word below 0xbfd2bec4 as a signed int (x > -0.2929) skips range
// reduction (k = 0, f = x); a reduced mantissa at or above kSqrt2Mant is
// halved so that 1 + f stays in [sqrt(2)/2, sqrt(2)).
constexpr std::int32_t kTinyHigh = 0x3e200000;
constexpr std::int32_t kNoReduceBelow =
    static_cast<std::int32_t>(0xbfd2bec4u - 0x100000000ll);
constexpr std::int32_t kSqrt2Mant = 0x6a09e;

[[gnu::always_inline]] inline std::int32_t high_word(double d) {
  return static_cast<std::int32_t>(std::bit_cast<std::int64_t>(d) >> 32);
}

[[gnu::always_inline]] inline double with_high_word(double d,
                                                    std::int32_t high) {
  const auto low = std::bit_cast<std::uint64_t>(d) & 0xffffffffu;
  return std::bit_cast<double>(
      low | (static_cast<std::uint64_t>(static_cast<std::uint32_t>(high))
             << 32));
}

// glibc's __log1p on (-1, 0], statement for statement, with its two
// data-dependent branches (range reduction or not, and k == 0 at the
// end) written as selects, so the eight-lane body below is the same
// computation lane for lane. The std::fma calls sit exactly where GCC
// contracts glibc's source in the FMA build: R2/R3/R4, R1 + z2*R2 (the
// R1 product is the one fused), the z4/z6 steps, k*ln2_lo + c, and
// k*ln2_hi - (...). s*(hfsq+R) is shared by both returns, so glibc
// computes it once and fuses neither use. Two rare lanes keep their
// branches: |x| < 2^-29 (the series, which also returns -0.0 for -0.0)
// and hu == 0, where |f| < 2^-20 and a shorter polynomial is used. k == 0
// with hu == 0 cannot occur on this domain, so glibc's `f - R` and
// `return 0` exits are gone.
[[gnu::always_inline]] inline double log1p_body(double x) {
  const std::int32_t hx = high_word(x);
  if ((hx & 0x7fffffff) < kTinyHigh) [[unlikely]] {
    return x - x * x * 0.5;
  }
  // 1 + x = 2^k (1 + f), with c the rounding error of 1 + x over u.
  double u = 1.0 + x;
  std::int32_t hu = high_word(u);
  std::int32_t k = (hu >> 20) - 1023;
  const double c = (x - (u - 1.0)) / u;
  hu &= 0x000fffff;
  const bool halve = hu >= kSqrt2Mant;
  k += halve ? 1 : 0;
  u = with_high_word(u, hu | (halve ? 0x3fe00000 : 0x3ff00000));
  hu = halve ? (0x00100000 - hu) >> 2 : hu;
  const bool no_reduce = hx < kNoReduceBelow;
  const double f = no_reduce ? x : u - 1.0;
  k = no_reduce ? 0 : k;
  hu = no_reduce ? 1 : hu;

  const double dk = static_cast<double>(k);
  const double hfsq = 0.5 * f * f;
  if (hu == 0) [[unlikely]] {
    const double r = hfsq * std::fma(-kTwoThirds, f, 1.0);
    return std::fma(dk, kLn2Hi, -((r - std::fma(dk, kLn2Lo, c)) - f));
  }
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double z2 = z * z;
  const double r2 = std::fma(z, kLp3, kLp2);
  const double z4 = z2 * z2;
  const double r3 = std::fma(z, kLp5, kLp4);
  const double z6 = z4 * z2;
  const double r4 = std::fma(z, kLp7, kLp6);
  const double r =
      std::fma(z6, r4, std::fma(z4, r3, std::fma(z, kLp1, z2 * r2)));
  const double sr = s * (hfsq + r);
  const double unreduced = f - (hfsq - sr);
  const double reduced = std::fma(
      dk, kLn2Hi, -((hfsq - (sr + std::fma(dk, kLn2Lo, c))) - f));
  return k == 0 ? unreduced : reduced;
}

// Two builds of the scalar port: one where std::fma is the vfmadd
// instruction, and a baseline one where it is libm's correctly rounded
// fma(). Both give the same bits; only the speed differs. (The choice is
// not an ifunc/target_clones resolver: those run before the
// ThreadSanitizer runtime is up and crash the tsan build.)
#if ANUFS_EXPONENTIAL_X86
__attribute__((target("fma"))) double log1p_fma(double x) {
  return log1p_body(x);
}

__attribute__((target("fma"))) void neg_log1p_neg_fma(
    std::span<double> values) {
  for (double& v : values) v = -log1p_body(-v);
}

[[gnu::always_inline]] inline bool has_fma() {
  static const bool yes = __builtin_cpu_supports("fma");
  return yes;
}
#endif

}  // namespace

double log1p_nonpositive(double x) {
#if ANUFS_EXPONENTIAL_X86
  if (has_fma()) return log1p_fma(x);
#endif
  return log1p_body(x);
}

void fill_unit_exponential(Xoshiro256& rng, std::span<double> out) {
  for (double& v : out) v = rng.next_double();
  if (detail::has_x8()) {
    detail::neg_log1p_neg_x8(out);
  } else {
    detail::neg_log1p_neg_scalar(out);
  }
}

namespace detail {

void neg_log1p_neg_scalar(std::span<double> values) {
#if ANUFS_EXPONENTIAL_X86
  if (has_fma()) {
    neg_log1p_neg_fma(values);
    return;
  }
#endif
  for (double& v : values) v = -log1p_body(-v);
}

#if ANUFS_EXPONENTIAL_X86

bool has_x8() {
  static const bool yes = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq");
  return yes;
}

namespace {

// GCC's shift intrinsics pass _mm512_undefined_epi32() as the masked-off
// source of an unmasked shift, which -Wmaybe-uninitialized flags (the
// same header false positive hash/mix64.h documents).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512dq"))) inline __m512i splat(
    std::int64_t v) {
  return _mm512_set1_epi64(v);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512d splat(double v) {
  return _mm512_set1_pd(v);
}

// log1p_body on eight lanes. Every lane computes every path and the
// result is selected per lane, in the scalar port's order of precedence:
// tiny, then hu == 0, then k == 0 or not. Each operation is the
// scalar one on each lane (IEEE add/sub/mul/div and fused multiply-add
// are correctly rounded in both), so lane i is bit-identical to
// log1p_body(x[i]).
__attribute__((target("avx512f,avx512dq"))) inline __m512d log1p_x8(
    __m512d x) {
  const __m512i hx = _mm512_srai_epi64(_mm512_castpd_si512(x), 32);
  const __mmask8 tiny = _mm512_cmplt_epi64_mask(
      _mm512_and_si512(hx, splat(std::int64_t{0x7fffffff})),
      splat(std::int64_t{kTinyHigh}));

  __m512d u = _mm512_add_pd(splat(1.0), x);
  const __m512i ubits = _mm512_castpd_si512(u);
  __m512i hu = _mm512_srli_epi64(ubits, 32);
  __m512i k = _mm512_sub_epi64(_mm512_srli_epi64(hu, 20),
                               splat(std::int64_t{1023}));
  const __m512d c =
      _mm512_div_pd(_mm512_sub_pd(x, _mm512_sub_pd(u, splat(1.0))), u);
  hu = _mm512_and_si512(hu, splat(std::int64_t{0x000fffff}));
  const __mmask8 halve =
      _mm512_cmpge_epi64_mask(hu, splat(std::int64_t{kSqrt2Mant}));
  k = _mm512_mask_add_epi64(k, halve, k, splat(std::int64_t{1}));
  const __m512i exponent = _mm512_mask_blend_epi64(
      halve, splat(std::int64_t{0x3ff00000}), splat(std::int64_t{0x3fe00000}));
  u = _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_and_si512(ubits, splat(std::int64_t{0xffffffff})),
      _mm512_slli_epi64(_mm512_or_si512(hu, exponent), 32)));
  hu = _mm512_mask_srli_epi64(
      hu, halve, _mm512_sub_epi64(splat(std::int64_t{0x00100000}), hu), 2);
  const __mmask8 no_reduce =
      _mm512_cmplt_epi64_mask(hx, splat(std::int64_t{kNoReduceBelow}));
  const __m512d f =
      _mm512_mask_blend_pd(no_reduce, _mm512_sub_pd(u, splat(1.0)), x);
  k = _mm512_maskz_mov_epi64(static_cast<__mmask8>(~no_reduce), k);
  const __mmask8 hu_zero = static_cast<__mmask8>(
      _mm512_cmpeq_epi64_mask(hu, _mm512_setzero_si512()) & ~no_reduce);

  const __m512d dk = _mm512_cvtepi64_pd(k);
  const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(splat(0.5), f), f);
  const __m512d k_lo = _mm512_fmadd_pd(dk, splat(kLn2Lo), c);

  // hu == 0: |f| < 2^-20.
  const __m512d r_small = _mm512_mul_pd(
      hfsq, _mm512_fnmadd_pd(splat(kTwoThirds), f, splat(1.0)));
  const __m512d small = _mm512_fmsub_pd(
      dk, splat(kLn2Hi),
      _mm512_sub_pd(_mm512_sub_pd(r_small, k_lo), f));

  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(splat(2.0), f));
  const __m512d z = _mm512_mul_pd(s, s);
  const __m512d z2 = _mm512_mul_pd(z, z);
  const __m512d r2 = _mm512_fmadd_pd(z, splat(kLp3), splat(kLp2));
  const __m512d z4 = _mm512_mul_pd(z2, z2);
  const __m512d r3 = _mm512_fmadd_pd(z, splat(kLp5), splat(kLp4));
  const __m512d z6 = _mm512_mul_pd(z4, z2);
  const __m512d r4 = _mm512_fmadd_pd(z, splat(kLp7), splat(kLp6));
  const __m512d r = _mm512_fmadd_pd(
      z6, r4,
      _mm512_fmadd_pd(z4, r3,
                      _mm512_fmadd_pd(z, splat(kLp1), _mm512_mul_pd(z2, r2))));
  const __m512d sr = _mm512_mul_pd(s, _mm512_add_pd(hfsq, r));
  const __m512d unreduced = _mm512_sub_pd(f, _mm512_sub_pd(hfsq, sr));
  const __m512d reduced = _mm512_fmsub_pd(
      dk, splat(kLn2Hi),
      _mm512_sub_pd(_mm512_sub_pd(hfsq, _mm512_add_pd(sr, k_lo)), f));

  const __mmask8 k_zero =
      _mm512_cmpeq_epi64_mask(k, _mm512_setzero_si512());
  __m512d result = _mm512_mask_blend_pd(k_zero, reduced, unreduced);
  result = _mm512_mask_blend_pd(hu_zero, result, small);
  const __m512d series = _mm512_sub_pd(
      x, _mm512_mul_pd(_mm512_mul_pd(x, x), splat(0.5)));
  return _mm512_mask_blend_pd(tiny, result, series);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

// Full groups of eight, then one masked group for the tail: masked-off
// lanes are neither loaded nor stored.
__attribute__((target("avx512f,avx512dq"))) void neg_log1p_neg_x8(
    std::span<double> values) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  double* p = values.data();
  std::size_t left = values.size();
  for (; left >= 8; left -= 8, p += 8) {
    const __m512d x = _mm512_xor_pd(_mm512_loadu_pd(p), sign);
    _mm512_storeu_pd(p, _mm512_xor_pd(log1p_x8(x), sign));
  }
  if (left > 0) {
    const auto mask = static_cast<__mmask8>((1u << left) - 1);
    const __m512d x = _mm512_xor_pd(_mm512_maskz_loadu_pd(mask, p), sign);
    _mm512_mask_storeu_pd(p, mask, _mm512_xor_pd(log1p_x8(x), sign));
  }
}

#else

bool has_x8() { return false; }

void neg_log1p_neg_x8(std::span<double> values) {
  neg_log1p_neg_scalar(values);
}

#endif

}  // namespace detail

}  // namespace anufs::sim
