// Linear-time ordering of a generated request timeline.
//
// Generators draw each file set's arrivals as one increasing run, set
// after set, and then need the runs merged into global time order. The
// times are spread over a known horizon [0, duration], so a comparison
// sort is wasted work: order_by_time distributes the records into
// coarse time windows, then finishes each window inside the cache by
// counting into fine buckets and an insertion fix-up. The
// whole pass is stable: records with equal times keep their input order,
// exactly as std::stable_sort would leave them. A window or bucket that
// clustered input overfills is handed to std::stable_sort, so the worst
// case stays O(n log n).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace anufs::workload {

namespace time_order_detail {

/// Mean records per coarse window: a window of 24-byte requests fits in
/// L1, and n / 256 window heads do too at the paper's scale.
inline constexpr std::size_t kWindowTarget = 256;
/// Windows and buckets above these sizes come from clustered input;
/// std::stable_sort finishes them.
inline constexpr std::size_t kWindowCap = 16 * kWindowTarget;
inline constexpr std::size_t kBucketCap = 16;

/// floor(x) clamped to [0, n). Monotone in x, so a bucket order never
/// contradicts the time order; NaN maps to 0.
inline std::size_t clamp_index(double x, std::size_t n) {
  if (!(x > 0.0)) return 0;
  if (x >= static_cast<double>(n)) return n - 1;
  return static_cast<std::size_t>(x);
}

/// Stable: a record moves left only past strictly later times.
template <typename T, typename TimeOf>
void insertion_sort(std::span<T> items, TimeOf& time_of) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const double t = time_of(items[i]);
    if (!(t < time_of(items[i - 1]))) continue;
    T carry = std::move(items[i]);
    std::size_t j = i;
    do {
      items[j] = std::move(items[j - 1]);
      --j;
    } while (j > 0 && t < time_of(items[j - 1]));
    items[j] = std::move(carry);
  }
}

/// The O(n log n) fallback for clustered input.
template <typename T, typename TimeOf>
void comparison_sort(std::span<T> items, TimeOf& time_of) {
  std::stable_sort(items.begin(), items.end(), [&](const T& a, const T& b) {
    return time_of(a) < time_of(b);
  });
}

/// Reusable per-window buffers.
template <typename T>
struct WindowScratch {
  std::vector<T> records;
  std::vector<std::uint32_t> bucket;  ///< fine bucket of each record
  std::vector<std::uint32_t> starts;  ///< bucket offsets into `records`
};

/// Orders one window whose records map to coarse positions in
/// [base, base + 1): one fine bucket per record, a stable counting
/// scatter through the scratch buffer, then an insertion fix-up that
/// never moves a record out of its bucket.
template <typename T, typename TimeOf>
void finish_window(std::span<T> items, double base, double per_second,
                   TimeOf& time_of, WindowScratch<T>& scratch) {
  const std::size_t m = items.size();
  if (m <= kBucketCap) {
    insertion_sort(items, time_of);
    return;
  }
  if (m > kWindowCap) {
    comparison_sort(items, time_of);
    return;
  }
  const auto fine = static_cast<double>(m);
  scratch.bucket.resize(m);
  scratch.starts.assign(m + 1, 0);
  bool overfull = false;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t b =
        clamp_index((time_of(items[k]) * per_second - base) * fine, m);
    scratch.bucket[k] = static_cast<std::uint32_t>(b);
    overfull |= ++scratch.starts[b + 1] > kBucketCap;
  }
  if (overfull) {
    comparison_sort(items, time_of);
    return;
  }
  for (std::size_t b = 0; b < m; ++b) {
    scratch.starts[b + 1] += scratch.starts[b];
  }
  scratch.records.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    scratch.records[scratch.starts[scratch.bucket[k]]++] = std::move(items[k]);
  }
  std::move(scratch.records.begin(),
            scratch.records.begin() + static_cast<std::ptrdiff_t>(m),
            items.begin());
  insertion_sort(items, time_of);
}

}  // namespace time_order_detail

/// Sorts `items` by `time_of(item)`, ascending, in place and stably:
/// equal times keep their input order. Times are expected in
/// [0, duration]; times outside it (or NaN) cost speed, never
/// correctness. Expected time is linear for times spread over the
/// horizon, O(n log n) at worst. Besides `items` it allocates one 32-bit
/// destination per record and a buffer of at most a few thousand
/// records, never a second copy of `items`.
template <typename T, typename TimeOf>
void order_by_time(std::span<T> items, double duration, TimeOf time_of) {
  namespace d = time_order_detail;
  ANUFS_EXPECTS(duration > 0.0);
  const std::size_t n = items.size();
  ANUFS_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  if (n < 2) return;
  const std::size_t windows = std::max<std::size_t>(1, n / d::kWindowTarget);
  const double per_second = static_cast<double>(windows) / duration;

  // Stable distribution into coarse windows: each record's destination
  // is its window's next free slot in input order, and one pass of cycle
  // swaps moves every record there.
  std::vector<std::uint32_t> dest(n);
  std::vector<std::uint32_t> starts(windows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = d::clamp_index(time_of(items[i]) * per_second,
                                         windows);
    dest[i] = static_cast<std::uint32_t>(w);
    ++starts[w + 1];
  }
  for (std::size_t w = 0; w < windows; ++w) starts[w + 1] += starts[w];
  {
    std::vector<std::uint32_t> next(starts.begin(), starts.end() - 1);
    for (std::uint32_t& slot : dest) slot = next[slot]++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    while (dest[i] != i) {
      const std::uint32_t j = dest[i];
      std::swap(items[i], items[j]);
      std::swap(dest[i], dest[j]);
    }
  }
  dest = {};

  d::WindowScratch<T> scratch;
  for (std::size_t w = 0; w < windows; ++w) {
    d::finish_window(items.subspan(starts[w], starts[w + 1] - starts[w]),
                     static_cast<double>(w), per_second, time_of, scratch);
  }
}

/// Capacity for a Poisson request count with mean `expected`: the mean
/// plus four standard deviations and a little slack, so a generator
/// almost never regrows its request vector.
[[nodiscard]] inline std::size_t poisson_capacity(double expected) {
  ANUFS_EXPECTS(expected >= 0.0);
  return static_cast<std::size_t>(expected + 4.0 * std::sqrt(expected)) + 64;
}

}  // namespace anufs::workload
