// Sampling distributions used by the workload generators and the cluster
// model. All samplers take the generator by reference so callers control
// stream ownership and determinism.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.h"

namespace anufs::sim {

/// Exponential with the given rate (events per unit time). Mean = 1/rate.
/// The one-element form of sim/exponential.h: unit_exponential / rate.
[[nodiscard]] double sample_exponential(Xoshiro256& rng, double rate);

/// Uniform real in [lo, hi).
[[nodiscard]] double sample_uniform(Xoshiro256& rng, double lo, double hi);

/// Log-uniform: 10^U where U ~ Uniform[lo_exp, hi_exp). This is the
/// heterogeneity model for synthetic file-set weights: lo_exp=0, hi_exp=2
/// yields two decades (>=100x) of spread, matching the paper's "most
/// active file set has more than one hundred times as many requests".
[[nodiscard]] double sample_log_uniform(Xoshiro256& rng, double lo_exp,
                                        double hi_exp);

/// Bounded Pareto on [lo, hi] with shape alpha. Used for bursty
/// trace-like service demands.
[[nodiscard]] double sample_bounded_pareto(Xoshiro256& rng, double alpha,
                                           double lo, double hi);

/// Zipf sampler over ranks 1..n with exponent s, via precomputed CDF.
/// O(n) construction, O(log n) per sample. Used to shape trace-like
/// file-set popularity.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double exponent);

  /// Rank in [0, n). Rank 0 is the most popular.
  [[nodiscard]] std::uint32_t sample(Xoshiro256& rng) const;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(cdf_.size());
  }

  /// Probability mass of rank r.
  [[nodiscard]] double pmf(std::uint32_t rank) const;

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
};

/// Discrete sampler over arbitrary non-negative weights (normalized
/// internally). Used to pick which file set an arrival belongs to.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  [[nodiscard]] std::uint32_t sample(Xoshiro256& rng) const;

  [[nodiscard]] double total_weight() const noexcept { return total_; }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace anufs::sim
