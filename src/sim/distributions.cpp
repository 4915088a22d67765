#include "sim/distributions.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/exponential.h"

namespace anufs::sim {

double sample_exponential(Xoshiro256& rng, double rate) {
  ANUFS_EXPECTS(rate > 0.0);
  return unit_exponential(rng) / rate;
}

double sample_uniform(Xoshiro256& rng, double lo, double hi) {
  ANUFS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * rng.next_double();
}

double sample_log_uniform(Xoshiro256& rng, double lo_exp, double hi_exp) {
  return std::pow(10.0, sample_uniform(rng, lo_exp, hi_exp));
}

double sample_bounded_pareto(Xoshiro256& rng, double alpha, double lo,
                             double hi) {
  ANUFS_EXPECTS(alpha > 0.0 && lo > 0.0 && hi > lo);
  const double u = rng.next_double();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

ZipfSampler::ZipfSampler(std::uint32_t n, double exponent) {
  ANUFS_EXPECTS(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

std::uint32_t ZipfSampler::sample(Xoshiro256& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::uint32_t rank) const {
  ANUFS_EXPECTS(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

WeightedSampler::WeightedSampler(const std::vector<double>& weights) {
  ANUFS_EXPECTS(!weights.empty());
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (const double w : weights) {
    ANUFS_EXPECTS(w >= 0.0);
    acc += w;
    cdf_.push_back(acc);
  }
  total_ = acc;
  ANUFS_EXPECTS(total_ > 0.0);
}

std::uint32_t WeightedSampler::sample(Xoshiro256& rng) const {
  const double u = rng.next_double() * total_;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::uint32_t>(it - cdf_.begin());
  return std::min(idx, static_cast<std::uint32_t>(cdf_.size() - 1));
}

}  // namespace anufs::sim
