#include "core/tuner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "hash/unit_interval.h"
#include "obs/trace.h"

namespace anufs::core {

namespace {

using hash::kHalfInterval;
using Wide = __int128;

// Add `delta` to `t`, clamping at [floor, kHalfInterval]; returns the
// portion that could not be applied.
Wide add_clamped(Measure& t, Wide delta, Measure floor_share) {
  const Wide lo = static_cast<Wide>(floor_share);
  const Wide hi = static_cast<Wide>(kHalfInterval);
  Wide v = static_cast<Wide>(t) + delta;
  Wide leftover = 0;
  if (v < lo) {
    leftover = v - lo;
    v = lo;
  } else if (v > hi) {
    leftover = v - hi;
    v = hi;
  }
  t = static_cast<Measure>(v);
  return leftover;
}

}  // namespace

LatencyTuner::LatencyTuner(TunerConfig config) : config_(config) {
  ANUFS_EXPECTS(config.threshold >= 0.0);
  ANUFS_EXPECTS(config.max_scale > 1.0);
  ANUFS_EXPECTS(config.min_share > 0);
}

double LatencyTuner::system_average(const std::vector<ServerReport>& reports,
                                    AverageKind kind) {
  if (reports.empty()) return 0.0;
  if (kind == AverageKind::kWeightedMean) {
    double num = 0.0;
    double den = 0.0;
    for (const ServerReport& r : reports) {
      num += r.mean_latency * static_cast<double>(r.requests);
      den += static_cast<double>(r.requests);
    }
    return den == 0.0 ? 0.0 : num / den;
  }
  // Median over the reported latencies. A server that completed no
  // requests has no latency sample — it contributes nothing (the
  // weighted mean excludes it implicitly via its zero weight; the
  // median must exclude it explicitly or idle servers drag the target
  // toward zero and destabilize the tuner).
  std::vector<double> lat;
  lat.reserve(reports.size());
  for (const ServerReport& r : reports) {
    if (r.requests > 0) lat.push_back(r.mean_latency);
  }
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  const std::size_t n = lat.size();
  return (n % 2 == 1) ? lat[n / 2] : 0.5 * (lat[n / 2 - 1] + lat[n / 2]);
}

double LatencyTuner::choose_threshold(
    const std::vector<ServerReport>& reports, double average) const {
  if (!config_.auto_threshold || average <= 0.0) {
    return config_.threshold;
  }
  std::vector<double> deviations;
  deviations.reserve(reports.size());
  for (const ServerReport& r : reports) {
    if (r.requests == 0) continue;  // idle: no latency sample
    deviations.push_back(std::abs(r.mean_latency - average) / average);
  }
  if (deviations.empty()) return config_.threshold;
  std::sort(deviations.begin(), deviations.end());
  const auto rank = static_cast<std::size_t>(
      config_.auto_quantile * static_cast<double>(deviations.size()));
  const double q =
      deviations[std::min(rank, deviations.size() - 1)];
  return std::clamp(q, config_.auto_min, config_.auto_max);
}

const double* LatencyTuner::prev_latency_of(ServerId id) const {
  const auto it = std::lower_bound(prev_ids_.begin(), prev_ids_.end(), id);
  if (it == prev_ids_.end() || *it != id) return nullptr;
  return &prev_lat_[static_cast<std::size_t>(it - prev_ids_.begin())];
}

void LatencyTuner::record_history(const std::vector<ServerReport>& reports) {
  // Common case: the report set covers exactly the ids already in the
  // history map, in some order — update values in place.
  bool in_place = reports.size() == prev_ids_.size();
  if (in_place) {
    for (const ServerReport& r : reports) {
      const auto it =
          std::lower_bound(prev_ids_.begin(), prev_ids_.end(), r.id);
      if (it == prev_ids_.end() || *it != r.id) {
        in_place = false;
        break;
      }
      prev_lat_[static_cast<std::size_t>(it - prev_ids_.begin())] =
          r.mean_latency;
    }
    if (in_place) return;
    // A miss after partial writes is fine: the merge below re-applies
    // every report on top of whatever was written.
  }
  // General case (membership changed): merge sorted reports over the
  // sorted history. Later reports win on duplicate ids, matching the
  // old map's last-write-wins; unreported servers keep their entry.
  std::vector<std::pair<ServerId, double>> batch;
  batch.reserve(reports.size());
  for (const ServerReport& r : reports) batch.emplace_back(r.id, r.mean_latency);
  std::stable_sort(batch.begin(), batch.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<ServerId> ids;
  std::vector<double> lat;
  ids.reserve(prev_ids_.size() + batch.size());
  lat.reserve(prev_ids_.size() + batch.size());
  std::size_t i = 0;  // over prev_ids_
  std::size_t j = 0;  // over batch
  while (i < prev_ids_.size() || j < batch.size()) {
    if (j == batch.size() ||
        (i < prev_ids_.size() && prev_ids_[i] < batch[j].first)) {
      ids.push_back(prev_ids_[i]);
      lat.push_back(prev_lat_[i]);
      ++i;
      continue;
    }
    const ServerId id = batch[j].first;
    double value = batch[j].second;
    while (j < batch.size() && batch[j].first == id) value = batch[j++].second;
    if (i < prev_ids_.size() && prev_ids_[i] == id) ++i;  // superseded
    ids.push_back(id);
    lat.push_back(value);
  }
  prev_ids_ = std::move(ids);
  prev_lat_ = std::move(lat);
}

TuneDecision LatencyTuner::retune(const std::vector<ServerReport>& reports,
                                  const RegionMap& regions) {
  ANUFS_EXPECTS(!reports.empty());
  ANUFS_EXPECTS(regions.total_share() == kHalfInterval);

  TuneDecision decision;
  decision.system_average = system_average(reports, config_.average);
  const double a = decision.system_average;
  const double threshold = choose_threshold(reports, a);
  last_threshold_ = threshold;

  const std::size_t n = reports.size();
  std::vector<Measure> target(n);
  std::vector<bool> scaled(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    const ServerReport& r = reports[i];
    const Measure share = regions.share(r.id);
    target[i] = std::max(share, config_.min_share);
    if (a <= 0.0) continue;  // idle system: nothing to balance

    const double lat = r.mean_latency;
    // Raw corrective factor: inverse-proportional control toward A,
    // clamped so one round moves load by at most max_scale in either
    // direction (idle servers would otherwise request infinite growth).
    double factor = std::clamp(a / std::max(lat, 1e-12 * a),
                               1.0 / config_.max_scale, config_.max_scale);
    bool act = factor != 1.0;

    if (config_.thresholding && lat >= a * (1.0 - threshold) &&
        lat <= a * (1.0 + threshold)) {
      act = false;  // within the tolerated band
    }
    if (config_.top_off && factor > 1.0) {
      act = false;  // growth only ever happens implicitly
    }
    if (config_.divergent && act) {
      if (const double* prev_p = prev_latency_of(r.id)) {
        const double prev = *prev_p;
        const bool diverging =
            (lat > a && lat >= prev) || (lat < a && lat <= prev);
        if (!diverging) act = false;  // already converging: let it settle
      }
      // No history (first round / delegate failover): divergent tuning
      // cannot be evaluated and is skipped, per the paper.
    }

    if (act) {
      const long double raw =
          static_cast<long double>(share) * static_cast<long double>(factor);
      const auto capped = static_cast<Measure>(
          std::min(raw, static_cast<long double>(kHalfInterval)));
      target[i] = std::max(capped, config_.min_share);
      scaled[i] = true;
      decision.explicitly_scaled.push_back(r.id);
      ANUFS_TRACE(obs::Category::kTuner, "scale", {"server", r.id.value},
                  {"factor", factor}, {"latency_ms", lat * 1e3},
                  {"avg_ms", a * 1e3}, {"threshold", threshold});
    }
  }

  // Renormalize so the targets sum to exactly half the unit interval.
  // The paper's rule: when a server sheds, "all other server mapped
  // regions are increased to preserve the half-occupancy invariant" —
  // so the correction is spread over the servers NOT explicitly scaled
  // this round, proportional to their current share; if every server was
  // scaled (or the unscaled ones hold no share), spread over all.
  Wide sum = 0;
  for (const Measure t : target) sum += static_cast<Wide>(t);
  Wide deficit = static_cast<Wide>(kHalfInterval) - sum;

  if (deficit != 0) {
    std::vector<std::size_t> recipients;
    Wide recipient_weight = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!scaled[i]) {
        recipients.push_back(i);
        recipient_weight += static_cast<Wide>(target[i]);
      }
    }
    if (recipients.empty() || recipient_weight == 0) {
      recipients.clear();
      recipient_weight = 0;
      for (std::size_t i = 0; i < n; ++i) {
        recipients.push_back(i);
        recipient_weight += static_cast<Wide>(target[i]);
      }
    }
    if (recipient_weight == 0) {
      // Degenerate: everything at the floor. Spread equally.
      const Wide per = deficit / static_cast<Wide>(recipients.size());
      for (const std::size_t i : recipients) {
        deficit -= per - add_clamped(target[i], per, config_.min_share);
      }
    } else {
      for (const std::size_t i : recipients) {
        const Wide part =
            deficit * static_cast<Wide>(target[i]) / recipient_weight;
        const Wide leftover = add_clamped(target[i], part, config_.min_share);
        sum += part - leftover;
      }
      deficit = static_cast<Wide>(kHalfInterval) - sum;
    }
    // Rounding residue (and any clamped remainder): push onto whichever
    // server can absorb it, largest target first for determinism.
    while (deficit != 0) {
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        const bool can_absorb = deficit > 0
                                    ? target[i] < kHalfInterval
                                    : target[i] > config_.min_share;
        if (can_absorb && (best == n || target[i] > target[best])) best = i;
      }
      ANUFS_ENSURES(best != n);
      deficit = add_clamped(target[best], deficit, config_.min_share);
    }
  }

  decision.targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    decision.targets.emplace_back(reports[i].id, target[i]);
    if (target[i] != regions.share(reports[i].id)) decision.acted = true;
  }

  // Record this interval's latencies for next round's divergent gating.
  record_history(reports);
  return decision;
}

}  // namespace anufs::core
