// Order-sensitive digest of a run's modelled outputs, for pinning a
// simulation byte for byte in the pattern of request_digest.h: every
// count, time and latency bit, in a fixed order. Engine counters other
// than `fired` are left out: they describe the calendar's bookkeeping,
// not the modelled run.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "cluster/cluster_sim.h"
#include "hash/mix64.h"

namespace anufs::cluster {

inline std::uint64_t run_digest(const RunResult& r) {
  std::uint64_t h = r.total_requests;
  const auto fold = [&h](std::uint64_t v) { h = hash::mix64(h ^ v); };
  const auto fold_time = [&fold](double v) {
    fold(std::bit_cast<std::uint64_t>(v));
  };
  fold(r.completed);
  fold(r.lost);
  fold(r.moves);
  fold(r.crash_moves);
  fold(r.forwarded);
  fold(r.queued_at_end);
  fold(r.held_at_end);
  fold(r.in_transit_at_end);
  fold(r.engine.fired);
  fold_time(r.mean_latency);
  fold_time(r.san_busy);
  fold_time(r.san_mean_end_to_end);
  for (const auto& [t, n] : r.moves_timeline) {
    fold_time(t);
    fold(n);
  }
  for (const RecoveryEpisode& e : r.recoveries) {
    fold_time(e.declared_at);
    fold_time(e.completed_at);
    fold(e.moves);
  }
  for (const auto& [id, n] : r.server_completed) {
    fold(id);
    fold(n);
  }
  for (const auto& [id, busy] : r.server_busy) {
    fold(id);
    fold_time(busy);
  }
  for (const std::string& label : r.latency_ms.labels()) {
    for (const auto& [t, v] : r.latency_ms.at(label).points()) {
      fold_time(t);
      fold_time(v);
    }
  }
  for (const auto& [id, samples] : r.latency_samples) {
    fold(id);
    for (const double lat : samples) fold_time(lat);
  }
  return h;
}

}  // namespace anufs::cluster
