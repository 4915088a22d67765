#include "cluster/cluster_sim.h"

#include <algorithm>
#include <span>
#include <string>

#include "obs/trace.h"
#include "sim/distributions.h"

namespace anufs::cluster {

namespace {

std::string server_label(ServerId id) {
  return "server" + std::to_string(id.value);
}

const char* reason_name(ClusterSim::MoveReason reason) {
  switch (reason) {
    case ClusterSim::MoveReason::kRebalance:
      return "rebalance";
    case ClusterSim::MoveReason::kRecovery:
      return "recovery";
    case ClusterSim::MoveReason::kMembership:
      return "membership";
  }
  return "unknown";
}

}  // namespace

ClusterSim::ClusterSim(ClusterConfig config,
                       const workload::Workload& workload,
                       policy::PlacementPolicy& policy)
    : config_(std::move(config)),
      workload_(workload),
      policy_(policy),
      movement_(config_.movement, config_.seed),
      san_(sched_),
      san_rng_(sim::make_stream(config_.seed, "san")),
      unavailable_until_(workload_.file_sets.size(), sim::kTimeZero),
      held_(workload_.file_sets.size()),
      stale_(workload_.file_sets.size(), StaleRoute{kInvalidServer, 0.0}),
      collector_(config_.net.collection),
      net_rng_(sim::make_stream(config_.seed, "net")) {
  ANUFS_EXPECTS(!config_.server_speeds.empty());
  ANUFS_EXPECTS(config_.reconfig_period > 0.0);
  std::vector<ServerId> initial;
  for (std::uint32_t i = 0; i < config_.server_speeds.size(); ++i) {
    const ServerId id{i};
    install_node(id, config_.server_speeds[i]);
    initial.push_back(id);
  }
  policy_.initialize(workload_.file_sets, initial);
}

void ClusterSim::install_node(ServerId id, double speed) {
  const std::size_t idx = id.value;
  if (idx >= nodes_.size()) nodes_.resize(idx + 1);
  ANUFS_EXPECTS(nodes_[idx] == nullptr);
  auto node_ptr = std::make_unique<ServerNode>(sched_, id, speed);
  if (config_.record_latency_samples) node_ptr->enable_sample_recording();
  if (config_.san.enabled) {
    node_ptr->set_completion_hook(
        [this](FileSetId, const sim::JobCompletion& c) {
          const double transfer = sim::sample_exponential(
              san_rng_, 1.0 / config_.san.mean_transfer);
          san_.on_metadata_done(c.latency(), transfer);
        });
  }
  nodes_[idx] = std::move(node_ptr);
}

ServerNode& ClusterSim::node(ServerId id) {
  ANUFS_EXPECTS(id.value < nodes_.size() && nodes_[id.value] != nullptr);
  return *nodes_[id.value];
}

void ClusterSim::schedule_failure(sim::SimTime t, ServerId id) {
  sched_.schedule_at(t, [this, id] {
    const std::size_t lost = node(id).crash();
    ANUFS_TRACE(obs::Category::kFault, "crash", {"server", id.value},
                {"lost", lost},
                {"silent", config_.detector.enabled ? 1 : 0});
    result_.lost += lost;
    if (config_.san.enabled) {
      for (std::size_t i = 0; i < lost; ++i) san_.on_metadata_lost();
    }
    if (backing_ != nullptr) {
      // Every file set the victim served loses its volatile journal
      // tail at this instant; recovery happens when a new owner
      // acquires it.
      for (const workload::FileSetSpec& fs : workload_.file_sets) {
        if (policy_.owner(fs.id) == id) backing_->on_owner_crashed(fs.id);
      }
    }
    if (config_.detector.enabled) {
      // Silent crash: the cluster learns of it only through heartbeat
      // silence; meanwhile its file sets are unreachable.
      undetected_.emplace(id, sched_.now());
    } else {
      apply_moves(policy_.on_server_failed(id), MoveReason::kRecovery);
    }
  });
}

void ClusterSim::detector_sweep() {
  const sim::SimTime now = sched_.now();
  for (auto it = undetected_.begin(); it != undetected_.end();) {
    if (now - it->second >= config_.detector.timeout) {
      ANUFS_TRACE(obs::Category::kFault, "failure_declared",
                  {"server", it->first.value},
                  {"silent_for", now - it->second});
      apply_moves(policy_.on_server_failed(it->first),
                  MoveReason::kRecovery);
      it = undetected_.erase(it);
    } else {
      ++it;
    }
  }
  sched_.schedule_in(config_.detector.sweep_interval,
                     [this] { detector_sweep(); });
}

void ClusterSim::schedule_recovery(sim::SimTime t, ServerId id) {
  sched_.schedule_at(t, [this, id] {
    // A server cannot be re-commissioned before its failure was even
    // declared (it would still be a member).
    ANUFS_EXPECTS(!undetected_.contains(id));
    node(id).recover();
    ANUFS_TRACE(obs::Category::kFault, "recover", {"server", id.value});
    apply_moves(policy_.on_server_added(id), MoveReason::kMembership);
  });
}

void ClusterSim::schedule_addition(sim::SimTime t, ServerId id,
                                   double speed) {
  sched_.schedule_at(t, [this, id, speed] {
    install_node(id, speed);
    ANUFS_TRACE(obs::Category::kFault, "add", {"server", id.value},
                {"speed", speed});
    apply_moves(policy_.on_server_added(id), MoveReason::kMembership);
  });
}

void ClusterSim::arrive(std::size_t index) {
  const workload::RequestEvent& r = workload_.requests[index];
  // The issuing client blocks on metadata from this instant.
  if (config_.san.enabled) san_.on_metadata_issued();
  if (config_.routing.model_staleness && forward_if_stale(index)) return;
  deliver(r.file_set, r.demand, r.time, index);
}

bool ClusterSim::forward_if_stale(std::size_t index) {
  // A client whose mapping predates the last reconfiguration sends to
  // the previous owner, which re-hashes the name and forwards after the
  // forwarding work clears its queue.
  const workload::RequestEvent& r = workload_.requests[index];
  StaleRoute& stale = stale_[r.file_set.value];
  if (stale.from == kInvalidServer) return false;
  if (sched_.now() >= stale.until) {
    stale.from = kInvalidServer;  // mapping has propagated
    return false;
  }
  if (!node(stale.from).alive()) return false;
  ++result_.forwarded;
  // The request is now "between servers": if the forwarder crashes while
  // it queues, or the hop lands past the horizon, the ledger still
  // accounts for it (in_transit_at_end).
  ++in_transit_;
  const FileSetId fs = r.file_set;
  const double demand = r.demand;
  const sim::SimTime arrival = r.time;
  node(stale.from)
      .stall_then(config_.routing.forward_demand,
                  [this, fs, demand, arrival, index] {
                    sched_.schedule_in(config_.routing.forward_hop,
                                       [this, fs, demand, arrival, index] {
                                         --in_transit_;
                                         deliver(fs, demand, arrival, index);
                                       });
                  });
  return true;
}

void ClusterSim::deliver(FileSetId fs, double demand,
                         sim::SimTime original_arrival,
                         std::size_t op_index) {
  // Requests for a file set in flight between servers are held and
  // replayed when the move completes.
  if (sched_.now() < unavailable_until_[fs.value]) {
    hold(fs, demand, original_arrival, op_index);
  } else {
    route(fs, demand, original_arrival, op_index);
  }
}

void ClusterSim::hold(FileSetId fs, double demand,
                      sim::SimTime original_arrival, std::size_t op_index) {
  held_[fs.value].push_back(HeldRequest{original_arrival, demand, op_index});
  ++held_count_;
}

void ClusterSim::route(FileSetId fs, double demand,
                       sim::SimTime original_arrival,
                       std::size_t op_index) {
  ServerNode& owner = node(policy_.owner(fs));
  if (!owner.alive()) {
    // The owner crashed but the failure has not been declared yet: the
    // client's request times out and is lost.
    ANUFS_ENSURES(config_.detector.enabled);
    ++result_.lost;
    if (config_.san.enabled) san_.on_metadata_lost();
    return;
  }
  if (backing_ != nullptr) {
    submit_executing(owner, fs, original_arrival, op_index);
    return;
  }
  // Cold-cache penalty is consumed per actually-served request.
  const double effective = demand * movement_.demand_multiplier(fs);
  owner.submit(fs, effective, original_arrival);
}

void ClusterSim::submit_executing(ServerNode& owner, FileSetId fs,
                                  sim::SimTime original_arrival,
                                  std::size_t op_index) {
  // The demand is whatever the typed operation costs when it reaches the
  // head of the queue (cold cache still applies, consumed once per
  // served request).
  owner.submit_deferred(
      fs,
      [this, fs, op_index] {
        return backing_->execute_op(op_index) *
               movement_.demand_multiplier(fs);
      },
      original_arrival);
}

void ClusterSim::drain_held(FileSetId fs) {
  if (sched_.now() < unavailable_until_[fs.value]) {
    return;  // a later move superseded
  }
  std::vector<HeldRequest> pending;
  pending.swap(held_[fs.value]);
  if (pending.empty()) return;
  held_count_ -= pending.size();
  for (const HeldRequest& h : pending) {
    route(fs, h.demand, h.time, h.op_index);
  }
}

void ClusterSim::apply_moves(const std::vector<policy::Move>& moves,
                             MoveReason reason) {
  const bool crash_induced = reason == MoveReason::kRecovery;
  result_.moves += moves.size();
  result_.moves_timeline.emplace_back(sched_.now(), moves.size());
  if (crash_induced) result_.crash_moves += moves.size();
  if (config_.routing.model_staleness) {
    const sim::SimTime until =
        sched_.now() + config_.routing.distribution_delay;
    for (const policy::Move& m : moves) {
      stale_[m.file_set.value] = {m.from, until};
    }
  }
  if (!movement_.config().enabled) {
    for (const policy::Move& m : moves) {
      ANUFS_TRACE(obs::Category::kMove, "fileset_move",
                  {"fs", m.file_set.value}, {"from", m.from.value},
                  {"to", m.to.value}, {"reason", reason_name(reason)});
    }
    // Cost-free moves still require the backing's state transitions
    // (flush + recovery), or crashed file sets would never recover.
    if (backing_ != nullptr) {
      for (const policy::Move& m : moves) {
        if (!crash_induced && node(m.from).alive()) {
          (void)backing_->flush_cost(m.file_set);
        }
        (void)backing_->acquire_cost(m.file_set);
      }
    }
    if (crash_induced && !moves.empty()) {
      // Instant moves: the victim's sets are re-owned the moment the
      // failure is declared.
      result_.recoveries.push_back(
          RecoveryEpisode{sched_.now(), sched_.now(), moves.size()});
    }
    return;
  }
  sim::SimTime last_ready = sched_.now();
  for (const policy::Move& m : moves) {
    ANUFS_TRACE(obs::Category::kMove, "fileset_move",
                {"fs", m.file_set.value}, {"from", m.from.value},
                {"to", m.to.value}, {"reason", reason_name(reason)});
    movement_.on_move(m.file_set);
    double transit = movement_.sample_init();
    // Flaky-transfer injection: each failed attempt wastes a backoff
    // plus a fresh init before the set comes up at the new owner.
    const std::uint32_t failures = movement_.sample_move_failures();
    if (failures > 0) {
      result_.move_failures += failures;
      for (std::uint32_t attempt = 0; attempt < failures; ++attempt) {
        transit += movement_.fault_backoff() + movement_.sample_init();
      }
    }
    if (!crash_induced) {
      transit += movement_.sample_flush();
      // The shedding server spends a little CPU driving the flush.
      if (node(m.from).alive()) {
        double shed_stall = movement_.config().shed_cpu_stall;
        if (backing_ != nullptr) {
          shed_stall += backing_->flush_cost(m.file_set);
        }
        node(m.from).stall(shed_stall);
      }
    }
    double acquire_stall = movement_.config().acquire_cpu_stall;
    if (backing_ != nullptr) {
      acquire_stall += backing_->acquire_cost(m.file_set);
    }
    // The acquirer may be silently dead (crashed but not yet declared by
    // the detector): membership still lists it, so a concurrent
    // recovery/addition can pick it as a target. No CPU to stall then —
    // its requests are lost until the failure is declared and the set is
    // re-homed again.
    if (node(m.to).alive()) node(m.to).stall(acquire_stall);
    const sim::SimTime ready = sched_.now() + transit;
    last_ready = std::max(last_ready, ready);
    sim::SimTime& until = unavailable_until_[m.file_set.value];
    until = std::max(until, ready);
    sched_.schedule_at(ready,
                       [this, fs = m.file_set] { drain_held(fs); });
  }
  if (crash_induced && !moves.empty()) {
    result_.recoveries.push_back(
        RecoveryEpisode{sched_.now(), last_ready, moves.size()});
  }
}

void ClusterSim::reconfigure() {
  const sim::SimTime now = sched_.now();
  // A crashed server cannot report: the delegate notices the missing
  // report, which is itself failure detection — declare before tuning.
  for (auto it = undetected_.begin(); it != undetected_.end();) {
    ANUFS_TRACE(obs::Category::kFault, "failure_declared",
                {"server", it->first.value},
                {"silent_for", now - it->second});
    apply_moves(policy_.on_server_failed(it->first), MoveReason::kRecovery);
    it = undetected_.erase(it);
  }
  std::vector<core::ServerReport> reports;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    const ServerId id{i};
    ServerNode& n = *nodes_[i];
    if (!n.alive()) {
      result_.latency_ms.at(server_label(id)).append(now, 0.0);
      continue;
    }
    const sim::IntervalSnapshot snap = n.harvest();
    reports.push_back(core::ServerReport{id, snap.mean, snap.count});
    result_.latency_ms.at(server_label(id)).append(now, snap.mean * 1e3);
  }

  if (config_.net.report_loss > 0.0 && !reports.empty()) {
    // Each report reaches the delegate independently; silence
    // accumulates toward expulsion (fencing).
    std::vector<core::ServerReport> arrived;
    for (const core::ServerReport& r : reports) {
      if (net_rng_.next_double() < config_.net.report_loss) {
        ++result_.reports_lost;
      } else {
        arrived.push_back(r);
      }
    }
    const core::ReportCollector::RoundOutcome outcome =
        collector_.close_round(policy_.servers(), arrived);
    for (const ServerId suspect : outcome.suspects) {
      // Never expel the last member: someone must keep serving (the
      // quorum rule every membership service ends at).
      if (policy_.servers().size() <= 1) break;
      // Expelling a live member fences it: its queue is discarded and
      // it stops serving (it may be re-commissioned later).
      if (node(suspect).alive()) {
        ++result_.fenced;
        result_.lost += node(suspect).crash();
        if (backing_ != nullptr) {
          for (const workload::FileSetSpec& fs : workload_.file_sets) {
            if (policy_.owner(fs.id) == suspect) {
              backing_->on_owner_crashed(fs.id);
            }
          }
        }
      }
      ANUFS_TRACE(obs::Category::kFault, "fenced",
                  {"server", suspect.value});
      apply_moves(policy_.on_server_failed(suspect), MoveReason::kRecovery);
      collector_.forget(suspect);
    }
    // The tuner needs one report per remaining member: servers whose
    // report was lost this round are passed as "no data" (zero
    // requests), which every averaging mode ignores and top-off never
    // grows explicitly.
    std::vector<core::ServerReport> padded;
    for (const ServerId id : policy_.servers()) {
      const auto it = std::find_if(
          arrived.begin(), arrived.end(),
          [id](const core::ServerReport& r) { return r.id == id; });
      padded.push_back(it != arrived.end()
                           ? *it
                           : core::ServerReport{id, 0.0, 0});
    }
    if (!padded.empty()) {
      apply_moves(policy_.rebalance(now, padded), MoveReason::kRebalance);
    }
  } else if (!reports.empty()) {
    apply_moves(policy_.rebalance(now, reports), MoveReason::kRebalance);
  }
  const sim::SimTime next = now + config_.reconfig_period;
  if (next <= workload_.duration) {
    sched_.schedule_at(next, [this] { reconfigure(); });
  }
}

RunResult ClusterSim::run() {
  ANUFS_EXPECTS(!ran_);
  ran_ = true;
  result_.total_requests = workload_.requests.size();
  // Pre-create series for the initial servers so labels exist even if a
  // server never completes a request — and pre-size everything the
  // steady-state loop appends to, so the hot path never reallocates.
  const auto expected_points = static_cast<std::size_t>(
      workload_.duration / config_.reconfig_period + 1.0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    result_.latency_ms.at(server_label(ServerId{i})).reserve(expected_points);
  }
  sched_.reserve(256);
  // Arrival 0 takes its sequence number here, after the membership and
  // fault events installed before run() and before the first
  // reconfiguration and detector sweep.
  sched_.merge_arrivals(
      std::span<const workload::RequestEvent>(workload_.requests),
      &workload::RequestEvent::time, [this](std::size_t i) { arrive(i); });
  if (config_.reconfig_period <= workload_.duration) {
    sched_.schedule_at(config_.reconfig_period, [this] { reconfigure(); });
  }
  if (config_.detector.enabled) {
    sched_.schedule_in(config_.detector.sweep_interval,
                       [this] { detector_sweep(); });
  }
  sched_.run_until(workload_.duration);

  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr) continue;
    const ServerNode& n = *nodes_[i];
    result_.completed += n.completed();
    result_.mean_latency += n.latency_sum();
    result_.server_completed[i] = n.completed();
    result_.server_busy[i] = n.busy_time();
    result_.queued_at_end += n.in_flight();
    if (config_.record_latency_samples) {
      result_.latency_samples[i] = n.latency_samples();
    }
  }
  // Close the conservation ledger: every request the workload issued is
  // completed, lost, queued, held behind a move, or mid-forward. The
  // fault property tests assert this sum for every random plan.
  // held_count_ is maintained incrementally (deliver/drain_held), so
  // the ledger never walks every set's queue.
  result_.held_at_end += held_count_;
  result_.in_transit_at_end = in_transit_;
  result_.mean_latency = result_.completed == 0
                             ? 0.0
                             : result_.mean_latency /
                                   static_cast<double>(result_.completed);
  if (config_.san.enabled) {
    san_.advance();
    result_.san_busy = san_.busy_time();
    result_.san_wasted_idle = san_.wasted_idle();
    result_.san_mean_end_to_end = san_.mean_end_to_end();
  }
  result_.engine = sched_.stats();
  return std::move(result_);
}

}  // namespace anufs::cluster
