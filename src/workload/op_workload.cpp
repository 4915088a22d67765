#include "workload/op_workload.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <string>

#include "common/check.h"
#include "sim/distributions.h"
#include "sim/random.h"
#include "workload/time_order.h"

namespace anufs::workload {

namespace {

using fsmeta::MetadataOp;
using fsmeta::MetadataService;
using fsmeta::OpKind;
using fsmeta::OpStatus;

/// Per-file-set generation state: the live path pools an op stream
/// samples targets from.
struct SetState {
  std::vector<std::string> dirs{""};  // "" is the file set root
  std::vector<std::string> files;
  // session -> file it currently holds open ("" = none)
  std::vector<std::string> open_file;
  std::uint64_t name_counter = 0;

  std::string fresh_name(const char* prefix) {
    return std::string(prefix) + std::to_string(name_counter++);
  }
};

/// Sample one op for this file set, advancing the state optimistically
/// (the state tracks intent; the service verdict fixes it up).
MetadataOp sample_op(const OpWorkloadConfig& config, SetState& state,
                     sim::Xoshiro256& rng, OpKind kind) {
  MetadataOp op;
  op.kind = kind;
  const auto pick = [&rng](const std::vector<std::string>& pool)
      -> const std::string& {
    return pool[rng.next_below(pool.size())];
  };
  switch (kind) {
    case OpKind::kLookup:
    case OpKind::kStat: {
      // Mostly live targets; sometimes a miss (real traces have them).
      if (!state.files.empty() && rng.next_double() < 0.9) {
        op.path = pick(state.files);
      } else {
        op.path = pick(state.dirs);
        if (!op.path.empty()) op.path += "/";
        op.path += "missing" + std::to_string(rng.next_below(1000));
      }
      break;
    }
    case OpKind::kReaddir:
      op.path = pick(state.dirs);
      break;
    case OpKind::kCreate: {
      const std::string& dir = pick(state.dirs);
      op.path = dir.empty() ? state.fresh_name("f")
                            : dir + "/" + state.fresh_name("f");
      break;
    }
    case OpKind::kMkdir: {
      const std::string& dir = pick(state.dirs);
      op.path = dir.empty() ? state.fresh_name("d")
                            : dir + "/" + state.fresh_name("d");
      break;
    }
    case OpKind::kSetAttr: {
      if (state.files.empty()) {
        op.kind = OpKind::kLookup;
        op.path = "";
        break;
      }
      op.path = pick(state.files);
      op.size = rng.next_below(1 << 20);
      op.mtime = rng();
      break;
    }
    case OpKind::kUnlink: {
      if (state.files.empty()) {
        op.kind = OpKind::kLookup;
        op.path = "";
        break;
      }
      op.path = pick(state.files);
      break;
    }
    case OpKind::kRename: {
      if (state.files.empty()) {
        op.kind = OpKind::kLookup;
        op.path = "";
        break;
      }
      op.path = pick(state.files);
      const std::string& dir = pick(state.dirs);
      op.path2 = dir.empty() ? state.fresh_name("r")
                             : dir + "/" + state.fresh_name("r");
      break;
    }
    case OpKind::kOpen: {
      const std::uint64_t s = rng.next_below(config.sessions_per_set);
      op.session = fsmeta::SessionId{s};
      if (state.files.empty()) {
        op.kind = OpKind::kLookup;
        op.path = "";
        break;
      }
      op.path = pick(state.files);
      op.mode = rng.next_double() < 0.3 ? fsmeta::LockMode::kExclusive
                                        : fsmeta::LockMode::kShared;
      break;
    }
    case OpKind::kClose: {
      const std::uint64_t s = rng.next_below(config.sessions_per_set);
      op.session = fsmeta::SessionId{s};
      if (state.open_file[s].empty()) {
        op.kind = OpKind::kLookup;  // nothing open: degenerate to a read
        op.path = "";
      } else {
        op.path = state.open_file[s];
      }
      break;
    }
  }
  return op;
}

/// Keep the path pools in sync with what actually happened.
void apply_outcome(SetState& state, const MetadataOp& op, OpStatus status) {
  if (status != OpStatus::kOk) return;
  switch (op.kind) {
    case OpKind::kCreate:
      state.files.push_back(op.path);
      break;
    case OpKind::kMkdir:
      state.dirs.push_back(op.path);
      break;
    case OpKind::kUnlink:
      std::erase(state.files, op.path);
      break;
    case OpKind::kRename:
      std::erase(state.files, op.path);
      state.files.push_back(op.path2);
      // A renamed file may be some session's open file: keep the old
      // name there; the eventual close will fail benignly (kNotFound),
      // exactly like a real client holding a stale handle path.
      break;
    case OpKind::kOpen:
      state.open_file[op.session.value] = op.path;
      break;
    case OpKind::kClose:
      state.open_file[op.session.value].clear();
      break;
    default:
      break;
  }
}

}  // namespace

OpWorkloadResult make_op_workload(const OpWorkloadConfig& config) {
  ANUFS_EXPECTS(config.file_sets > 0);
  ANUFS_EXPECTS(config.duration > 0.0);
  ANUFS_EXPECTS(config.sessions_per_set > 0);

  OpWorkloadResult result;
  result.workload.name = "op-mix";
  result.workload.duration = config.duration;

  // Weights and per-set state.
  sim::Xoshiro256 weight_rng = sim::make_stream(config.seed, "ops.weights");
  std::vector<double> weights(config.file_sets);
  double weight_sum = 0.0;
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    weights[i] = sim::sample_log_uniform(weight_rng, config.weight_lo_exp,
                                         config.weight_hi_exp);
    weight_sum += weights[i];
    result.workload.file_sets.push_back(FileSetSpec::make(
        i, "ops/fs" + std::to_string(i), weights[i]));
  }

  const double mix[] = {config.p_lookup, config.p_stat,  config.p_readdir,
                        config.p_open,   config.p_close, config.p_create,
                        config.p_setattr, config.p_unlink, config.p_rename};
  const OpKind kinds[] = {OpKind::kLookup, OpKind::kStat, OpKind::kReaddir,
                          OpKind::kOpen,   OpKind::kClose, OpKind::kCreate,
                          OpKind::kSetAttr, OpKind::kUnlink, OpKind::kRename};
  const sim::WeightedSampler mix_sampler(
      std::vector<double>(std::begin(mix), std::end(mix)));

  struct TimedOp {
    double time;
    FileSetId fs;
    MetadataOp op;
  };
  std::vector<TimedOp> stream;

  const double total_rate =
      static_cast<double>(config.total_ops) / config.duration;

  result.services.reserve(config.file_sets);
  std::vector<SetState> states(config.file_sets);
  for (std::uint32_t i = 0; i < config.file_sets; ++i) {
    auto service = std::make_unique<MetadataService>(config.cost);
    SetState& state = states[i];
    state.open_file.assign(config.sessions_per_set, "");
    sim::Xoshiro256 rng = sim::make_stream(config.seed, "ops.set", i);

    // Populate the initial tree (not part of the request stream: this
    // is the pre-existing disk image).
    for (std::uint32_t d = 0; d < config.initial_dirs; ++d) {
      const std::string& parent = state.dirs[rng.next_below(
          state.dirs.size())];
      MetadataOp mk;
      mk.kind = OpKind::kMkdir;
      mk.path = parent.empty() ? state.fresh_name("d")
                               : parent + "/" + state.fresh_name("d");
      if (service->execute(mk).status == OpStatus::kOk) {
        state.dirs.push_back(mk.path);
      }
    }
    for (std::uint32_t f = 0; f < config.initial_files; ++f) {
      const std::string& parent = state.dirs[rng.next_below(
          state.dirs.size())];
      MetadataOp mk;
      mk.kind = OpKind::kCreate;
      mk.path = parent.empty() ? state.fresh_name("f")
                               : parent + "/" + state.fresh_name("f");
      if (service->execute(mk).status == OpStatus::kOk) {
        state.files.push_back(mk.path);
      }
    }

    // Snapshot the initial tree: the pre-existing disk image the
    // executing-server mode bootstraps from.
    {
      std::ostringstream image;
      service->tree().serialize(image);
      result.initial_images.push_back(image.str());
    }

    // Generate this set's Poisson-timed op stream (ops are sampled now
    // but executed later in global time order, so cross-set state is
    // consistent; per-set state only depends on this set's ops, which
    // ARE in order).
    const double rate = total_rate * (weights[i] / weight_sum);
    double t = sim::sample_exponential(rng, rate);
    while (t <= config.duration) {
      const OpKind kind = kinds[mix_sampler.sample(rng)];
      stream.push_back(TimedOp{t, FileSetId{i},
                               sample_op(config, states[i], rng, kind)});
      // Optimistic pool update happens after execution; but sampling
      // the NEXT op needs the pool now. Execute immediately: per-set
      // order equals time order within a set, which is all that
      // matters for correctness.
      const fsmeta::OpResult r = service->execute(stream.back().op);
      apply_outcome(states[i], stream.back().op, r.status);
      if (r.status == OpStatus::kOk) {
        ++result.ok;
      } else {
        ++result.failed;
        if (r.status == OpStatus::kLockConflict) ++result.lock_conflicts;
      }
      result.workload.requests.push_back(
          RequestEvent{t, FileSetId{i}, r.demand});
      result.kinds.push_back(stream.back().op.kind);
      t += sim::sample_exponential(rng, rate);
    }
    result.services.push_back(std::move(service));
  }

  // Sort requests (and kinds) into global time order.
  std::vector<std::size_t> order(result.workload.requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  order_by_time(std::span(order), config.duration, [&](std::size_t i) {
    return result.workload.requests[i].time;
  });
  std::vector<RequestEvent> sorted_requests;
  std::vector<fsmeta::OpKind> sorted_kinds;
  std::vector<MetadataOp> sorted_ops;
  sorted_requests.reserve(order.size());
  sorted_kinds.reserve(order.size());
  sorted_ops.reserve(order.size());
  for (const std::size_t i : order) {
    sorted_requests.push_back(result.workload.requests[i]);
    sorted_kinds.push_back(result.kinds[i]);
    sorted_ops.push_back(std::move(stream[i].op));
  }
  result.workload.requests = std::move(sorted_requests);
  result.kinds = std::move(sorted_kinds);
  result.ops = std::move(sorted_ops);

  result.workload.validate();
  return result;
}

}  // namespace anufs::workload
