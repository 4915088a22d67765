#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/line_reader.h"
#include "sim/random.h"

namespace anufs::fault {

namespace {

constexpr const char* kPrefix = "anufs-fault-plan";

}  // namespace

void parse_fault_directive(LineReader& in, FaultPlan& plan) {
  const std::string key = in.word("fault directive");
  if (key == "crash") {
    CrashEvent e;
    e.time = in.take<double>("time");
    e.server = in.take<std::uint32_t>("server");
    plan.crashes.push_back(e);
  } else if (key == "recover") {
    RecoverEvent e;
    e.time = in.take<double>("time");
    e.server = in.take<std::uint32_t>("server");
    plan.recoveries.push_back(e);
  } else if (key == "add") {
    AddEvent e;
    e.time = in.take<double>("time");
    e.server = in.take<std::uint32_t>("server");
    e.speed = in.take<double>("speed");
    plan.additions.push_back(e);
  } else if (key == "limp") {
    LimpWindow w;
    w.begin = in.take<double>("begin");
    w.end = in.take<double>("end");
    w.server = in.take<std::uint32_t>("server");
    w.factor = in.take<double>("factor");
    plan.limps.push_back(w);
  } else if (key == "san_slow") {
    SanSlowWindow w;
    w.begin = in.take<double>("begin");
    w.end = in.take<double>("end");
    w.factor = in.take<double>("factor");
    plan.san_slowdowns.push_back(w);
  } else if (key == "move_flaky") {
    MoveFlakyWindow w;
    w.begin = in.take<double>("begin");
    w.end = in.take<double>("end");
    w.probability = in.take<double>("probability");
    w.max_retries = in.take<std::uint32_t>("max_retries");
    w.backoff = in.take<double>("backoff");
    plan.flaky_moves.push_back(w);
  } else {
    in.fail("unknown directive '" + key + "'");
  }
  in.expect_end();
}

FaultPlan parse_fault_plan(std::istream& is, const std::string& source_name) {
  FaultPlan plan;
  LineReader in(is, source_name, kPrefix);
  while (in.next()) parse_fault_directive(in, plan);
  return plan;
}

FaultPlan parse_fault_plan_text(const std::string& text) {
  std::istringstream is(text);
  return parse_fault_plan(is, "<inline>");
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) LineReader(file, path, kPrefix).fail("cannot open");
  return parse_fault_plan(file, path);
}

std::string to_text(const FaultPlan& plan) {
  // Emit each group sorted by time so the output is canonical: parsing
  // it back yields a plan with identical semantics.
  const auto by_time = [](const auto& a, const auto& b) {
    return a.time < b.time;
  };
  const auto by_begin = [](const auto& a, const auto& b) {
    return a.begin < b.begin;
  };
  FaultPlan p = plan;
  std::stable_sort(p.crashes.begin(), p.crashes.end(), by_time);
  std::stable_sort(p.recoveries.begin(), p.recoveries.end(), by_time);
  std::stable_sort(p.additions.begin(), p.additions.end(), by_time);
  std::stable_sort(p.limps.begin(), p.limps.end(), by_begin);
  std::stable_sort(p.san_slowdowns.begin(), p.san_slowdowns.end(), by_begin);
  std::stable_sort(p.flaky_moves.begin(), p.flaky_moves.end(), by_begin);

  std::ostringstream os;
  for (const CrashEvent& e : p.crashes) {
    os << "crash " << e.time << " " << e.server << "\n";
  }
  for (const RecoverEvent& e : p.recoveries) {
    os << "recover " << e.time << " " << e.server << "\n";
  }
  for (const AddEvent& e : p.additions) {
    os << "add " << e.time << " " << e.server << " " << e.speed << "\n";
  }
  for (const LimpWindow& w : p.limps) {
    os << "limp " << w.begin << " " << w.end << " " << w.server << " "
       << w.factor << "\n";
  }
  for (const SanSlowWindow& w : p.san_slowdowns) {
    os << "san_slow " << w.begin << " " << w.end << " " << w.factor << "\n";
  }
  for (const MoveFlakyWindow& w : p.flaky_moves) {
    os << "move_flaky " << w.begin << " " << w.end << " " << w.probability
       << " " << w.max_retries << " " << w.backoff << "\n";
  }
  return os.str();
}

namespace {

/// One membership transition on the validation timeline. Same-instant
/// ties process recover/add before crash — the order the injector
/// installs them — so "recover 100 2" + "crash 100 2" is legal and
/// means "bounced at t=100".
struct Transition {
  double time = 0.0;
  enum class Kind { kRecover = 0, kAdd = 1, kCrash = 2 } kind = Kind::kCrash;
  std::uint32_t server = 0;
  double speed = 1.0;
};

std::vector<Transition> membership_timeline(const FaultPlan& plan) {
  std::vector<Transition> timeline;
  for (const RecoverEvent& e : plan.recoveries) {
    timeline.push_back({e.time, Transition::Kind::kRecover, e.server, 1.0});
  }
  for (const AddEvent& e : plan.additions) {
    timeline.push_back({e.time, Transition::Kind::kAdd, e.server, e.speed});
  }
  for (const CrashEvent& e : plan.crashes) {
    timeline.push_back({e.time, Transition::Kind::kCrash, e.server, 1.0});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return timeline;
}

template <typename Window>
void check_windows(std::vector<Window> windows, const char* what,
                   std::vector<std::string>& problems) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.begin < b.begin;
                   });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (!(windows[i].begin >= 0.0 && windows[i].begin < windows[i].end)) {
      problems.push_back(std::string(what) + " window [" +
                         std::to_string(windows[i].begin) + ", " +
                         std::to_string(windows[i].end) +
                         ") is not a forward interval");
    }
    if (i > 0 && windows[i].begin < windows[i - 1].end) {
      problems.push_back(std::string(what) + " windows overlap at t=" +
                         std::to_string(windows[i].begin));
    }
  }
}

}  // namespace

std::vector<std::string> validate(const FaultPlan& plan,
                                  std::uint32_t n_initial_servers,
                                  std::uint32_t min_alive) {
  std::vector<std::string> problems;
  const auto note = [&problems](std::string p) {
    problems.push_back(std::move(p));
  };

  std::set<std::uint32_t> alive;
  std::set<std::uint32_t> known;
  // Commission time per server: initial servers exist from t=0; added
  // servers only from their add time (limp windows must not start
  // before the server exists).
  std::map<std::uint32_t, double> commissioned_at;
  for (std::uint32_t i = 0; i < n_initial_servers; ++i) {
    alive.insert(i);
    known.insert(i);
    commissioned_at[i] = 0.0;
  }

  for (const Transition& t : membership_timeline(plan)) {
    switch (t.kind) {
      case Transition::Kind::kCrash:
        if (t.time < 0.0) note("crash at negative time");
        if (!known.contains(t.server)) {
          note("crash of unknown server " + std::to_string(t.server));
        } else if (!alive.contains(t.server)) {
          note("crash of already-crashed server " + std::to_string(t.server) +
               " at t=" + std::to_string(t.time));
        } else if (alive.size() <= min_alive) {
          note("crash at t=" + std::to_string(t.time) + " would leave " +
               std::to_string(alive.size() - 1) + " alive servers (< " +
               std::to_string(min_alive) + " required)");
        } else {
          alive.erase(t.server);
        }
        break;
      case Transition::Kind::kRecover:
        if (!known.contains(t.server)) {
          note("recovery of unknown server " + std::to_string(t.server));
        } else if (alive.contains(t.server)) {
          note("recovery of alive server " + std::to_string(t.server) +
               " at t=" + std::to_string(t.time));
        } else {
          alive.insert(t.server);
        }
        break;
      case Transition::Kind::kAdd:
        if (known.contains(t.server)) {
          note("addition reuses existing server id " +
               std::to_string(t.server) + " (use recover instead)");
        } else {
          known.insert(t.server);
          alive.insert(t.server);
          commissioned_at[t.server] = t.time;
        }
        if (t.speed <= 0.0) note("added server with non-positive speed");
        break;
    }
  }

  // Limp windows: per-server, ordered, on servers that exist by then.
  std::map<std::uint32_t, std::vector<LimpWindow>> limps_by_server;
  for (const LimpWindow& w : plan.limps) {
    if (w.factor <= 0.0) {
      note("limp factor must be > 0, got " + std::to_string(w.factor));
    }
    if (!known.contains(w.server)) {
      note("limp window on unknown server " + std::to_string(w.server));
    } else if (w.begin < commissioned_at[w.server]) {
      note("limp window on server " + std::to_string(w.server) +
           " begins before the server is commissioned");
    }
    limps_by_server[w.server].push_back(w);
  }
  for (auto& [server, windows] : limps_by_server) {
    check_windows(std::move(windows),
                  ("limp(server " + std::to_string(server) + ")").c_str(),
                  problems);
  }

  for (const SanSlowWindow& w : plan.san_slowdowns) {
    if (w.factor <= 0.0) {
      note("san_slow factor must be > 0, got " + std::to_string(w.factor));
    }
  }
  check_windows(plan.san_slowdowns, "san_slow", problems);

  for (const MoveFlakyWindow& w : plan.flaky_moves) {
    if (w.probability < 0.0 || w.probability > 1.0) {
      note("move_flaky probability must be in [0, 1], got " +
           std::to_string(w.probability));
    }
    if (w.backoff < 0.0) note("move_flaky backoff must be >= 0");
  }
  check_windows(plan.flaky_moves, "move_flaky", problems);

  return problems;
}

void validate_or_die(const FaultPlan& plan, std::uint32_t n_initial_servers,
                     std::uint32_t min_alive) {
  const std::vector<std::string> problems =
      validate(plan, n_initial_servers, min_alive);
  if (problems.empty()) return;
  std::fprintf(stderr, "anufs-fault-plan: invalid plan:\n");
  for (const std::string& p : problems) {
    std::fprintf(stderr, "  - %s\n", p.c_str());
  }
  std::abort();
}

FaultPlan make_random_plan(const RandomPlanConfig& config,
                           std::uint64_t seed) {
  ANUFS_EXPECTS(config.duration > 0.0 && config.n_servers >= 1);
  ANUFS_EXPECTS(config.min_alive >= 1);
  sim::Xoshiro256 rng = sim::make_stream(seed, "fault-plan");
  FaultPlan plan;
  const double d = config.duration;
  const auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.next_double();
  };

  // Crash/recover pairs, simulated over a little timeline so the plan
  // never dips below min_alive and never double-crashes a server.
  std::set<std::uint32_t> alive;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) alive.insert(i);
  std::vector<std::pair<double, std::uint32_t>> pending_recoveries;
  const std::uint64_t n_crashes =
      config.max_crashes == 0 ? 0 : rng.next_below(config.max_crashes + 1);
  std::vector<double> crash_times;
  for (std::uint64_t i = 0; i < n_crashes; ++i) {
    crash_times.push_back(uniform(0.05 * d, 0.7 * d));
  }
  std::sort(crash_times.begin(), crash_times.end());
  for (const double t : crash_times) {
    // Recoveries scheduled before this crash have happened by now.
    for (auto it = pending_recoveries.begin();
         it != pending_recoveries.end();) {
      if (it->first <= t) {
        alive.insert(it->second);
        it = pending_recoveries.erase(it);
      } else {
        ++it;
      }
    }
    if (alive.size() <= config.min_alive) continue;
    const auto victim_it =
        std::next(alive.begin(),
                  static_cast<std::ptrdiff_t>(rng.next_below(alive.size())));
    const std::uint32_t victim = *victim_it;
    alive.erase(victim_it);
    plan.crashes.push_back({t, victim});
    // Most crashed servers come back after the recover gap; some stay
    // dead for the rest of the run.
    const double recover_at = t + config.min_recover_gap + uniform(0.0, d / 4);
    if (rng.next_double() < 0.75 && recover_at < 0.95 * d) {
      plan.recoveries.push_back({recover_at, victim});
      pending_recoveries.emplace_back(recover_at, victim);
    }
  }

  const std::uint64_t n_adds =
      config.max_additions == 0 ? 0 : rng.next_below(config.max_additions + 1);
  for (std::uint64_t i = 0; i < n_adds; ++i) {
    plan.additions.push_back(
        {uniform(0.1 * d, 0.8 * d),
         config.n_servers + static_cast<std::uint32_t>(i),
         uniform(1.0, 9.0)});
  }

  // Limp windows on distinct initial servers (distinctness sidesteps
  // per-server overlap).
  const std::uint64_t n_limps =
      config.max_limps == 0
          ? 0
          : rng.next_below(
                std::min<std::uint64_t>(config.max_limps, config.n_servers) +
                1);
  std::vector<std::uint32_t> limp_pool;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) limp_pool.push_back(i);
  for (std::uint64_t i = 0; i < n_limps; ++i) {
    const std::uint64_t pick = rng.next_below(limp_pool.size());
    const std::uint32_t server = limp_pool[pick];
    limp_pool.erase(limp_pool.begin() + static_cast<std::ptrdiff_t>(pick));
    const double begin = uniform(0.05 * d, 0.75 * d);
    plan.limps.push_back(
        {begin, begin + uniform(0.05 * d, 0.2 * d), server,
         uniform(0.2, 0.9)});
  }

  if (config.max_san_slowdowns > 0 && rng.next_below(2) == 1) {
    const double begin = uniform(0.05 * d, 0.7 * d);
    plan.san_slowdowns.push_back(
        {begin, begin + uniform(0.05 * d, 0.25 * d), uniform(1.5, 4.0)});
  }

  if (config.max_flaky_windows > 0 && rng.next_below(2) == 1) {
    const double begin = uniform(0.0, 0.5 * d);
    plan.flaky_moves.push_back(
        {begin, begin + uniform(0.2 * d, 0.5 * d), uniform(0.2, 0.8),
         1 + static_cast<std::uint32_t>(rng.next_below(4)), uniform(0.5, 3.0)});
  }

  ANUFS_ENSURES(
      validate(plan, config.n_servers, config.min_alive).empty());
  return plan;
}

}  // namespace anufs::fault
