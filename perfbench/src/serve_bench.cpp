#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>

#include "affinity.h"
#include "bench.h"
#include "serve/snapshot.h"
#include "sim/random.h"

namespace perfbench {

namespace anu = anufs;

namespace {

// Serving windows per run: each builds a fresh LookupService (caches
// start empty, as they do for every user), serves, and is replayed.
// Together they serve for 80% of the run's time.
constexpr std::uint32_t kWindows = 30;

// Timed loops fold their results into this, so the compiler cannot
// drop the work it times.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double window_seconds(const RunOptions& opt) {
  return std::max(0.05, 0.8 * opt.seconds / kWindows);
}

/// Re-applies the writer's recorded op log to a fresh system built like
/// the service's, checking the map generation after every op. The result
/// is the final published configuration.
std::unique_ptr<anu::core::AnuSystem> replay_ops(
    const anu::serve::ServeConfig& config,
    const std::vector<anu::serve::WriterOp>& ops, BenchResult& res) {
  std::vector<anu::ServerId> initial;
  for (std::uint32_t i = 0; i < config.n_servers; ++i) {
    initial.push_back(anu::ServerId{i});
  }
  auto system = std::make_unique<anu::core::AnuSystem>(config.anu, initial);
  for (const anu::serve::WriterOp& op : ops) {
    switch (op.kind) {
      case anu::serve::WriterOp::Kind::kRetune:
        (void)system->reconfigure(op.reports);
        break;
      case anu::serve::WriterOp::Kind::kFail:
        system->fail_server(op.server);
        break;
      case anu::serve::WriterOp::Kind::kAdd:
        system->add_server(op.server);
        break;
    }
    if (system->regions().generation() != op.generation_after) {
      res.fail(1, "op-log replay diverged from the served generation trail");
      break;
    }
  }
  system->check_invariants();
  return system;
}

/// Serve-sized batches over the working set, in a seeded random order
/// like the readers draw them.
std::vector<std::uint64_t> batch_stream(const std::vector<std::uint64_t>& fps,
                                        std::uint64_t seed,
                                        std::size_t count) {
  anu::sim::Xoshiro256 rng = anu::sim::make_stream(seed, "perfbench/batches");
  std::vector<std::uint64_t> out(count);
  for (std::uint64_t& fp : out) fp = fps[rng.next_below(fps.size())];
  return out;
}

template <typename Locate>
double ns_per_elem(const std::vector<std::uint64_t>& stream,
                   std::uint32_t batch, Locate&& locate) {
  std::vector<anu::core::LocateResult> out(batch);
  const std::uint64_t t0 = now_ns();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i + batch <= stream.size(); i += batch) {
    locate(std::span<const std::uint64_t>(stream.data() + i, batch),
           std::span<anu::core::LocateResult>(out));
    sink += out[batch - 1].server.value;
  }
  const double ns = static_cast<double>(now_ns() - t0);
  g_sink = sink;
  return ns / static_cast<double>(stream.size() / batch * batch);
}

}  // namespace

BenchResult run_serve_timed(const RunOptions& opt) {
  BenchResult res;
  std::vector<double> setup_s, per_s, p50, p99;
  // Window w leaves CPU w mod n out (when there are more CPUs than the
  // service's three threads), so one slow CPU cannot slow every window.
  const std::vector<int> cpus = allowed_cpus();
  const std::uint64_t start = now_ns();
  for (std::uint32_t w = 0; w < kWindows; ++w) {
    std::vector<int> subset;
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      if (cpus.size() < 4 || c != w % cpus.size()) subset.push_back(cpus[c]);
    }
    const CpuPin pin(subset);
    const anu::serve::ServeConfig config =
        make_serve_config(opt.seed, w, window_seconds(opt));
    const std::uint64_t t0 = now_ns();
    anu::serve::LookupService service(config);
    setup_s.push_back(seconds_since(t0));
    const anu::serve::ServeResult r = service.run();
    anu::serve::EquivalenceReport eq = service.check_equivalence();
    if (opt.corrupt && w == 0) ++eq.mismatches;
    check_serve_window(eq, res);
    per_s.push_back(r.lookups_per_second);
    p50.push_back(r.p50_ns);
    p99.push_back(r.p99_ns);
    std::printf("serve window %u: %.3f s, %llu lookups (%.4g/s), p50 %.2f ns, "
                "p99 %.2f ns over %llu batches, %llu ops, %zu samples "
                "checked\n",
                w, r.seconds, static_cast<unsigned long long>(r.lookups),
                r.lookups_per_second, r.p50_ns, r.p99_ns,
                static_cast<unsigned long long>(r.lookups / config.batch_size),
                static_cast<unsigned long long>(r.ops_applied),
                eq.samples_checked);
  }
  res.set("setup_s", best_of(setup_s, false));
  res.set("throughput_per_s", best_of(per_s, true));
  res.set("latency_p50_ns", best_of(p50, false));
  res.set("latency_tail_ns", best_of(p99, false));
  res.set("peak_rss_mb", peak_rss_mb());
  std::printf("serve_churn: %u windows in %.2f s\n", kWindows,
              seconds_since(start));
  print_spread("setup_s", setup_s);
  print_spread("throughput_per_s", per_s);
  print_spread("latency_p50_ns", p50);
  print_spread("latency_tail_ns", p99);
  return res;
}

BenchResult run_serve_traced(const RunOptions& opt) {
  BenchResult res;
  const anu::serve::ServeConfig config =
      make_serve_config(opt.seed, 0, window_seconds(opt));

  // The untraced window of the same seed, for the tracing overhead and
  // the setup breakdown.
  const std::uint64_t t0 = now_ns();
  double plain_build = 0.0;
  {
    const std::uint64_t tb = now_ns();
    anu::serve::LookupService service(config);
    plain_build = seconds_since(tb);
    (void)service.run();
    check_serve_window(service.check_equivalence(), res);
  }
  const double plain_wall = seconds_since(t0);

  SpanLog log;
  const std::uint64_t t1 = now_ns();
  std::optional<anu::serve::LookupService> service;
  {
    const ScopedSpan span(&log, "serve.build");
    service.emplace(config);
  }
  anu::serve::ServeResult r;
  {
    const ScopedSpan span(&log, "serve.run");
    r = service->run();
  }
  {
    const ScopedSpan span(&log, "serve.check_equivalence");
    anu::serve::EquivalenceReport eq = service->check_equivalence();
    if (opt.corrupt) ++eq.unmatched_generation;
    check_serve_window(eq, res);
  }
  const double traced_wall = seconds_since(t1);

  // The final configuration, rebuilt from the op log; its generation must
  // be the last one the service published.
  std::unique_ptr<anu::core::AnuSystem> final_system;
  {
    const ScopedSpan span(&log, "core.replay");
    final_system = replay_ops(config, service->ops(), res);
  }
  if (final_system->regions().generation() != r.final_generation) {
    res.fail(1, "replayed final generation differs from the published one");
  }
  const anu::core::PlacementMap& map = final_system->placement();

  // The working set, re-derived; every served sample must come from it.
  const std::vector<std::uint64_t> fps = serve_fingerprints(config);
  {
    std::vector<std::uint64_t> sorted = fps;
    std::sort(sorted.begin(), sorted.end());
    for (const anu::serve::Sample& s : service->all_samples()) {
      if (!std::binary_search(sorted.begin(), sorted.end(), s.fingerprint)) {
        res.fail(1, "served fingerprint outside the re-derived working set");
        break;
      }
    }
  }
  service.reset();

  // The miss path (uncached locate_many) and the hit path (a warm
  // PlacementCache) over the same serve-sized batches.
  const std::vector<std::uint64_t> stream =
      batch_stream(fps, config.seed, std::size_t{64} * fps.size());
  double locate_ns = 0.0, cached_ns = 0.0;
  {
    const ScopedSpan span(&log, "core.locate_many");
    locate_ns = ns_per_elem(stream, config.batch_size, [&](auto in, auto out) {
      map.locate_many(in, out);
    });
  }
  {
    // Sized like a reader's cache (LookupService: 16 slots per set).
    anu::core::PlacementCache cache(std::size_t{16} * config.file_sets);
    std::vector<anu::core::LocateResult> warm(fps.size());
    cache.locate_many(map, fps, warm);
    const ScopedSpan span(&log, "core.cache_locate_many");
    cached_ns = ns_per_elem(stream, config.batch_size, [&](auto in, auto out) {
      cache.locate_many(map, in, out);
    });
  }

  // One epoch pin: acquire + release on a store holding the final map.
  double pin_ns = 0.0;
  {
    anu::serve::SnapshotStore store(1);
    store.publish(map);
    constexpr std::uint64_t kPins = 1u << 22;
    std::uint64_t sink = 0;
    const ScopedSpan span(&log, "serve.epoch.pin");
    const std::uint64_t tp = now_ns();
    for (std::uint64_t i = 0; i < kPins; ++i) {
      sink += store.acquire(0)->generation;
      store.release(0);
    }
    pin_ns = static_cast<double>(now_ns() - tp) / static_cast<double>(kPins);
    g_sink = sink;
  }

  const double build_s = log.total_seconds("serve.build");
  const double lookups = static_cast<double>(r.cache.hits + r.cache.misses);
  res.set("serve.build_s", build_s);
  res.set("serve.cache.hit_rate",
          lookups > 0 ? static_cast<double>(r.cache.hits) / lookups : 0.0);
  res.set("serve.cache.lookups", lookups);
  res.set("serve.cache.misses", static_cast<double>(r.cache.misses));
  res.set("serve.cache.revalidated", static_cast<double>(r.cache.revalidated));
  res.set("serve.cache.invalidations",
          static_cast<double>(r.cache.invalidations));
  res.set("serve.ops_applied", static_cast<double>(r.ops_applied));
  res.set("serve.snapshots.published",
          static_cast<double>(r.snapshots_published));
  res.set("serve.snapshots.pending", static_cast<double>(r.snapshots_pending));
  res.set("core.locate_many.ns_per_elem", locate_ns);
  res.set("core.cache_locate_many.ns_per_elem", cached_ns);
  res.set("serve.epoch.pin_ns", pin_ns);
  res.set("trace.overhead_s", traced_wall - plain_wall);
  // Serving has one setup layer (the service's construction) and no
  // run-phase split: the window is fixed wall time.
  res.set("breakdown.setup_unexplained_s", plain_build - build_s);
  res.set("breakdown.run_unexplained_s", 0.0);
  std::printf("serve_churn traced window: %.3f s, %llu lookups, hit rate "
              "%.4f of %.0f, %llu ops; locate_many %.3f ns/elem uncached, "
              "%.3f cached; pin %.3f ns\n",
              r.seconds, static_cast<unsigned long long>(r.lookups),
              lookups > 0 ? static_cast<double>(r.cache.hits) / lookups : 0.0,
              lookups, static_cast<unsigned long long>(r.ops_applied),
              locate_ns, cached_ns, pin_ns);
  std::printf("breakdown setup: timed %.6f s = serve.build %.6f + "
              "unexplained %.6f\n",
              plain_build, build_s, plain_build - build_s);
  if (!opt.spans_path.empty() && !log.write_jsonl(opt.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 opt.spans_path.c_str());
  }
  return res;
}

}  // namespace perfbench
