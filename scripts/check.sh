#!/usr/bin/env bash
# CI-style gate: build + full test suite under every config, then the
# static-analysis pass.
#
#   default   RelWithDebInfo — the reference build
#   sanitize  ASan + UBSan — guards e.g. the hash::from_double
#             float->int overflow clamp
#   tsan      ThreadSanitizer — guards the run-level parallelism
#             (sim/thread_pool, driver/parallel_runner, bench --jobs);
#             any cross-run data race fails the suite
#   lint      clang-tidy over src/ tools/ bench/ tests/ (skips when
#             clang-tidy is not installed)
#   static    project-invariant analysis (scripts/static.sh): anufs_lint
#             D1/H1/T1/G1 over src/, the lint-fixture proof, and — when
#             clang++ exists — the thread-safety capability-analysis
#             build of the `clang` preset; each sub-stage skips
#             gracefully when its toolchain is missing
#   trace-smoke  run anufs_sim --trace on a tiny scenario (default
#             preset's build) and validate the exported JSONL against
#             scripts/check_trace_schema.py
#   retune-smoke  replay the 64-server retune churn property (200
#             fail/add/retune plans bit-identical to a pinned digest,
#             auditor forced on) from the default preset's build — a
#             fast tripwire for anyone touching the tuner or region map
#             without running the full property suite
#   batch-smoke  replay the locate_many churn interleavings (batched
#             answers bit-identical to the scalar sequence, cache stats
#             included, auditor forced on) from the default preset's
#             build — the tripwire for anyone touching the mixers,
#             the owner-table layout, or the batch cache path
#   serve-smoke  two 2-thread 1-second anufs_serve runs (default
#             preset's build) with --check, at the default 16 servers /
#             4096 file sets and at the benchmark's serve_churn shape
#             (64 servers / 65536 file sets): readers under live
#             control-plane churn, every sample replayed sequentially;
#             fails on zero throughput or any equivalence mismatch and
#             logs each run's equivalence digest
#   policy-smoke  replay one short seeded crash/recover scenario under
#             the invariant auditor for EVERY policy in the registry
#             (anufs_audit --policies all); fails unless every name the
#             tool lists ran and the summary reads 0 violations — the
#             tripwire for anyone adding a policy that runs in tests but
#             breaks under the auditor, or that falls out of the
#             registry wiring
#
# Tests carry ctest labels (unit | property | golden | stress |
# bench-smoke | lint; see tests/CMakeLists.txt). default and sanitize
# run every label; the tsan preset excludes only `bench-smoke` (timing
# under TSan is meaningless) — golden byte-diffs, the fault property
# suite, and the serving-mode concurrency battery all must stay
# race-clean and bit-identical under TSan too.
#
#   ./scripts/check.sh                # all of the above
#   ./scripts/check.sh default        # one preset
#   ./scripts/check.sh tsan lint      # any subset, in order
#   ./scripts/check.sh --bench        # all of the above + the benchmark's
#                                     # self-tests (perfbench/selftest.py);
#                                     # opt-in, never part of the default
#                                     # gate
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# Runs the tests of gtest binary $1 that --gtest_filter $2 selects, with
# the invariant auditor forced on. Fails when the filter selects no test:
# gtest exits 0 on an empty match, so a renamed test would otherwise
# turn the stage into a silent pass.
run_filtered() {
  local selected
  selected="$("$1" --gtest_list_tests --gtest_filter="$2" | grep -c '^  ' || true)"
  if [ "$selected" -eq 0 ]; then
    echo "$1: --gtest_filter='$2' selects no test" >&2
    exit 1
  fi
  ANUFS_AUDIT=1 "$1" --gtest_filter="$2"
}

JOBS="${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}"
RUN_BENCH=0
STAGES=()
for arg in "$@"; do
  if [ "$arg" = --bench ] || [ "$arg" = bench ]; then
    RUN_BENCH=1
  else
    STAGES+=("$arg")
  fi
done
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default trace-smoke retune-smoke batch-smoke serve-smoke policy-smoke static sanitize tsan lint)
fi

for stage in "${STAGES[@]}"; do
  if [ "$stage" = lint ]; then
    echo "== lint"
    ./scripts/lint.sh
    continue
  fi
  if [ "$stage" = static ]; then
    echo "== static"
    ./scripts/static.sh --jobs "$JOBS"
    continue
  fi
  if [ "$stage" = trace-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build it on demand).
    echo "== trace-smoke"
    if [ ! -x build/tools/anufs_sim ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_sim_cli
    fi
    TRACE_OUT="$(mktemp -d)/smoke.jsonl"
    printf 'workload synthetic\npolicy anu\nservers 1,3,5,7,9\nperiod 60\nduration 300\nrequests 2000\nfile_sets 40\nseed 7\nfail 120 4\nrecover 240 4\n' \
      | build/tools/anufs_sim --trace "$TRACE_OUT" - > /dev/null
    python3 scripts/check_trace_schema.py "$TRACE_OUT"
    # The Chrome export must at least be valid JSON for Perfetto.
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_OUT.chrome.json"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_OUT.metrics.json"
    rm -rf "$(dirname "$TRACE_OUT")"
    continue
  fi
  if [ "$stage" = retune-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one test on demand).
    echo "== retune-smoke"
    if [ ! -x build/tests/retune_equivalence_test ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target retune_equivalence_test
    fi
    run_filtered build/tests/retune_equivalence_test \
      'RetuneEquivalence.ChurnDigestIsPinnedAt64'
    continue
  fi
  if [ "$stage" = batch-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one test on demand).
    echo "== batch-smoke"
    if [ ! -x build/tests/locate_batch_test ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target locate_batch_test
    fi
    run_filtered build/tests/locate_batch_test \
      'LocateBatch.BatchedMatchesScalarUnderRandomInterleavings'
    continue
  fi
  if [ "$stage" = serve-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one tool on demand).
    echo "== serve-smoke"
    if [ ! -x build/tools/anufs_serve ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_serve_cli
    fi
    SERVE_OUT="$(build/tools/anufs_serve --threads 2 --seconds 1 --check)"
    echo "$SERVE_OUT"
    # --check already fails the stage on any equivalence mismatch
    # (non-zero exit); additionally require real throughput — a serve
    # run that completed zero lookups is a hang or a dead reader pool,
    # not a pass.
    echo "$SERVE_OUT" | grep -Eq 'serve: 2 threads, [0-9.]+ s, [1-9][0-9]* lookups' \
      || { echo "serve-smoke: no lookups served" >&2; exit 1; }
    echo "$SERVE_OUT" | grep -Eq 'equivalence: .* digest [0-9a-f]+ -> OK' \
      || { echo "serve-smoke: missing equivalence digest" >&2; exit 1; }
    # The serve_churn shape: a 16x larger working set under 4x the servers.
    CHURN_OUT="$(build/tools/anufs_serve --threads 2 --seconds 1 --servers 64 --file-sets 65536 --check)"
    echo "$CHURN_OUT"
    echo "$CHURN_OUT" | grep -Eq 'equivalence: .* digest [0-9a-f]+ -> OK' \
      || { echo "serve-smoke: missing equivalence digest (64/65536)" >&2; exit 1; }
    continue
  fi
  if [ "$stage" = policy-smoke ]; then
    # Needs the default preset built (runs after `default` in the full
    # gate; standalone invocations build the one tool on demand).
    echo "== policy-smoke"
    if [ ! -x build/tools/anufs_audit ]; then
      cmake --preset default
      cmake --build --preset default -j "$JOBS" --target anufs_audit_cli
    fi
    POLICY_OUT="$(printf 'workload synthetic\nservers 1,3,5,7,9\nperiod 60\nduration 300\nrequests 2000\nfile_sets 40\nseed 7\nmovement on\nfail 120 4\nrecover 240 4\n' \
      | build/tools/anufs_audit --policies all -)"
    echo "$POLICY_OUT"
    # Every registered policy must appear in the batch. The names come
    # from the tool's own usage text (the registry), so a newly
    # registered policy is required here without editing this script.
    REGISTERED="$( { build/tools/anufs_audit 2>&1 >/dev/null || true; } \
      | sed -n 's/^registered policies: //p' | tr -d ' ' | tr ',' ' ')"
    [ -n "$REGISTERED" ] \
      || { echo "policy-smoke: no registered policy list in anufs_audit usage" >&2; exit 1; }
    for p in $REGISTERED; do
      echo "$POLICY_OUT" | grep -q "policy=$p " \
        || { echo "policy-smoke: policy $p missing from --policies all" >&2; exit 1; }
    done
    # ...and the batch must have audited something and found nothing.
    echo "$POLICY_OUT" | grep -Eq '^audit: [1-9][0-9]* invariant audits, 0 violations' \
      || { echo "policy-smoke: missing '0 violations' audit summary" >&2; exit 1; }
    continue
  fi
  echo "== configure: $stage"
  cmake --preset "$stage"
  echo "== build: $stage"
  cmake --build --preset "$stage" -j "$JOBS"
  echo "== test: $stage"
  ctest --preset "$stage" -j "$JOBS"
done

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "== bench (perfbench self-tests)"
  python3 perfbench/selftest.py
fi

echo "check.sh: all stages green"
