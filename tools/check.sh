#!/usr/bin/env bash
#
# Full pre-merge verification:
#   1. tier-1 build + ctest (the ROADMAP gate),
#   2. a ThreadSanitizer build of the parallel execution engine, the
#      fault/resilience campaigns, and the observability layer that
#      rides on both (test_exec + test_sim + test_fault + test_obs via
#      the `tsan` CMake preset), so every change to the thread pool /
#      sweep runner / resilience fan-out / metrics merge is
#      race-checked, and
#   3. an AddressSanitizer build of the simulator core running the
#      bit-exact determinism suite plus the channel-ring and latency
#      tests of test_sim (the `asan` preset), so flit-pool
#      lifetime or ring-buffer indexing bugs introduced by hot-path
#      work die loudly instead of corrupting results, plus an
#      end-to-end `wss coll --manifest-out` → `wss report` pipeline
#      under ASan (the reporter parses untrusted CSV/JSON, so its
#      string handling runs heap-checked),
#   4. a release-preset bench_simcore --smoke, proving the optimized
#      build still runs every bench point to a stable result (the
#      perf numbers themselves are tracked in bench_results/) and
#      gated against a second smoke run with tools/bench_compare.py
#      --require-identical on its behavioural fields, and a
#      profiler-overhead guard: a disabled ScopedPhase must be far
#      cheaper than an enabled one (the ≤1% hot-loop contract),
#   5. an observability smoke: a parallel sweep with --trace-out whose
#      JSON must parse, and a sim run with --stats-out whose counters
#      must reconcile (the CLI panics if they do not), and
#   6. a DCN smoke: `wss dcn` calibrates a tiny fat-tree pair and runs
#      1k flows; its JSON artifact, windowed telemetry and provenance
#      manifest must parse, and
#   7. a collectives smoke: `wss coll` runs the allreduce/all-to-all
#      comparison (flow vs alpha-beta, plus the cycle-accurate fabric
#      crosscheck and a parallelism plan); its JSON and manifest must
#      parse, `wss report` must pass every health check on the run,
#      and bench_coll --smoke is gated against a fresh re-run with
#      tools/bench_compare.py --require-identical (the engine is
#      deterministic, so any drift is a behavioural change; the bench
#      manifests prove both runs shared one configuration), and
#      bench_dcn --smoke likewise against itself, on every result
#      column of the flow engine,
#   8. the flight-recorder stack: the disabled-recordEvent overhead
#      guard (same >=10x contract as the profiler), a watchdog stall
#      smoke (a deliberately sleeping worker must be diagnosed and
#      aborted within a sub-second timeout), and a crash post-mortem
#      smoke (a panic()ing helper leaves a crash.json that python3 -m
#      json.tool accepts and `wss report --crash` renders), and
#   9. a bench_results/ hygiene guard: only result files (BENCH_*.json,
#      their manifests, and bench_*.txt logs) may live there — stray
#      build droppings fail the check.
#
# Usage: tools/check.sh            (from anywhere in the repo)
#        JOBS=8 tools/check.sh     (override the parallelism)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== bench_results hygiene =="
# Only benchmark results belong in bench_results/: BENCH_*.json, the
# provenance manifests they write, and bench_*.txt logs. Anything
# else (stale CMake droppings, editor backups) fails the check.
STRAY="$(find bench_results -type f \
    ! -name 'BENCH_*.json' \
    ! -name '*.manifest.json' \
    ! -name 'bench_*.txt' \
    ! -name 'README*' 2>/dev/null || true)"
if [ -n "$STRAY" ]; then
    echo "FAIL: non-result files under bench_results/:" >&2
    echo "$STRAY" >&2
    exit 1
fi
echo "bench_results clean"

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tsan: configure + build (test_exec, test_sim, test_fault, test_obs, test_flow, test_coll) =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"

echo "== tsan: race-checked test run =="
# Death tests (fork under TSAN) are excluded by the preset filter.
ctest --preset tsan

echo "== asan: configure + build (test_sim_determinism, test_sim, test_flow, test_coll) =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

echo "== asan: heap-checked determinism suite =="
# The ZeroAllocation test is excluded by the preset filter: ASan
# interposes the allocator, which defeats the counting hook.
ctest --preset asan

echo "== asan: wss report end to end =="
ASAN_TMP="$(mktemp -d)"
build-asan/tools/wss coll --ws-ports 256 --conv-ports 64 \
    --cal-ports 64 --points 2 --ranks 8 --payloads 65536 \
    --warmup 200 --measure 500 --drain 3000 --jobs 2 \
    --csv "$ASAN_TMP/coll.csv" --stats-out "$ASAN_TMP/coll_steps.csv" \
    --manifest-out "$ASAN_TMP/coll.manifest.json"
build-asan/tools/wss report --manifest "$ASAN_TMP/coll.manifest.json" \
    --out "$ASAN_TMP/report.md" --json "$ASAN_TMP/report.json"
python3 -m json.tool "$ASAN_TMP/report.json" > /dev/null
rm -rf "$ASAN_TMP"
echo "asan report pipeline green"

echo "== release: bench_simcore smoke =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
BENCH_TMP="$(mktemp -d)"
build-release/bench/bench_simcore --smoke \
    --json "$BENCH_TMP/BENCH_simcore_smoke.json"
python3 -m json.tool "$BENCH_TMP/BENCH_simcore_smoke.json" > /dev/null
python3 -m json.tool \
    "$BENCH_TMP/BENCH_simcore_smoke.json.manifest.json" > /dev/null
echo "bench smoke JSON + manifest parse"

echo "== simcore bench: deterministic against itself =="
# Same contract as coll and dcn below: a second smoke run must agree
# on every identity field (flits delivered, end cycle, stability).
# Smoke points last milliseconds, so the Mflit/s metric is noise and
# only identity gates here (--max-regress 100 never trips).
build-release/bench/bench_simcore --smoke \
    --json "$BENCH_TMP/BENCH_simcore_smoke_b.json"
python3 tools/bench_compare.py "$BENCH_TMP/BENCH_simcore_smoke.json" \
    "$BENCH_TMP/BENCH_simcore_smoke_b.json" --require-identical \
    --max-regress 100
rm -rf "$BENCH_TMP"

echo "== release: profiler-overhead guard =="
# The null-handle contract: a ScopedPhase on a null profiler must be
# at least 10x cheaper than on a live one (in practice ~200x — one
# predicted branch vs a map walk), or hot loops can no longer stay
# instrumented unconditionally.
GUARD_TMP="$(mktemp -d)"
build-release/bench/bench_micro \
    --benchmark_filter='BM_ProfilerScope' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json > "$GUARD_TMP/profiler.json"
python3 - "$GUARD_TMP/profiler.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
times = {b["name"]: b["real_time"] for b in doc["benchmarks"]}
disabled = times["BM_ProfilerScopeDisabled"]
enabled = times["BM_ProfilerScopeEnabled"]
print(f"profiler scope: disabled {disabled:.2f} ns, "
      f"enabled {enabled:.2f} ns")
if disabled * 10.0 > enabled:
    sys.exit("FAIL: disabled ScopedPhase is not >=10x cheaper than "
             "enabled — the null-handle no-op contract regressed")
EOF
echo "== release: flight-recorder overhead guard =="
# Same null-handle contract as the profiler: recordEvent with no ring
# attached to the thread must be at least 10x cheaper than with the
# recorder enabled (in practice ~80x — one predicted branch vs a
# timestamp + ring write), so campaign/simulator call sites can stay
# instrumented unconditionally.
build-release/bench/bench_micro \
    --benchmark_filter='BM_FlightRecorder' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json > "$GUARD_TMP/recorder.json"
python3 - "$GUARD_TMP/recorder.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
times = {b["name"]: b["real_time"] for b in doc["benchmarks"]}
disabled = times["BM_FlightRecorderDisabled"]
enabled = times["BM_FlightRecorderEnabled"]
print(f"flight recorder: disabled {disabled:.2f} ns, "
      f"enabled {enabled:.2f} ns")
if disabled * 10.0 > enabled:
    sys.exit("FAIL: disabled recordEvent is not >=10x cheaper than "
             "enabled — the null-handle no-op contract regressed")
EOF
rm -rf "$GUARD_TMP"
echo "profiler + flight-recorder overhead guards green"

echo "== obs smoke: parallel trace + stats reconciliation =="
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
build/tools/wss sweep --ports 128 --patterns uniform --measure 1000 \
    --points 3 --jobs 4 --trace-out "$OBS_TMP/sweep_trace.json" \
    --manifest-out "$OBS_TMP/sweep.manifest.json"
python3 -m json.tool "$OBS_TMP/sweep_trace.json" > /dev/null
python3 -m json.tool "$OBS_TMP/sweep.manifest.json" > /dev/null
echo "trace JSON + manifest parse"
build/tools/wss sim --ports 128 --measure 1000 --points 3 --rate 0.4 \
    --stats-out "$OBS_TMP/sim_stats.csv" --obs-sample 200
test -s "$OBS_TMP/sim_stats.csv"

echo "== dcn smoke: tiny fat-tree, 1k flows =="
build/tools/wss dcn --ws-ports 256 --conv-ports 64 --hosts 64 \
    --flows 1000 --workloads websearch --loads 0.5 --cal-ports 64 \
    --points 3 --warmup 200 --measure 500 --drain 3000 --jobs 2 \
    --profiles "$OBS_TMP/profiles" --json "$OBS_TMP/dcn.json" \
    --stats-out "$OBS_TMP/dcn_windows.csv" \
    --manifest-out "$OBS_TMP/dcn.manifest.json"
python3 -m json.tool "$OBS_TMP/dcn.json" > /dev/null
python3 -m json.tool "$OBS_TMP/dcn.manifest.json" > /dev/null
test -s "$OBS_TMP/dcn_windows.csv"
echo "dcn JSON + manifest parse"

echo "== coll smoke: schedules at three fidelities =="
build/tools/wss coll --ws-ports 256 --conv-ports 64 --cal-ports 64 \
    --points 2 --ranks 8 --payloads 65536,1048576 --fabric \
    --fabric-payload 16384 --plan dp=4,tp=2 --layers 4 \
    --microbatches 2 --warmup 200 --measure 500 --drain 3000 \
    --jobs 2 --profiles "$OBS_TMP/profiles" \
    --json "$OBS_TMP/coll.json" \
    --stats-out "$OBS_TMP/coll_steps.csv" \
    --manifest-out "$OBS_TMP/coll.manifest.json"
python3 -m json.tool "$OBS_TMP/coll.json" > /dev/null
python3 -m json.tool "$OBS_TMP/coll.manifest.json" > /dev/null
echo "coll JSON + manifest parse"

echo "== report: health checks on the coll run =="
build/tools/wss report --manifest "$OBS_TMP/coll.manifest.json" \
    --out "$OBS_TMP/coll_report.md" --json "$OBS_TMP/coll_report.json"
python3 -m json.tool "$OBS_TMP/coll_report.json" > /dev/null
test -s "$OBS_TMP/coll_report.md"
echo "report Markdown + JSON green"

echo "== coll bench: deterministic against itself =="
build-release/bench/bench_coll --smoke \
    --json "$OBS_TMP/BENCH_coll_a.json"
build-release/bench/bench_coll --smoke \
    --json "$OBS_TMP/BENCH_coll_b.json"
python3 tools/bench_compare.py "$OBS_TMP/BENCH_coll_a.json" \
    "$OBS_TMP/BENCH_coll_b.json" --require-identical

echo "== dcn bench: deterministic against itself =="
# Same contract as coll, on the flow engine's max-min waterfill: two
# smoke runs must agree on every result column. The metric (flows per
# host second) is wall-clock, and smoke cells last milliseconds, so
# only identity gates here (--max-regress 100 never trips).
build/bench/bench_dcn --smoke --json "$OBS_TMP/BENCH_dcn_a.json"
build/bench/bench_dcn --smoke --json "$OBS_TMP/BENCH_dcn_b.json"
python3 tools/bench_compare.py "$OBS_TMP/BENCH_dcn_a.json" \
    "$OBS_TMP/BENCH_dcn_b.json" --require-identical --max-regress 100

echo "== watchdog smoke: stalled worker diagnosed in under a second =="
# The helper forks a worker that registers a heartbeat and then
# sleeps; the watchdog must dump its diagnosis and abort within the
# 0.2 s timeout. The helper exits 0 only when the death matched.
build/tests/obs_crash_helper --mode stall --watchdog-timeout 0.2
echo "watchdog stall smoke green"

echo "== crash smoke: panic -> crash.json -> wss report --crash =="
build/tests/obs_crash_helper --mode panic \
    --crash-dump "$OBS_TMP/crash.json" 2> /dev/null
python3 -m json.tool "$OBS_TMP/crash.json" > /dev/null
build/tools/wss report --crash "$OBS_TMP/crash.json" \
    --out "$OBS_TMP/crash_report.md" \
    --json "$OBS_TMP/crash_report.json" \
    | grep -q "checks passed"
python3 -m json.tool "$OBS_TMP/crash_report.json" > /dev/null
grep -q "## Post-mortem" "$OBS_TMP/crash_report.md"
echo "crash post-mortem pipeline green"

echo "== progress smoke: campaign with the live status line =="
# --progress and --watchdog ride the same heartbeat registry as the
# stall detector; a healthy run must finish cleanly with both armed.
build/tools/wss sweep --ports 128 --patterns uniform --measure 1000 \
    --points 3 --jobs 2 --progress --watchdog 30 --flight-recorder \
    --crash-dump "$OBS_TMP/sweep_crash.json" > /dev/null
# A clean run must leave no crash dump behind.
test ! -s "$OBS_TMP/sweep_crash.json"
echo "progress + watchdog smoke green"

echo "check.sh: all green"
