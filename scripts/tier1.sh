#!/usr/bin/env bash
# Tier-1 verification: full build + full test suite, then the concurrency
# tests (thread pool, multi-sweep scheduler, parallel sweep determinism)
# and the kernel fast-path tests rebuilt and re-run under ThreadSanitizer
# so data races in the sweep engine fail CI, not users, the tests that
# reach the finite-station network rebuilt and re-run under ASan+UBSan
# (any report aborts the test), plus end-to-end
# smokes: the fig7_all --quick suite with its sequential-baseline
# bit-equality cross-check, kernel_bench --verify bit-comparing the fast
# per-slot kernels against their retained reference paths, a cache-resume
# smoke (truncate the shard store, resume, bit-compare the CSVs), an
# observability smoke (overlays on/off at 1 and N threads must leave
# every CSV byte-identical), a distributed worker/merge smoke
# (multi-process workers over a shared shard store; merged CSVs must be
# byte-identical to single-process, including after a crashed worker),
# a flight-recorder smoke (packet capture + slot series are a strict
# overlay, thread-count invariant, and distributed merges reproduce the
# single-process flight report byte for byte), and a BENCH_JSON schema
# check over the smoke logs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt)
case "${build_type:-}" in
  Release|RelWithDebInfo) ;;
  *)
    echo "WARNING: CMAKE_BUILD_TYPE='${build_type:-<unset>}' -- benches" \
         "are unoptimized; do not quote kernel_bench numbers from this" \
         "build (use Release or RelWithDebInfo)." >&2
    ;;
esac
(cd build && ctest --output-on-failure -j)

echo "== tier-1: fig7_all suite smoke (scheduled vs sequential) =="
cmake --build build --target suite_smoke

echo "== tier-1: kernel fast-path vs reference smoke =="
cmake --build build --target kernel_verify_smoke

echo "== tier-1: shard-cache resume smoke (truncate store, resume, cmp) =="
scripts/resume_smoke.sh build/bench/study_tool build/bench/resume_smoke

echo "== tier-1: policy-grid smoke (standalone vs --suite vs resume, cmp) =="
scripts/policy_grid_smoke.sh build/bench/study_tool build/bench/policy_grid_smoke

echo "== tier-1: large-N smoke (event-skip kernel through study/cache/resume) =="
scripts/large_n_smoke.sh build/bench/study_tool build/bench/large_n_smoke

echo "== tier-1: observability overlay smoke (CSV bit-equality + trace/manifest) =="
scripts/obs_smoke.sh build/bench/study_tool build/bench/obs_smoke

echo "== tier-1: distributed worker/merge smoke (byte-identical CSVs, crash-restart) =="
scripts/dist_smoke.sh build/bench/study_tool build/bench/dist_smoke

echo "== tier-1: multichannel smoke (standalone vs --suite vs resume, cmp) =="
scripts/multichannel_smoke.sh build/bench/study_tool build/bench/multichannel_smoke

echo "== tier-1: flight recorder / slot series / attribution smoke =="
scripts/flight_smoke.sh build/bench/study_tool build/bench/kernel_bench \
    build/bench/flight_smoke

echo "== tier-1: BENCH_JSON schema check over the smoke logs =="
python3 scripts/check_bench_json.py \
    build/bench/resume_smoke/fresh.log build/bench/resume_smoke/resume.log \
    build/bench/policy_grid_smoke/standalone.log \
    build/bench/policy_grid_smoke/resume.log \
    build/bench/large_n_smoke/standalone.log \
    build/bench/large_n_smoke/resume.log \
    build/bench/multichannel_smoke/standalone.log \
    build/bench/multichannel_smoke/resume.log \
    build/bench/dist_smoke/*.log

echo "== tier-1: finite-station network tests under ASan+UBSan =="
cmake -B build-asan -S . -DTCW_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=all >/dev/null
cmake --build build-asan -j --target test_network test_multichannel \
    test_event_skip test_aggregate_skip test_kernel_fastpath \
    test_seed_streams test_flight_recorder test_slot_series test_experiment
(cd build-asan && ctest --output-on-failure \
    -R '^(Network|NetworkKernel|AggregateKernel|AggregateSkip|KernelWarmupEdge|MultiChannel|EventSkip|SeedStreams|BoundedRing|FlightRecorder|SlotSeries|LinearGrid|PolicyFor|Sweep|SweepConfig|ToString)\.')

echo "== tier-1: concurrency + kernel tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DTCW_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target test_thread_pool \
    test_sweep_determinism test_sweep_scheduler test_flat_deque \
    test_kernel_fastpath test_event_skip test_aggregate_skip \
    test_protocol_engines test_multichannel test_shard_cache test_study \
    test_obs test_dist_exec test_flight_recorder test_slot_series \
    test_window_model
(cd build-tsan && ctest --output-on-failure \
    -R 'ThreadPool|ResolveThreads|SweepDeterminism|SweepScheduler|SweepCapture|FlatDeque|NetworkKernel|AggregateKernel|AggregateSkip|KernelWarmupEdge|EventSkip|ProtocolEngine|MultiChannel|PolicyGrid|ShardCache|StudyCache|StudyRunner|StudyRegistry|StudyCapture|Obs|DistLease|DistGate|SharedStore|DistExec|FlightRecorder|SlotSeries|BoundedRing|WindowSmdp')
echo "tier-1 OK"
