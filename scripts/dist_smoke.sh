#!/usr/bin/env bash
# Distributed-execution smoke: drive study_tool's --worker/--drain/--merge
# modes over a shared cache directory and require every merged CSV
# byte-identical to the ordinary single-process run. Legs per study
# (policy_grid + ablation_window_size, both --quick):
#   (a) 1 worker (--drain) then --merge,
#   (b) 4 sequential partitioned workers (--no-steal) then --merge,
#   (c) 4 concurrent worker processes (stealing on) then --merge,
# plus a crash leg at a heavier scale: a worker dies mid-run through the
# test-only TCW_TEST_CRASH_AFTER_SHARDS hook (it _exits right after
# persisting its Nth shard, leases left behind -- a fixed point of the
# run on any host), a fresh worker drains the rest after the stale
# window, and the merge must still be byte-identical. Also asserts the
# --progress cluster row under a
# distributed run and emits a dist baseline BENCH_JSON comparing the
# 1-worker and 4-worker wall clocks.
# Usage: dist_smoke.sh <study_tool-binary> <scratch-dir>.
set -euo pipefail

tool=$(realpath "$1")
scratch=$2

rm -rf "$scratch"
mkdir -p "$scratch"
cd "$scratch"

now_ns() { date +%s%N; }

for study in policy_grid ablation_window_size; do
  echo "-- dist smoke [$study]: single-process reference CSV"
  "$tool" "$study" --quick --csv="single_$study.csv" \
      >"single_$study.log" 2>&1

  echo "-- dist smoke [$study]: 1 worker (--drain) + merge"
  t0=$(now_ns)
  "$tool" --drain --cache-dir="m1_$study" --quick --progress "$study" \
      >"m1_worker_$study.log" 2>&1
  t1=$(now_ns)
  "$tool" --merge --cache-dir="m1_$study" --quick \
      --csv="m1_$study.csv" "$study" >"m1_merge_$study.log" 2>&1
  cmp "single_$study.csv" "m1_$study.csv"
  grep -q "cluster" "m1_worker_$study.log" || {
    echo "dist smoke FAILED: no cluster progress row in" \
         "m1_worker_$study.log" >&2
    exit 1
  }

  echo "-- dist smoke [$study]: 4 sequential partitioned workers + merge"
  for i in 0 1 2 3; do
    "$tool" --worker $i/4 --no-steal --cache-dir="seq_$study" --quick \
        "$study" >"seq_w${i}_$study.log" 2>&1
  done
  "$tool" --merge --cache-dir="seq_$study" --quick \
      --csv="seq_$study.csv" "$study" >"seq_merge_$study.log" 2>&1
  cmp "single_$study.csv" "seq_$study.csv"

  echo "-- dist smoke [$study]: 4 concurrent worker processes + merge"
  t2=$(now_ns)
  pids=()
  for i in 0 1 2 3; do
    "$tool" --worker $i/4 --cache-dir="con_$study" --quick \
        --heartbeat-seconds=0.5 "$study" >"con_w${i}_$study.log" 2>&1 &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do wait "$pid"; done
  t3=$(now_ns)
  "$tool" --merge --cache-dir="con_$study" --quick \
      --csv="con_$study.csv" "$study" >"con_merge_$study.log" 2>&1
  cmp "single_$study.csv" "con_$study.csv"

  # 1-vs-4-worker wall clock (informational on few-core machines; the
  # partitioned shards scale with real cores).
  awk -v one="$((t1 - t0))" -v four="$((t3 - t2))" -v study="$study" \
      'BEGIN {
         printf "BENCH_JSON {\"suite\":\"dist_%s_baseline\",", study
         printf "\"sequential_wall_seconds\":%.4f,", one / 1e9
         printf "\"scheduled_wall_seconds\":%.4f,", four / 1e9
         printf "\"speedup\":%.2f,\"outputs_identical\":true}\n",
                one / (four > 0 ? four : 1)
       }' | tee -a dist_baseline.log
done

# Crash leg: the victim dies after persisting 2 of its home shards.
study=ablation_window_size
args=(--t-end=2000000 --reps=2)
echo "-- dist smoke [crash]: single-process reference at crash-leg scale"
"$tool" "$study" "${args[@]}" --csv=crash_single.csv \
    >crash_single.log 2>&1

echo "-- dist smoke [crash]: worker 0/2 crashes after its 2nd shard"
victim_status=0
TCW_TEST_CRASH_AFTER_SHARDS=2 "$tool" --worker 0/2 --cache-dir=crash \
    --heartbeat-seconds=0.1 --lease-stale-seconds=0.5 "${args[@]}" \
    "$study" >crash_w0.log 2>&1 || victim_status=$?
if [ "$victim_status" -ne 86 ]; then
  echo "dist smoke FAILED: crash-leg worker exited $victim_status, not" \
       "through the injected crash (86)" >&2
  exit 1
fi

echo "-- dist smoke [crash]: replacement worker drains after stale window"
# The victim is dead, so its leases age past --lease-stale-seconds.
sleep 0.6
"$tool" --drain --cache-dir=crash --lease-stale-seconds=0.5 \
    "${args[@]}" "$study" >crash_drain.log 2>&1
"$tool" --merge --cache-dir=crash --csv=crash_merged.csv \
    "${args[@]}" "$study" >crash_merge.log 2>&1
cmp crash_single.csv crash_merged.csv

claimed=$(sed -n 's/.*"claimed":\([0-9]*\).*/\1/p' crash_drain.log)
if [ -z "$claimed" ] || [ "$claimed" -eq 0 ]; then
  echo "dist smoke FAILED: replacement worker claimed nothing after" \
       "the crashed worker" >&2
  grep BENCH_JSON crash_drain.log >&2 || true
  exit 1
fi
grep -q '"compacted":true' crash_merge.log || {
  echo "dist smoke FAILED: crash-leg merge did not compact" >&2
  exit 1
}
echo "dist smoke OK: merged CSVs byte-identical to single-process for" \
     "1/4-sequential/4-concurrent workers and after a crashed worker" \
     "(replacement claimed $claimed shard(s))"
