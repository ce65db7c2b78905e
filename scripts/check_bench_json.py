#!/usr/bin/env python3
"""Validate BENCH_JSON lines emitted by the bench drivers.

Reads driver logs (files given as arguments, or stdin) and checks every
line carrying the "BENCH_JSON " prefix: the payload must parse as a JSON
object, and must carry the required keys for its record shape. Shapes:

  scheduler report   {"suite", "threads", "jobs", "wall_seconds",
                      "jobs_per_sec", "worker_utilization", "sweeps": [...]}
  baseline record    {"suite": "..._baseline", "sequential_wall_seconds",
                      "scheduled_wall_seconds", "speedup",
                      "outputs_identical"}
  cache record       {"suite", "cache": {"path", "cached_shards",
                      "executed_shards", "store_entries", "loaded",
                      "recovered_corruption"}}
  worker record      {"suite", "worker": {"id", "index", "total",
                      "passes", "universe", "cached", "claimed",
                      "stolen", "declined", "reclaimed", "foreign",
                      "wall_seconds"}}
  merge record       {"suite", "merge": {"path", "segments", "entries",
                      "universe", "cached", "missing",
                      "corrupt_segments", "compacted", "wall_seconds"}}
  kernel_bench cell  {"bench", "sim", "stations", "rho", "k_over_m",
                      "kernel", "wall_seconds", "slots_per_sec",
                      "probes_per_sec"}; kernel == "event-skip" and
                      sim == "aggregate" rows also carry
                      {"skipped_slots", "skip_fraction"} and
                      sim == "fluid" rows {"events_per_sec", "p_loss"}
  policy-grid cell   {"study", "engine", "rho", "k", "p_loss",
                      "timely_ratio"}
  multichannel cell  {"study": "multichannel", "engine", "channels",
                      "selector", "rho", "k", "p_loss", "timely_ratio"}
  channel counters   {"study": "multichannel", "counter_prefix",
                      "channel", "probe_slots", "idle_slots",
                      "collisions", "successes", "sender_discards"}
  attribution row    {"sweep", "k", "channel", "admission_starved",
                      "collision_killed", "queue_expired", "discards"};
                      flight-report rows also carry {"engine"}, and the
                      three categories must sum exactly to discards

Exit status: 0 when every BENCH_JSON line validates and at least one was
seen (pass --allow-empty to tolerate none), 1 otherwise.
"""
import json
import sys

PREFIX = "BENCH_JSON "

SWEEP_KEYS = {"name", "jobs", "wall_seconds", "busy_seconds",
              "jobs_per_sec"}


def classify(record):
    """Return (shape-name, missing-keys) for one parsed record."""
    if "worker" in record:
        missing = {"suite"} - record.keys()
        worker = record["worker"]
        if not isinstance(worker, dict):
            return "worker", {"worker(object)"}
        missing |= {"id", "index", "total", "passes", "universe", "cached",
                    "claimed", "stolen", "declined", "reclaimed", "foreign",
                    "wall_seconds"} - worker.keys()
        return "worker", missing
    if "merge" in record:
        missing = {"suite"} - record.keys()
        merge = record["merge"]
        if not isinstance(merge, dict):
            return "merge", {"merge(object)"}
        missing |= {"path", "segments", "entries", "universe", "cached",
                    "missing", "corrupt_segments", "compacted",
                    "wall_seconds"} - merge.keys()
        return "merge", missing
    if "cache" in record:
        missing = {"suite"} - record.keys()
        cache = record["cache"]
        if not isinstance(cache, dict):
            return "cache", {"cache(object)"}
        missing |= {"path", "cached_shards", "executed_shards",
                    "store_entries", "loaded",
                    "recovered_corruption"} - cache.keys()
        return "cache", missing
    if "admission_starved" in record:
        # Deadline-loss attribution rows (flight report or kernel_bench).
        # Must precede the "engine"/"bench" branches: flight-report rows
        # carry "engine" and kernel_bench rows carry "bench".
        missing = {"sweep", "k", "channel", "admission_starved",
                   "collision_killed", "queue_expired",
                   "discards"} - record.keys()
        if not missing:
            total = (record["admission_starved"] + record["collision_killed"]
                     + record["queue_expired"])
            if total != record["discards"]:
                missing.add("categories_sum_to_discards(%d != %d)"
                            % (total, record["discards"]))
        return "attribution", missing
    if record.get("study") == "multichannel":
        if "counter_prefix" in record:
            return "multichannel_counters", {
                "channel", "probe_slots", "idle_slots", "collisions",
                "successes", "sender_discards"} - record.keys()
        return "multichannel", {"engine", "channels", "selector", "rho",
                                "k", "p_loss", "timely_ratio"} - record.keys()
    if "engine" in record:
        return "policy_grid", {"study", "rho", "k", "p_loss",
                               "timely_ratio"} - record.keys()
    if "bench" in record:
        missing = {"sim", "stations", "rho", "k_over_m", "kernel",
                   "wall_seconds", "slots_per_sec",
                   "probes_per_sec"} - record.keys()
        if (record.get("kernel") == "event-skip"
                or record.get("sim") == "aggregate"):
            missing |= {"skipped_slots", "skip_fraction"} - record.keys()
        if record.get("sim") == "fluid":
            missing |= {"events_per_sec", "p_loss"} - record.keys()
        return "kernel_bench", missing
    if str(record.get("suite", "")).endswith("_baseline"):
        return "baseline", {"sequential_wall_seconds",
                            "scheduled_wall_seconds", "speedup",
                            "outputs_identical"} - record.keys()
    if "suite" in record:
        missing = {"threads", "jobs", "wall_seconds", "jobs_per_sec",
                   "worker_utilization", "sweeps"} - record.keys()
        sweeps = record.get("sweeps")
        if not isinstance(sweeps, list):
            missing.add("sweeps(array)")
        else:
            for i, sweep in enumerate(sweeps):
                if not isinstance(sweep, dict) or SWEEP_KEYS - sweep.keys():
                    missing.add("sweeps[%d]" % i)
        return "scheduler", missing
    return "unknown", {"suite|bench|cache"}


def check_stream(name, stream, counts, errors):
    for lineno, line in enumerate(stream, start=1):
        at = line.find(PREFIX)
        if at < 0:
            continue
        payload = line[at + len(PREFIX):].strip()
        where = "%s:%d" % (name, lineno)
        try:
            record = json.loads(payload)
        except ValueError as e:
            errors.append("%s: unparseable BENCH_JSON: %s" % (where, e))
            continue
        if not isinstance(record, dict):
            errors.append("%s: BENCH_JSON payload is not an object" % where)
            continue
        shape, missing = classify(record)
        if missing:
            errors.append("%s: %s record missing %s"
                          % (where, shape, sorted(missing)))
        counts[shape] = counts.get(shape, 0) + 1


def main(argv):
    allow_empty = "--allow-empty" in argv
    paths = [a for a in argv if a != "--allow-empty"]
    counts = {}
    errors = []
    if paths:
        for path in paths:
            try:
                with open(path, "r", errors="replace") as f:
                    check_stream(path, f, counts, errors)
            except OSError as e:
                errors.append("%s: %s" % (path, e))
    else:
        check_stream("<stdin>", sys.stdin, counts, errors)

    total = sum(counts.values())
    for err in errors:
        print("check_bench_json: %s" % err, file=sys.stderr)
    if errors:
        return 1
    if total == 0 and not allow_empty:
        print("check_bench_json: no BENCH_JSON lines found", file=sys.stderr)
        return 1
    summary = " ".join("%s=%d" % kv for kv in sorted(counts.items()))
    print("check_bench_json: %d record(s) OK (%s)" % (total, summary or "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
