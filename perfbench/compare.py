#!/usr/bin/env python3
"""Compare two sets of tcw benchmark result records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to .bench_build/results/
(one JSON file per workload, seed and trace flag). Records are paired by
file name. If any pair's provenance blocks differ (build type, effective
flags, compiler, nproc, threads, workload, seed, run length), the
comparison is refused: the script names the difference and exits 1.
Otherwise it prints, per workload and metric, the median over seeds on each
side and the change as a share of the base median, and marks end-to-end
metrics that got worse by more than their bound in BENCHMARK.json. It exits
1 if any did.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    records = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records[name] = json.load(f)
    return records


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    common = sorted(set(base) & set(new))
    if not common:
        print("no records to pair", file=sys.stderr)
        return 1
    for name in common:
        a, b = base[name]["provenance"], new[name]["provenance"]
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                    if a.get(k) != b.get(k)}
            print(f"refused: {name}: provenance differs: {diff}",
                  file=sys.stderr)
            return 1

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({m["name"]: m["better"] for m in spec["end_to_end"]})

    series = {}  # (workload, metric) -> ([base values], [new values])
    for name in common:
        workload = base[name]["provenance"]["workload"]
        for side, rec in ((0, base[name]), (1, new[name])):
            for metric, v in rec["result"]["metrics"].items():
                series.setdefault((workload, metric), ([], []))[side].append(
                    v["value"])

    worse = False
    for (workload, metric), (a, b) in sorted(series.items()):
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        flag = ""
        if metric in bounds:
            sign = 1 if bounds[metric]["better"] == "lower" else -1
            if sign * change > bounds[metric]["bound"]:
                flag = "  WORSE than bound"
                worse = True
        print(f"{workload:13s} {metric:34s} base={ma:<12.6g} new={mb:<12.6g}"
              f" change={change:+.3f} ({better.get(metric, '?')} is better,"
              f" n={len(a)}/{len(b)}){flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
