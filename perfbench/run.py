#!/usr/bin/env python3
"""Build and run the tcw benchmark for one workload.

Run from the root of a tcw checkout:

    python3 perfbench/run.py --workload fig7_suite --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src and ../bench) into .bench_build/,
runs the tcwbench binary in .bench_build/work/<workload>/ (for study_resume
after copying in the shard store a separate, untimed process prepared once
per build into .bench_build/resume_store/), and prints the
binary's one-line JSON result as the last line of standard output. The
binary's own output goes to .bench_build/work/<workload>/tcwbench.log, and
a record with the provenance block and every sample goes to
.bench_build/results/. Exits nonzero without a result line on any failure.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "tcwbench")
WORKLOADS = ("fig7_suite", "study_suite", "study_resume", "kernel_grid")
BUILD_TIMEOUT_S = 840
# Preparation plus the measured run stay well inside the 180 s a run may
# take (the binary itself stops starting jobs after 100 s).
PREPARE_TIMEOUT_S = 25
RUN_TIMEOUT_S = 145


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, stdout=None):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    with subprocess.Popen(cmd, stdout=stdout or sys.stderr,
                          stderr=sys.stderr, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {timeout} s: {' '.join(cmd)}")
            return 124


def build():
    for needed in ("src", "bench"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            log(f"no {needed}/ in {ROOT}: not a tcw checkout")
            return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_checked(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S)
        if rc != 0:
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    rc = run_checked(["cmake", "--build", BUILD, "-j", jobs],
                     BUILD_TIMEOUT_S)
    return rc == 0 and os.path.exists(BINARY)


def prepare_store(base, work, out):
    """Give study_resume its prepared shard store in work/store.

    The studies fix their own seeds, so the store does not depend on
    --seed: one preparation per build of the binary serves every run.
    """
    prepared = os.path.join(BUILD_ROOT, "resume_store")
    stamp = os.path.join(prepared, "binary.stamp")
    st = os.stat(BINARY)
    want = f"{st.st_mtime_ns} {st.st_size}"
    have = None
    if os.path.exists(stamp):
        with open(stamp) as f:
            have = f.read()
    if have != want:
        shutil.rmtree(prepared, ignore_errors=True)
        if run_checked(base + ["--work", prepared, "--prepare"],
                       PREPARE_TIMEOUT_S, out) != 0:
            return False
        with open(stamp, "w") as f:
            f.write(want)
    shutil.copytree(os.path.join(prepared, "store"),
                    os.path.join(work, "store"))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    work = os.path.join(BUILD_ROOT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    result = os.path.join(work, "result.json")
    record = os.path.join(
        results, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--root", ROOT]

    with open(os.path.join(work, "tcwbench.log"), "w") as out:
        if (args.workload == "study_resume"
                and not prepare_store(base, work, out)):
            log("preparing the shard store failed")
            return 2
        rc = run_checked(base + ["--work", work,
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace),
                                 "--result", result, "--record", record],
                         RUN_TIMEOUT_S, out)
    if rc != 0 or not os.path.exists(result):
        log(f"tcwbench failed (exit {rc}); see {work}/tcwbench.log")
        return 2
    with open(result) as f:
        line = f.read().strip()
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
