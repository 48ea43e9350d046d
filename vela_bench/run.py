#!/usr/bin/env python3
"""Build and run vela_bench from the root of a source checkout.

    python3 vela_bench/run.py --workload vela_wikitext --seed 1 --seconds 45 --trace 0
    python3 vela_bench/run.py --self-test

The library is compiled from ../src by this directory's own CMakeLists.txt
into $CARGO_TARGET_DIR/vela_bench (default .bench_build/vela_bench). The
last stdout line of a run is its JSON result; build logs and the run's
diagnostics go to stderr. Without the library sources the build fails and
the script exits non-zero without printing a result.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[vela_bench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "vela_bench"))


def run_logged(cmd, timeout):
    """Runs cmd with stdout folded into stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S) != 0:
        return None
    return out


def run_bench(out, args):
    out_dir = os.path.join(out, "out")
    cmd = [os.path.join(out, "vela_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        # Spill directories of the paged workload; a killed run leaves one.
        for d in glob.glob(os.path.join(out_dir, "store-*")):
            shutil.rmtree(d, ignore_errors=True)
    if proc.returncode != 0:
        log(f"vela_bench exited with {proc.returncode}")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("vela_bench printed no JSON result")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"unexpected result keys {sorted(result)}")
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def self_test(out):
    """Check self-tests, then names printed vs BENCHMARK.json."""
    if run_logged([os.path.join(out, "vela_bench_selftest")], 60) != 0:
        log("self-test: checks FAILED")
        return 1
    listing = subprocess.run([os.path.join(out, "vela_bench"), "--list"],
                             stdout=subprocess.PIPE, text=True, timeout=60)
    printed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listing.stdout.splitlines():
        kind, *rest = line.split()
        printed[kind].append(tuple(rest))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    ok = True
    for kind in printed:
        if sorted(printed[kind]) != sorted(declared[kind]):
            ok = False
            log(f"self-test: {kind} names differ from BENCHMARK.json: "
                f"printed {sorted(printed[kind])}, "
                f"declared {sorted(declared[kind])}")
    log("self-test: names " + ("match BENCHMARK.json" if ok else "MISMATCH"))
    return 0 if ok and listing.returncode == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    out = build()
    if out is None:
        log("build failed")
        return 1
    return self_test(out) if args.self_test else run_bench(out, args)


if __name__ == "__main__":
    sys.exit(main())
