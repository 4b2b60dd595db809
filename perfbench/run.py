#!/usr/bin/env python3
"""Build and run the Phastlane benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload splash_campaign --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The simulator, the netsim_serve daemon and the benchmark binary are built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is one JSON object: with --trace 0 it
holds every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer one (0 for a layer the workload does not run). Build output
and the daemon's logs go to standard error or the build directory.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build; returns (driver, daemon) paths."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target",
              "perfbench", "netsim_serve"]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build step failed: %s" % e)
        if rc != 0:
            die("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "netsim_serve"))


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(exe, daemon, workdir, workload, seed, seconds, trace,
                 spec):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expect", os.path.join(HERE, "expected_digests.txt"),
           "--workdir", workdir, "--daemon", daemon]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        die("%s failed (exit %d)" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        die("%s printed no result" % workload)
    for line in lines[:-1]:
        if line.startswith("#"):
            print(line)

    # Keep exactly the metrics the contract names for this mode.
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    absent = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                die("%s did not report %s" % (workload, m["name"]))
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            die("%s reported %s in %s, not %s" %
                (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    if absent:
        print("# not exercised by %s (reported as 0): %s" %
              (workload, " ".join(absent)))
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe, daemon = build(build_dir)
    # Relative paths keep the daemon's socket path short.
    workdir = os.path.relpath(build_dir)
    exe, daemon = os.path.abspath(exe), os.path.relpath(daemon)

    if args.self_test:
        sys.exit(subprocess.run(
            [exe, "--self-test",
             "--expect", os.path.join(HERE, "expected_digests.txt"),
             "--workdir", workdir, "--daemon", daemon]).returncode)

    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        todo = names
    elif args.workload in names:
        todo = [args.workload]
    else:
        die("--workload must be one of %s or all" % ", ".join(names))

    results = {}
    for w in todo:
        t0 = time.time()
        results[w] = run_workload(exe, daemon, workdir, w, args.seed,
                                  args.seconds, args.trace, spec)
        print("# %s: %.1f s" % (w, time.time() - t0))
        for name, m in results[w]["metrics"].items():
            print("%-44s %.6g %s" % (w + "." + name if len(todo) > 1
                                     else name, m["value"], m["unit"]))
    if len(todo) == 1:
        out = results[todo[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {w + "." + k: v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    out = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
