#!/usr/bin/env python3
"""Builds and runs the qgear benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sv24|batch10|dist22|serve12> \\
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the qgear libraries from
src/ plus the qgear_perfbench binary) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set. Build output goes to stderr. The
binary's notes are passed through; the last stdout line is the JSON
result, holding exactly the metrics BENCHMARK.json lists for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Every workload measures every end-to-end metric. A per-layer
metric of a layer the workload does not run (the exchange layer outside
dist22, say) reads 0: that layer did no work. Exits non-zero without a
result when the build or the run fails or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sv24", "batch10", "dist22", "serve12")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("src/ not found: run from the root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "qgear_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qgear_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(root, build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the JSON result has unexpected keys")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    result["metrics"], idle = complete(result["metrics"], wanted, args.trace)
    for line in lines[:-1]:
        print(line)
    if idle:
        print(f"{args.workload} does not run these layers, so they read 0: "
              + " ".join(idle))
    print(json.dumps(result))
    sys.stdout.flush()


def complete(measured, wanted, trace):
    """Returns `measured` as exactly the `wanted` metrics, in their order,
    and the names filled with 0 because the workload has no such layer.
    Fails on an unknown metric, a wrong unit or a missing end-to-end one."""
    names = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - names)
    if unknown:
        fail("metrics not in BENCHMARK.json: " + " ".join(unknown))
    out, idle = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            idle.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, not {m['unit']}")
        out[m["name"]] = got
    return out, idle


if __name__ == "__main__":
    main()
