#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build with
dune's shared cache off, so nothing is read or written outside the
checkout.  Everything the benchmark prints is passed through; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics, with --trace 1 its per_layer metrics (0 where a workload does
not exercise the layer).  Exits non-zero if the build fails, the
checkout is incomplete, or any answer or check was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s is missing: run from a full checkout of the repository" % needed)

    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    build_dir = os.path.join(root, ".bench_build")
    try:
        build = subprocess.run(
            [dune, "build", "--root", root, "--build-dir", build_dir,
             "--cache=disabled", "--profile", "release", "./perfbench/main.exe"],
            cwd=root, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(os.cpu_count() or 0)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("the run printed no result (exit code %d)" % proc.returncode)

    if args.trace:
        have = result["layers"]
        metrics = {}
        for m in spec["per_layer"]:
            v = have.get(m["name"], {"value": 0.0})["value"]
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        have = result["metrics"]
        names = [m["name"] for m in spec["end_to_end"]]
        missing = [n for n in names if n not in have]
        if missing:
            fail("metrics missing from the run: " + ", ".join(missing))
        metrics = {m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
