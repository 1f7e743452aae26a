#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the benchmark binary plus the repository's libraries) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only what
changed. Build output goes to stderr.

The binary's report is passed through on stdout, and the last stdout line is
one JSON object with exactly the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list. A per-layer metric whose
layer the workload never enters (serve.* on paper-cc, net.* on kv-closed)
is reported as 0. The exit code is 0 only when every correctness check
passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found; nothing to build")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "nearpm_perfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "nearpm_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        proc = subprocess.run(
            [binary, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--out-dir={out_dir}"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark binary exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if not lines:
        die(f"benchmark binary printed nothing (exit {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        die(f"benchmark binary did not end with a JSON report (exit {proc.returncode})",
            1)

    measured = result["metrics"]
    metrics = {}
    absent = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                die(f"benchmark binary did not report end-to-end metric {m['name']}", 1)
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            die(f"metric {m['name']}: got {got}, want unit {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if absent:
        print(f"not on {args.workload}'s path, reported as 0: "
              + " ".join(absent))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
