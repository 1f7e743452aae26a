#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark binary (as run.py does) and checks, with short runs, that
  * every workload reports every end-to-end metric of BENCHMARK.json, and
    the three workloads together report every per-layer metric;
  * paper-cc's simulated results are bit-identical across two runs with one
    seed (the traced and the untraced pass of one run, and a second run);
  * a second seed changes the serving request streams and every correctness
    check still passes.
Takes about four minutes; exits 1 on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step and BENCHMARK.json loader)

SECONDS = 1
SIM_METRICS = ("sim_speedup_e2e", "sim_speedup_cc", "sim_ops_per_s",
               "sim_p99_ns")


def run_bench(binary, workload, seed, trace):
    proc = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}",
         f"--seconds={SECONDS}", f"--trace={trace}",
         f"--out-dir={os.path.join(run.ROOT, '.bench_out')}"],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(proc.returncode == 0 and result["correct"] and
          result["failed"] == 0,
          f"{workload} seed {seed} trace {trace}: all correctness checks pass")
    return result, proc.stdout


def digest(output, what):
    match = re.search(what + r" digest ([0-9a-f]+)", output)
    check(match is not None, f"output names the {what} digest")
    return match.group(1)


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    spec = run.load_spec()
    binary = run.build()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = {m["name"] for m in spec["per_layer"]}

    seen = set()
    first = {}
    for w in (w["name"] for w in spec["workloads"]):
        result, output = run_bench(binary, w, 1, 1)
        names = set(result["metrics"])
        missing = [n for n in e2e if n not in names]
        check(not missing, f"{w} reports every end-to-end metric {missing}")
        seen |= names & layers
        first[w] = (result, output)
    check(seen == layers,
          f"per-layer metrics reported by no workload: {sorted(layers - seen)}")

    result, output = first["paper-cc"]
    again, again_output = run_bench(binary, "paper-cc", 1, 0)
    sim_digest = digest(output, "simulated-result")
    check(output.count(sim_digest) == 2,
          "paper-cc traced and untraced passes simulate identically")
    check(digest(again_output, "simulated-result") == sim_digest,
          "paper-cc simulated results repeat across runs with one seed")
    for name in SIM_METRICS:
        check(result["metrics"][name]["value"] ==
              again["metrics"][name]["value"],
              f"paper-cc {name} is bit-identical across runs")

    for w in ("kv-closed", "repl-txn"):
        _, output = first[w]
        _, other = run_bench(binary, w, 2, 0)
        check(digest(output, "request-stream") !=
              digest(other, "request-stream"),
              f"{w}: seed 2 draws another request stream")
    print("selftest passed")


if __name__ == "__main__":
    main()
