#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--trace 0|1]
                                [--seconds S] [--seal true|false]

For every metric: the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json, and each run's
wall-clock line from the stderr report. Runs the built
perfbench binary directly; build it first with run.py. Prints one JSON
line with the medians at the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--seal", default="true")
    a = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = a.seconds or str(spec["run_seconds"])
    exe = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release")
    values = {}
    for seed in a.seeds.split(","):
        cmd = [os.path.join(exe, "perfbench"), "--workload", a.workload, "--seed", seed,
               "--seconds", seconds, "--trace", a.trace, "--seal", a.seal,
               "--quasii", os.path.join(exe, "quasii")]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        line = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
        result = json.loads(line)
        if r.returncode != 0 or not result.get("correct"):
            sys.exit(f"seed {seed}: exit {r.returncode}, result {line}")
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for report in r.stderr.splitlines():
            if "wall clock" in report:
                print(report, flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    medians = {}
    for k, vs in values.items():
        med = statistics.median(vs)
        medians[k] = med
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(k)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"  {k:<28} median {med:<14.6g} spread {spread:6.3f}"
              + (f"  bound {bound} {flag}" if bound is not None else ""))
    print(json.dumps({"workload": a.workload, "medians": medians}))


if __name__ == "__main__":
    main()
