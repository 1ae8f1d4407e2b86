#!/usr/bin/env python3
"""Measure a baseline: several seeds per workload, then one traced run each.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs run.py once per seed with --trace 0 and once with --trace 1, at the
run length BENCHMARK.json sets, one run at a time.  Writes each end-to-end
metric's values, median, quartiles and spread (interquartile distance over
the median, as statistics.quantiles gives it), and the traced run's
per-module metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - started:.1f} s",
          flush=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[6:]) for line in lines if line.startswith("env = "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks\n{done.stderr}")
    return env, result


def summarize(values):
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        values = {}
        for seed in args.seeds:
            env, result = run_once(name, seed, seconds, 0)
            out.setdefault("env", env)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print("   ", {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = run_once(name, args.seeds[0], seconds, 1)
        out["workloads"][name] = {
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in out["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.3f}",
                  flush=True)
    out["env"].pop("seed", None)
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
