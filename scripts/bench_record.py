#!/usr/bin/env python3
"""Record end-to-end benchmark runs in BENCH_<tag>.json at the repository root.

Runs perfbench/run.py (untraced) for every seed and workload on each
checkout, alternating which checkout goes first from one seed to the next,
and stores each run's `env =` record and final JSON line, with the median
and quartiles of every metric per workload and checkout and, for two
checkouts, how many seed pairs the second won on each metric.  At the end it
prints one line per workload and end-to-end metric: each checkout's median
and, for two checkouts, the change against the metric's bound in
BENCHMARK.json and the pairs the second won and lost.  Cached bytecode
lowers `setup_s`, so it records which of each checkout's `src/pmleak` and
`perfbench` hold a __pycache__, refuses checkouts that differ in that, and
runs perfbench with PYTHONDONTWRITEBYTECODE=1 so that no run adds a cache:

    python3 scripts/bench_record.py --tag NAME --workloads adversary_trials \\
        --seeds 1-10 --seconds 10 --checkout parent=../parent --checkout change=.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def checkout(text):
    label, sep, path = text.partition("=")
    if not (label and sep and path):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, not {text!r}")
    return label, Path(path).resolve()


def run(path, workload, seed, seconds):
    """One perfbench run of the checkout at `path`: its env record and final JSON."""
    argv = [sys.executable, str(path / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(argv, cwd=path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                           capture_output=True, text=True, check=True).stdout.strip().splitlines()
    env = next(line.removeprefix("env = ") for line in lines if line.startswith("env = "))
    return json.loads(env), json.loads(lines[-1])


def cached_bytecode(path):
    """Which of the checkout's `src/pmleak` and `perfbench` hold a __pycache__."""
    return [d for d in ("src/pmleak", "perfbench") if (path / d / "__pycache__").is_dir()]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions():
    """{metric: "lower" or "higher"}, the side each metric is better on, from BENCHMARK.json."""
    spec = benchmark_spec()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(runs, labels, better):
    """{workload: {checkout: {metric: [q1, median, q3]}}} over the recorded runs.
    With two checkouts, each workload also gets "<second> vs <first>":
    {metric: {"won": w, "lost": l, "pairs": p}}, the seed pairs in which the
    second checkout was better or worse on the metric's `better` side (a tie
    counts for neither)."""
    values, by_seed = {}, {}
    for r in runs:
        by_seed[r["workload"], r["seed"], r["checkout"]] = r["result"]["metrics"]
        for name, metric in r["result"]["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(r["checkout"], {}).setdefault(
                name, []).append(metric["value"])
    out = {w: {c: {name: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                   for name, v in metrics.items()} for c, metrics in sides.items()}
           for w, sides in values.items()}
    if len(labels) != 2:
        return out
    first, second = labels
    for (workload, seed, label), metrics in by_seed.items():
        base = by_seed.get((workload, seed, first))
        if label != second or base is None:
            continue
        tally = out[workload].setdefault(f"{second} vs {first}", {})
        for name in (name for name in metrics if name in base and name in better):
            gain = base[name]["value"] - metrics[name]["value"]
            if better[name] == "higher":
                gain = -gain
            count = tally.setdefault(name, {"won": 0, "lost": 0, "pairs": 0})
            count["won"] += gain > 0
            count["lost"] += gain < 0
            count["pairs"] += 1
    return out


def verdicts(summary, labels, metrics):
    """One line per workload and end-to-end metric of `summary`: each
    checkout's median and, with two checkouts, the second's change of the
    median, the metric's bound (a change past it is marked "better beyond it"
    or "worse beyond it", by the metric's `better` side) and the seed pairs
    the second won and lost.  `metrics` are BENCHMARK.json's end_to_end entries."""
    lines = []
    for workload, sides in summary.items():
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            medians = {label: sides[label][name][1] for label in labels
                       if name in sides.get(label, {})}
            line = f"{workload} {name}: " + ", ".join(
                f"{label} {value:.6g} {unit}" for label, value in medians.items())
            if len(labels) == 2 and len(medians) == 2 and medians[labels[0]]:
                first, second = labels
                change = medians[second] / medians[first] - 1
                line += f" ({change:+.1%}"
                if "bound" in metric:
                    line += f", bound {metric['bound']:.0%}"
                    if abs(change) > metric["bound"]:
                        better = (change < 0) == (metric["better"] == "lower")
                        line += f", {'better' if better else 'worse'} beyond it"
                line += ")"
                tally = sides.get(f"{second} vs {first}", {}).get(name)
                if tally:
                    line += (f"; {second} won {tally['won']}, lost {tally['lost']} "
                             f"of {tally['pairs']} pairs")
            lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", type=checkout, action="append", metavar="LABEL=DIR",
                        help="a checkout to run, repeatable; default: this one")
    args = parser.parse_args(argv)
    checkouts = args.checkout or [("this", ROOT)]
    bytecode = {label: cached_bytecode(path) for label, path in checkouts}
    if len({tuple(dirs) for dirs in bytecode.values()}) > 1:
        print("the checkouts differ in cached bytecode, which biases setup_s; delete "
              "it or make it alike:", *(f"{label}: {', '.join(dirs) or 'no __pycache__'}"
                                         for label, dirs in bytecode.items()),
              sep="\n", file=sys.stderr)
        return 1
    runs = []
    for i, seed in enumerate(args.seeds):
        for workload in args.workloads:
            for label, path in checkouts if i % 2 == 0 else checkouts[::-1]:
                try:
                    env, result = run(path, workload, seed, args.seconds)
                except subprocess.CalledProcessError as err:
                    print(f"{workload} seed {seed} {label} ({path}) exited with code "
                          f"{err.returncode}; its stderr ends:", *err.stderr.splitlines()[-20:],
                          sep="\n", file=sys.stderr)
                    return 1
                runs.append({"workload": workload, "seed": seed, "checkout": label,
                             "env": env, "result": result})
                print(f"{workload} seed {seed} {label}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.6g}", file=sys.stderr)
    labels = [label for label, _ in checkouts]
    table = summary(runs, labels, directions())
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"tag": args.tag, "seconds": args.seconds, "bytecode": bytecode,
                               "summary": table, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    print(*verdicts(table, labels, benchmark_spec()["end_to_end"]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
