#!/usr/bin/env python3
"""pmleak benchmark: one workload, measured end to end or traced per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_enum, large_n_density, adversary_trials (see README.md).
The run imports pmleak from the checkout's src/, makes the workload's inputs
from the seed, times set-up in fresh interpreters, runs one warm-up pass,
then runs passes for about S seconds and checks every output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs half
the time untraced and half traced and reports the per-module metrics.
The last line of standard output is one JSON object with the results.
"""

import os

# one thread everywhere, set before numpy loads here or in a probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from hostclock import HostClock  # noqa: E402

#: fresh interpreters started per run to time set-up; the median is reported
PROBES = 7

#: fewest timed passes per measurement, however long a pass takes
MIN_PASSES = 3
MIN_PASSES_TRACE = 2

#: problems printed to stderr per run
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, workload, outs):
        failed, problems = workload.check_pass(outs)
        self.attempted += workload.ops_per_pass
        self.failed += failed
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values):
    return statistics.median(values) if values else 0.0


def probe(name, seed, workdir):
    """Host-adjusted (set-up seconds, import ms) of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), str(workdir), name, str(seed)]
    started = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return (out["ready"] - started) * out["factor"], out["import_s"] * out["factor"] * 1e3


@dataclass
class Passes:
    """Timed passes: host-adjusted and wall seconds, host factors, traces."""

    adjusted: list = field(default_factory=list)
    wall: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def measure(workload, seconds, min_passes, tally, tracer=None):
    """Run passes until about `seconds` have passed; check each pass's outputs."""
    passes = Passes()
    clock = HostClock()
    start = time.perf_counter()
    while True:
        with clock:
            t0 = time.perf_counter()
            outs = workload.run_pass()
            dt = time.perf_counter() - t0
        factor = clock.factor()
        passes.adjusted.append(dt * factor)
        passes.wall.append(dt)
        passes.factors.append(factor)
        if tracer is not None:
            passes.traces.append(tracer.collect())
        tally.add(workload, outs)
        if len(passes.wall) >= min_passes and time.perf_counter() - start + dt > seconds:
            return passes


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pmleak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(workload, passes, setup_s):
    """End-to-end metrics of the untraced passes: {name: (value, unit)}, notes.

    Times are host-adjusted (hostclock.py); the wall-clock median and the
    median host factor are printed next to them.
    """
    q1, wall, q3 = quartiles(passes.adjusted)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (workload.ops_per_pass / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_s)} fresh interpreters, host-adjusted",
             "wall_s": f"host-adjusted median of {len(passes.adjusted)} passes; "
                       f"q1 {q1:.6g}, q3 {q3:.6g}; wall-clock median "
                       f"{statistics.median(passes.wall):.6g}, host factor "
                       f"{statistics.median(passes.factors):.4g}",
             "ops_per_s": f"{workload.ops_per_pass} ops per pass"}
    return metrics, notes


# span names whose call count is reported
SPAN_CALLS = (
    "constructions.cond_density_binomial", "constructions.cond_density_closed_form",
    "constructions.lower_bound", "logdomain.log_sum_exp", "logdomain.signed_log_sum",
    "probability.ProductModel.conditional_rest", "probability.FiniteDistribution.init",
    "mechanisms.FiniteMechanism.init", "leakage.pml", "oracle.gain_ratio",
    "oracle.randomized_function_ratio",
)

# span names whose self time per pass is reported
SPAN_SELF = (
    "constructions.cond_density_binomial", "constructions.cond_density_closed_form",
    "constructions.lower_bound", "constructions.sweep", "logdomain.log_sum_exp",
    "probability.ExplicitJointModel.from_model", "probability.ProductModel.conditional_rest",
    "probability.FiniteDistribution.init", "mechanisms.FiniteMechanism.init",
    "mechanisms.product_mechanism", "leakage.pml", "leakage.pml_entry",
    "leakage.entry_log_likelihoods", "leakage.theorem2_check",
    "oracle.run_adversary_trials", "oracle.gain_ratio", "oracle.randomized_function_ratio",
    "oracle.GainFunction.init", "oracle.GuessKernel.init", "cli.main",
    "tables.ResultTable.to_csv", "svgplot.write_line_chart",
)

# counts per pass; "computed" ones are derived from the inputs of a traced call
COUNTS = (
    ("constructions.binomial_terms", "computed: n + 1 per cond_density_binomial call"),
    ("logdomain.log_binom.calls", "computed: n + 1 per cond_density_binomial call"),
    ("probability.atoms", "computed: |alphabet|^entries per ExplicitJointModel.from_model"),
    ("mechanisms.LaplaceMechanism.log_likelihood.calls", "counted"),
)

PML_D1_SIZES = tuple(f"n1e{k}" for k in range(2, 7))


def per_layer(passes, import_ms, max_err, overhead_s, untraced_s):
    """Per-module metrics of the traced passes: {name: (value, unit)}, notes.

    Span times are scaled by their pass's host factor, like wall_s.
    """
    traces = list(zip(passes.traces, passes.factors))

    def per_pass(table, name, scale=False):
        return median([getattr(t, table)[name] * (f if scale else 1) for t, f in traces])

    metrics, notes = {}, {}
    for name in SPAN_CALLS:
        metrics[name + ".calls"] = (per_pass("calls", name), "count")
    for name in SPAN_SELF:
        metrics[name + ".self_ms"] = (per_pass("self_s", name, scale=True) * 1e3, "ms")
    for name, note in COUNTS:
        metrics[name] = (per_pass("counts", name), "count")
        notes[name] = note
    for sign in ("pos", "neg"):
        for size in PML_D1_SIZES:
            name = f"constructions.pml_d1.{sign}_ms.{size}"
            calls = [d * f for t, f in traces for d in t.durations[name]]
            metrics[name] = (median(calls) * 1e3, "ms")
            notes[name] = f"median of {len(calls)} calls, y {'>' if sign == 'pos' else '<='} 0"
    metrics["constructions.pml_d1.max_err"] = (max_err, "nats")
    notes["constructions.pml_d1.max_err"] = "largest |pml - reference|, large_n_density only"

    entries = per_pass("calls", "leakage.pml_entry")
    in_entry = per_pass("counts", "probability.atoms.passes_in_pml_entry")
    metrics["probability.atoms.passes_per_pml_entry"] = (
        in_entry / entries if entries else 0.0, "ratio")
    notes["probability.atoms.passes_per_pml_entry"] = (
        f"{in_entry:g} atom passes over {entries:g} pml_entry calls; 1 pass is enough")
    rest = per_pass("calls", "probability.ProductModel.conditional_rest")
    distinct = per_pass("counts", "probability.conditional_rest.distinct")
    metrics["probability.conditional_rest.repeat"] = (rest / distinct if distinct else 0.0,
                                                      "ratio")
    notes["probability.conditional_rest.repeat"] = (
        f"{rest:g} calls over {distinct:g} distinct (model, i, d) per theorem2_check call; "
        "1 call each is enough")

    metrics["import.pmleak_cli_ms"] = (import_ms, "ms")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    notes["trace.overhead_s"] = (f"traced wall_s - untraced wall_s "
                                 f"({overhead_s / untraced_s:+.1%})")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmleak" / "__init__.py").is_file():
        sys.exit(f"error: no pmleak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pmleak
    if Path(pmleak.__file__).resolve().parent != SRC / "pmleak":
        sys.exit(f"error: pmleak imported from {pmleak.__file__}, not from {SRC}")
    import tracer as tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    # on SIGTERM, unwind so probes are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        probes = [probe(args.workload, args.seed, workdir) for _ in range(PROBES)]
        setup_s = [s for s, _ in probes]
        import_ms = statistics.median(ms for _, ms in probes)
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.prepare()
        tally = Tally()
        tally.add(workload, workload.run_pass())  # warm-up, checked, not timed
        if args.trace:
            untraced = measure(workload, args.seconds / 2, MIN_PASSES_TRACE, tally)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, MIN_PASSES_TRACE, tally, tracer)
            finally:
                tracer.uninstall()
            base = statistics.median(untraced.adjusted)
            metrics, notes = per_layer(traced, import_ms, workload.max_err or 0.0,
                                       statistics.median(traced.adjusted) - base, base)
        else:
            passes = measure(workload, args.seconds, MIN_PASSES, tally)
            metrics, notes = end_to_end(workload, passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload = {args.workload}, trace = {args.trace}")
    print("env = " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if workload.max_err is not None and not args.trace:
        print(f"max_err = {workload.max_err:.3g} nats  [largest |pml - reference|]")
    print(f"failed_ops = {tally.failed / tally.attempted:.6g} ratio  "
          f"[{tally.failed} of {tally.attempted} operations]")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
