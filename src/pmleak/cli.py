"""Command-line front end.

Subcommands: analyze, thm3, bob, oracle, dp-check.  Outputs CSV tables
(and optional SVG line plots) whose headers embed the full
parameterization.  Option precedence: command-line flags override
config-file values, which override built-in defaults.

Exit codes: 0 success, 1 validation or numerical error, 2 tolerance/acceptance
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .constructions import BobModel, EtaSchedule, bob_mechanism, sweep
from .leakage import pml_report
from .mechanisms import (FiniteMechanism, dp_level_finite, dp_level_laplace,
                         mechanism_from_dict, spec_field)
from .oracle import run_adversary_trials
from .probability import FiniteDistribution
from .svgplot import Series, write_line_chart
from .tables import ResultTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2

#: namespace entries that are plumbing or output paths, not run parameters
_NOT_META = frozenset({"command", "config", "mechanism", "out", "svg", "reproducible"})

#: most points a grid or n-range COUNT may ask for
MAX_COUNT = 1_000_000

#: largest |exact_pml - enum_pml| that `thm3` accepts on a row it enumerates
ENUM_TOL = 1e-9


def _load_config(path, command):
    """Config-file values keyed by option dest; every key must name an option
    of the `command` parser, and an int option takes a JSON integer."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    types = {a.dest: a.type for a in command._actions
             if a.default is not argparse.SUPPRESS and a.dest != "config"}
    out = {}
    for key, value in cfg.items():
        k = key.replace("-", "_")
        if k not in types:
            raise ValueError(f"unknown config field {key!r}")
        if types[k] is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"config field {key!r} must be an integer, not {value!r}")
        out[k] = value
    return out


def _count(value, what):
    """A COUNT option as an int; checked before anything is allocated."""
    value = float(value)
    if not 1 <= value <= MAX_COUNT:  # NaN fails too
        raise ValueError(f"{what} count must be at least 1 and at most {MAX_COUNT}, "
                         f"got {value:g}")
    if value != int(value):
        raise ValueError(f"{what} count must be a whole number, got {value:g}")
    return int(value)


def _grid(spec):
    start, stop, count = float(spec[0]), float(spec[1]), _count(spec[2], "grid")
    if not math.isfinite(stop - start):  # a non-finite end, or a span that overflows
        raise ValueError("outcome y must be finite")
    if count == 1:
        return [start]
    return np.linspace(start, stop, count).tolist()


def _load_analysis_spec(path):
    with open(path) as fh:
        raw = json.load(fh)
    mech = mechanism_from_dict(raw)
    labels = mech.x_labels if isinstance(mech, FiniteMechanism) else mech.labels
    if raw.get("prior") is None:
        return mech, FiniteDistribution.uniform(labels)
    prior = spec_field(raw, "prior", float)
    if len(prior) != len(labels):
        raise ValueError(f"mechanism spec field 'prior': expected {len(labels)} probabilities, "
                         f"one per label, not {len(prior)}")
    return mech, FiniteDistribution.from_probs(labels, prior)


def _emit(opts, columns, meta):
    """Write the command's table: a header of every run parameter given or
    defaulted, then `meta`, then the columns; to --out, or to stdout."""
    header = {"tool": "pmleak", "version": __version__, "command": opts.command}
    for key, value in sorted(vars(opts).items()):
        if key not in _NOT_META and value is not None:
            header[key.replace("_", "-")] = value
    text = ResultTable(columns, meta=header | meta).to_csv(reproducible=bool(opts.reproducible))
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(opts) -> int:
    if opts.y is not None and opts.y_grid is not None:
        raise ValueError("give --y or --y-grid, not both")
    mech, prior = _load_analysis_spec(opts.mechanism)
    if isinstance(mech, FiniteMechanism):
        if opts.y_grid is not None:
            raise ValueError("a finite mechanism takes its outcomes from --y, not --y-grid")
        ys = list(mech.y_labels) if opts.y is None else [_parse_finite_y(v, mech) for v in opts.y]
    else:
        if opts.y_grid is not None:
            ys = _grid(opts.y_grid)
        elif opts.y is not None:
            ys = [float(v) for v in opts.y]
        else:
            raise ValueError("continuous mechanism needs --y or --y-grid")
        if not all(math.isfinite(y) for y in ys):
            raise ValueError("outcome y must be finite")
    reports = [pml_report(prior, mech, y) for y in ys]
    _emit(opts, {"y": ys, "pml_nats": [rep.pml for rep in reports],
                 "argmax_label": [rep.argmax_label for rep in reports],
                 "eps_max": [rep.eps_max for rep in reports]},
          {"mechanism-file": opts.mechanism})
    return EXIT_OK


def _parse_finite_y(v, mech):
    for y in mech.y_labels:
        if str(y) == str(v):
            return y
    raise ValueError(f"outcome {v!r} not in mechanism output alphabet")


def cmd_thm3(opts) -> int:
    c, r = opts.eta_poly if opts.eta_poly is not None else (opts.eta, 0.0)
    schedule = EtaSchedule(float(c), float(r))
    if opts.n is not None:
        n_values = [int(opts.n)]
    else:
        start, stop, count = opts.n_range
        count = _count(count, "n-range")
        start = max(start, 1.0)
        if not (start < math.inf and 1.0 <= stop < math.inf):
            raise ValueError("n-range ends must be finite and STOP at least 1")
        n_values = [int(round(v)) for v in np.geomspace(start, stop, count)]
    y = float(opts.y)
    rows = sweep(n_values, float(opts.alpha), schedule, float(opts.epsilon), y)
    ns, bounds, exact = ([row.n for row in rows], [row.bound for row in rows],
                         [row.exact_pml for row in rows])
    _emit(opts, {"n": ns, "lower_bound": bounds, "exact_pml": exact,
                 "enum_pml": [row.enum_pml for row in rows],
                 "eps_max": [row.eps_max for row in rows]}, {})
    if opts.svg:
        series = []
        if rows[0].bound is not None:  # no bound is drawn for y > 0
            series.append(Series("lower bound", tuple(ns), tuple(bounds)))
        series.append(Series("exact PML", tuple(ns), tuple(exact)))
        write_line_chart(opts.svg, series, title="Per-entry PML vs database size",
                         xlabel="n", ylabel="PML (nats)",
                         hlines=[("eps_max", rows[0].eps_max)], logx=len(ns) > 1)
    gaps = [(row.n, abs(row.exact_pml - row.enum_pml)) for row in rows if row.enum_pml is not None]
    misses = [(n, gap) for n, gap in gaps if not gap <= ENUM_TOL]  # NaN misses too
    for n, gap in misses:
        print(f"thm3: n = {n}: |exact_pml - enum_pml| = {gap:.3g}, more than {ENUM_TOL:g}",
              file=sys.stderr)
    return EXIT_TOLERANCE if misses else EXIT_OK


def cmd_bob(opts) -> int:
    k = int(opts.k)
    if k > MAX_COUNT:  # before the k-label prior and mechanism are built
        raise ValueError(f"k must be at most {MAX_COUNT}, got {k}")
    epsilon = float(opts.epsilon)
    model = BobModel(k=k, scale=float(opts.scale))
    if opts.y_grid is not None:
        ys = _grid(opts.y_grid)
    elif 4 * k + 5 > MAX_COUNT:
        raise ValueError(f"k = {k} asks for a default grid of 4k + 5 points, more than "
                         f"{MAX_COUNT}; give --y-grid")
    else:
        ys = _grid((0.0, (k + 1) * model.scale, 4 * k + 5))
    prior, mech = model.attribute_prior(), bob_mechanism(model, epsilon)
    reports = [pml_report(prior, mech, y) for y in ys]
    _emit(opts, {"y": ys, "pml_nats": [rep.pml for rep in reports],
                 "eps_max": [rep.eps_max for rep in reports]},
          {"dp-level": dp_level_laplace(mech)})
    return EXIT_OK


def cmd_oracle(opts) -> int:
    channel = _load_analysis_spec(opts.mechanism)[0] if opts.mechanism else None
    if channel is not None and not isinstance(channel, FiniteMechanism):
        raise ValueError("oracle trials need a finite mechanism")
    report = run_adversary_trials(
        seed=int(opts.seed),
        achievability_trials=int(opts.achievability_trials),
        gain_trials=int(opts.gain_trials),
        kernel_trials=int(opts.kernel_trials),
        tolerance=float(opts.tol),
        channel=channel,
    )
    print(f"seed = {report.seed}")
    print(f"achievability trials = {report.achievability_trials}, "
          f"max |indicator-gain - pml| = {report.max_achievability_gap:.3e}")
    print(f"gain trials = {report.gain_trials}, "
          f"max excess over pml = {report.max_gain_excess:.3e}")
    print(f"kernel trials = {report.kernel_trials}, "
          f"max excess over pml = {report.max_kernel_excess:.3e}")
    print(f"max reference gap = {report.max_reference_gap:.3e}")
    print(f"tolerance = {report.tolerance:.3e}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_dp_check(opts) -> int:
    mech, _ = _load_analysis_spec(opts.mechanism)
    if isinstance(mech, FiniteMechanism):
        level = dp_level_finite(mech, num_entries=int(opts.entries))
    else:
        level = dp_level_laplace(mech)
    print(f"dp level = {level:.12g}")
    if opts.target is not None:
        target, tol = float(opts.target), float(opts.tol)
        if math.isnan(target) or not tol >= 0:
            raise ValueError("target must be a number and tol at least 0")
        ok = level <= target + tol
        print(f"target = {target:.12g}: {'meets' if ok else 'exceeds'}")
        if not ok:
            return EXIT_TOLERANCE
    return EXIT_OK


def build_parser():
    """The pmleak parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="pmleak",
        description="Pointwise maximal leakage analysis of privacy mechanisms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with default option values")
        return p

    def table_output(p):
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--reproducible", action="store_true",
                       help="suppress the timestamp header line")

    p = command("analyze", "PML profile of a mechanism spec file")
    table_output(p)
    p.add_argument("--mechanism", required=True, help="mechanism spec JSON file")
    p.add_argument("--y", nargs="+", help="outcome value(s)")
    p.add_argument("--y-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"))

    p = command("thm3", "correlated-database sweep: bound vs exact PML")
    table_output(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                   default=(10, 2000, 24))
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--eta-poly", nargs=2, type=float, metavar=("C", "R"))
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--y", type=float, default=-0.3)
    p.add_argument("--svg", help="SVG plot output path")

    p = command("bob", "noisy counting-query attribute leakage")
    table_output(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--scale", type=float, default=10_000.0)
    p.add_argument("--y-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"))

    p = command("oracle", "adversary-model validation trials")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--achievability-trials", type=int, default=1000)
    p.add_argument("--gain-trials", type=int, default=10_000)
    p.add_argument("--kernel-trials", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--mechanism", help="fixed finite channel spec (optional)")

    p = command("dp-check", "DP level of a mechanism spec file")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--target", type=float)
    p.add_argument("--entries", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)

    return parser, sub.choices


#: (parser, subcommand parsers), built on the first `main` call and reused
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser, commands = _parser
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values become the subcommand's defaults, so
            # flags > config > built-in defaults; a fresh parser takes
            # them, so they never reach a later call
            parser, commands = build_parser()
            cfg = _load_config(args.config, commands[args.command])
            commands[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
        # looked up at call time, so a rebound cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
