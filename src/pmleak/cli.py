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
from .constructions import (BobModel, EtaSchedule, bob_mechanism, bob_pml,
                            sweep)
from .leakage import eps_max, pml_report
from .mechanisms import (FiniteMechanism, dp_level_finite, dp_level_laplace,
                         mechanism_from_dict)
from .oracle import run_adversary_trials
from .probability import FiniteDistribution
from .svgplot import Series, write_line_chart
from .tables import ResultTable

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2

#: namespace entries that are plumbing or output paths, not run parameters
_NOT_META = frozenset({"command", "func", "config", "mechanism", "out", "svg",
                       "reproducible"})

#: most points a grid or n-range COUNT may ask for
MAX_COUNT = 1_000_000


def _load_config(path, options):
    """Config-file values keyed by option dest; every key must name an option."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    out = {}
    for key, value in cfg.items():
        k = key.replace("-", "_")
        if k not in options or k in ("command", "func", "config"):
            raise ValueError(f"unknown config field {key!r}")
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
    prior_probs = raw.get("prior")
    if isinstance(mech, FiniteMechanism):
        labels = mech.x_labels
    elif mech.labels is not None:
        labels = mech.labels
    else:
        raise ValueError("mechanism spec needs labels")
    if prior_probs is None:
        return mech, FiniteDistribution.uniform(labels)
    return mech, FiniteDistribution.from_probs(labels, prior_probs)


def _base_meta(command, opts, seed=None):
    meta = {"tool": "pmleak", "version": __version__, "command": command}
    for key, value in sorted(vars(opts).items()):
        if key not in _NOT_META and value is not None:
            meta[key.replace("_", "-")] = value
    if seed is not None:
        meta["seed"] = seed
    return meta


def _emit(table, opts):
    text = table.to_csv(reproducible=bool(opts.reproducible))
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(opts) -> int:
    mech, prior = _load_analysis_spec(opts.mechanism)
    if isinstance(mech, FiniteMechanism):
        if opts.y is not None:
            ys = [_parse_finite_y(v, mech) for v in opts.y]
        else:
            ys = list(mech.y_labels)
    else:
        if opts.y_grid is not None:
            ys = _grid(opts.y_grid)
        elif opts.y is not None:
            ys = [float(v) for v in opts.y]
        else:
            raise ValueError("continuous mechanism needs --y or --y-grid")
        if not all(math.isfinite(y) for y in ys):
            raise ValueError("outcome y must be finite")
    table = ResultTable(("y", "pml_nats", "argmax_label", "eps_max"),
                        meta=_base_meta("analyze", opts))
    table.meta["mechanism-file"] = opts.mechanism
    for y in ys:
        rep = pml_report(prior, mech, y)
        table.append(y, rep.pml, rep.argmax_label, rep.eps_max)
    _emit(table, opts)
    return EXIT_OK


def _parse_finite_y(v, mech):
    for y in mech.y_labels:
        if str(y) == str(v):
            return y
    raise ValueError(f"outcome {v!r} not in mechanism output alphabet")


def cmd_thm3(opts) -> int:
    if opts.eta_poly is not None:
        c, r = opts.eta_poly
        schedule = EtaSchedule.polynomial(float(c), float(r))
    else:
        schedule = EtaSchedule.constant(float(opts.eta))
    if opts.n is not None:
        n_values = [int(opts.n)]
    else:
        start, stop, count = opts.n_range
        count = _count(count, "n-range")
        start = max(start, 1.0)
        if not (start < math.inf and 1.0 <= stop < math.inf):
            raise ValueError("n-range ends must be finite and STOP at least 1")
        n_values = sorted({int(round(v)) for v in np.geomspace(start, stop, count)})
    y = float(opts.y)
    rows = sweep(n_values, float(opts.alpha), schedule, float(opts.epsilon), y)
    table = ResultTable(("n", "lower_bound", "exact_pml", "enum_pml", "eps_max"),
                        meta=_base_meta("thm3", opts))
    for row in rows:
        table.append(row.n, row.bound, row.exact_pml, row.enum_pml, row.eps_max)
    _emit(table, opts)
    if opts.svg:
        ns = [row.n for row in rows]
        series = []
        if rows and rows[0].bound is not None:  # no bound is drawn for y > 0
            series.append(Series("lower bound", tuple(ns), tuple(row.bound for row in rows)))
        series.append(Series("exact PML", tuple(ns), tuple(row.exact_pml for row in rows)))
        em = rows[0].eps_max if rows else 0.0
        write_line_chart(opts.svg, series, title="Per-entry PML vs database size",
                         xlabel="n", ylabel="PML (nats)",
                         hlines=[("eps_max", em)], logx=len(ns) > 1 and min(ns) > 0)
    return EXIT_OK


def cmd_bob(opts) -> int:
    k = int(opts.k)
    epsilon = float(opts.epsilon)
    model = BobModel(k=k, scale=float(opts.scale))
    if opts.y_grid is not None:
        ys = _grid(opts.y_grid)
    else:
        ys = _grid((0.0, (k + 1) * model.scale, 4 * k + 5))
    em = eps_max(model.attribute_prior())
    table = ResultTable(("y", "pml_nats", "eps_max"), meta=_base_meta("bob", opts))
    table.meta["dp-level"] = dp_level_laplace(bob_mechanism(model, epsilon))
    for y in ys:
        table.append(y, bob_pml(model, epsilon, y), em)
    _emit(table, opts)
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
        target = float(opts.target)
        ok = level <= target + float(opts.tol)
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

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with default option values")
        p.set_defaults(func=func)
        return p

    def table_output(p):
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--reproducible", action="store_true",
                       help="suppress the timestamp header line")

    p = command("analyze", cmd_analyze, "PML profile of a mechanism spec file")
    table_output(p)
    p.add_argument("--mechanism", required=True, help="mechanism spec JSON file")
    p.add_argument("--y", nargs="+", help="outcome value(s)")
    p.add_argument("--y-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"))

    p = command("thm3", cmd_thm3, "correlated-database sweep: bound vs exact PML")
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

    p = command("bob", cmd_bob, "noisy counting-query attribute leakage")
    table_output(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--scale", type=float, default=10_000.0)
    p.add_argument("--y-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"))

    p = command("oracle", cmd_oracle, "adversary-model validation trials")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--achievability-trials", type=int, default=1000)
    p.add_argument("--gain-trials", type=int, default=10_000)
    p.add_argument("--kernel-trials", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--mechanism", help="fixed finite channel spec (optional)")

    p = command("dp-check", cmd_dp_check, "DP level of a mechanism spec file")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--target", type=float)
    p.add_argument("--entries", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values become the subcommand's defaults, so
            # flags > config > built-in defaults
            cfg = _load_config(args.config, vars(args))
            commands[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
