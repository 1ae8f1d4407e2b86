"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Each workload is a list of operations.  The library only sees the inputs
generated here, and it is called through module attributes so that the
traced run's rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pmleak import cli, constructions, leakage, mechanisms, oracle

import checks


@dataclass
class Op:
    """One operation: the call, the check of its output, how many ops it is.

    `outputs` are the files the call writes; they are removed before each
    call so that a check never reads what an earlier pass left behind.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    weight: int = 1
    outputs: tuple = ()


class Workload:
    name = ""
    ops: list
    max_err = None  # largest |value - reference|, where a reference exists

    @property
    def ops_per_pass(self) -> int:
        return sum(op.weight for op in self.ops)

    def prepare(self):
        """Work needed only to check outputs; runs outside any timed region."""

    def run_pass(self) -> list:
        outs = []
        for op in self.ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            try:
                outs.append(op.run())
            except Exception as exc:  # counted as a failed operation, not fatal
                outs.append(exc)
        return outs

    def check_pass(self, outs) -> tuple[int, list]:
        """(failed operations, problems) of one pass's outputs."""
        failed, problems = 0, []
        for op, out in zip(self.ops, outs):
            if isinstance(out, Exception):
                found = [f"{op.label}: raised {out!r}"]
            else:
                try:
                    found = op.check(out)
                except Exception as exc:  # a check that cannot run fails its op
                    found = [f"{op.label}: check raised {exc!r}"]
            if found:
                failed += op.weight
                problems.extend(found)
        return failed, problems


class SweepEnum(Workload):
    """The results/ commands through pmleak.cli.main, then criterion 8's checks."""

    name = "sweep_enum"
    SWEEPS = (("sweep_eta_constant", ("--eta", "0.5")),
              ("sweep_eta_polynomial", ("--eta-poly", "1.0", "1.0")))
    FLIP_PROBS = (0.1, 0.25, 0.4)
    ENTRIES = (1, 2, 3)

    def __init__(self, root: Path, workdir: Path, seed: int):
        results = root / "results"
        self.ops = []
        for stem, eta in self.SWEEPS:
            csv_path, svg_path = workdir / f"{stem}.csv", workdir / f"{stem}.svg"
            argv = ["thm3", "--n-range", "4", "4096", "24", "--alpha", "0.25", *eta,
                    "--epsilon", "0.1", "--y", "-0.3", "--reproducible",
                    "--out", str(csv_path), "--svg", str(svg_path)]
            expected = ((results / f"{stem}.csv").read_bytes(),
                        (results / f"{stem}.svg").read_bytes())
            self.ops.append(Op(f"thm3 {stem}", self._cli(argv),
                               self._sweep_check(stem, csv_path, svg_path, expected),
                               outputs=(csv_path, svg_path)))
        bob_path = workdir / "counting_query.csv"
        bob_argv = ["bob", "--k", "5", "--epsilon", "0.1", "--reproducible",
                    "--out", str(bob_path)]
        bob_expected = (results / "counting_query.csv").read_bytes()
        self.ops.append(Op("bob --k 5", self._cli(bob_argv),
                           lambda code: self._exit(code) or checks.check_bytes(
                               bob_path.read_bytes(), bob_expected, "counting_query.csv"),
                           outputs=(bob_path,)))
        rng = np.random.default_rng(seed)
        for p in self.FLIP_PROBS:
            for n in self.ENTRIES:
                prior_seed = int(rng.integers(2 ** 31))
                self.ops.append(Op(f"theorem2_check p={p} n={n}",
                                   self._theorem2(p, n, prior_seed), checks.check_theorem2))

    @staticmethod
    def _cli(argv):
        return lambda: cli.main(argv)

    @staticmethod
    def _exit(code):
        return [] if code == 0 else [f"exit code {code}"]

    def _sweep_check(self, stem, csv_path, svg_path, expected):
        def check(code):
            if code != 0:
                return self._exit(code)
            text = csv_path.read_bytes()
            return (checks.check_bytes(text, expected[0], f"{stem}.csv")
                    + checks.check_bytes(svg_path.read_bytes(), expected[1], f"{stem}.svg")
                    + checks.check_sweep_rows(text.decode()))
        return check

    @staticmethod
    def _theorem2(p, n, prior_seed):
        level = math.log((1.0 - p) / p)

        def run():
            mech = mechanisms.product_mechanism(mechanisms.randomized_response(p), n)
            return leakage.theorem2_check(mech, level, n, (0, 1), prior_samples=50,
                                          grid_resolution=99, seed=prior_seed,
                                          grid_span=(0.01, 0.99))
        return run


class LargeNDensity(Workload):
    """pml_d1 on the correlated model at n = 1e2 ... 1e6, four outcomes per n."""

    name = "large_n_density"
    SIZES = tuple(10 ** k for k in range(2, 7))
    ALPHA, ETA, EPSILON = 0.25, 0.5, 0.1

    def __init__(self, root: Path, workdir: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.outcomes = []
        for n in self.SIZES:
            m = n + 1
            center = int(rng.integers(1, n + 1))
            between = int(rng.integers(0, n + 1)) + float(rng.uniform(0.1, 0.9))
            for y in (-float(rng.uniform(0.05, 1.0)), 0.0, center / m, between / m):
                self.outcomes.append((n, y))
        self.ops = [Op(f"pml_d1 n={n} y={y!r}", self._pml(n, y), self._checker(i))
                    for i, (n, y) in enumerate(self.outcomes)]
        self.references = None
        self.max_err = 0.0

    def _pml(self, n, y):
        model = constructions.CorrelatedBinaryModel(n, self.ALPHA, self.ETA)
        return lambda: constructions.pml_d1(model, self.EPSILON, y)

    def _checker(self, i):
        def check(value):
            ref = self.references[i]
            if math.isfinite(value):
                self.max_err = max(self.max_err, abs(value - ref))
            return checks.check_density(value, ref)
        return check

    def prepare(self):
        # mpmath loads only here, so set-up probes never pay for it
        import reference
        self.references = [reference.reference_pml_d1(n, self.ALPHA, self.ETA,
                                                      self.EPSILON, y)
                           for n, y in self.outcomes]


class AdversaryTrials(Workload):
    """Adversary trials on random channels, then on one fixed seeded channel."""

    name = "adversary_trials"
    TRIALS = (1000, 10_000, 10_000)  # achievability, gain, kernel: the defaults
    FIXED_TRIALS = tuple(t // 10 for t in TRIALS)
    FIXED_SIZE = 8

    def __init__(self, root: Path, workdir: Path, seed: int):
        rng = np.random.default_rng(seed)
        trial_seed, fixed_seed = (int(s) for s in rng.integers(2 ** 31, size=2))
        rows = rng.dirichlet(np.ones(self.FIXED_SIZE), size=self.FIXED_SIZE)
        labels = list(range(self.FIXED_SIZE))
        spec = workdir / "channel.json"
        spec.write_text(json.dumps({"kind": "finite", "x_labels": labels,
                                    "y_labels": labels, "rows": rows.tolist()}))
        a, g, k = self.TRIALS
        self.ops = [
            Op("run_adversary_trials",
               lambda: oracle.run_adversary_trials(
                   seed=trial_seed, achievability_trials=a, gain_trials=g,
                   kernel_trials=k, max_alphabet=8, max_guesses=8),
               lambda report: checks.check_oracle_report(report, self.TRIALS),
               weight=sum(self.TRIALS)),
            Op("oracle --mechanism", self._oracle_cli(fixed_seed, spec),
               lambda out: checks.check_oracle_cli(*out), weight=sum(self.FIXED_TRIALS)),
        ]

    def _oracle_cli(self, seed, spec):
        a, g, k = self.FIXED_TRIALS
        argv = ["oracle", "--seed", str(seed), "--mechanism", str(spec),
                "--achievability-trials", str(a), "--gain-trials", str(g),
                "--kernel-trials", str(k)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        return run


WORKLOADS = {w.name: w for w in (SweepEnum, LargeNDensity, AdversaryTrials)}
