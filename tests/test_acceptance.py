"""Acceptance suite: the headline claims, each printing one PASS/FAIL line.

Every criterion is a single test with its tolerance and runtime budget
stated inline.  The status line is emitted outside pytest's capture so
all eleven lines show on every run, pass or fail.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pmleak.cli import EXIT_OK, main
from pmleak.constructions import (BobModel, CorrelatedBinaryModel, EtaSchedule,
                                  bob_pml, calibrated_scale,
                                  cond_density_binomial,
                                  cond_density_closed_form, find_limit_n,
                                  lower_bound, pml_d1)
from pmleak.leakage import pml_entry, pml_report, theorem2_check
from pmleak.mechanisms import (FiniteMechanism, laplace_for_query,
                               product_mechanism, randomized_response)
from pmleak.oracle import run_adversary_trials
from pmleak.probability import ExplicitJointModel, FiniteDistribution

Y_GRID = np.linspace(-2.0, 0.0, 21)


@pytest.fixture
def report(capfd):
    def _report(num, name, ok, detail, elapsed, budget):
        status = "PASS" if ok and elapsed < budget else "FAIL"
        with capfd.disabled():
            print(f"\ncriterion {num:>2} [{name}]: {status} ({detail}; "
                  f"{elapsed:.2f}s of {budget:g}s budget)")
        assert ok, detail
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget:g}s"
    return _report


def test_criterion_01_closed_form_equivalence(report):
    t0 = time.perf_counter()
    worst = 0.0
    for n, epsilon in itertools.product((6, 10, 15, 30, 60), (0.1, 1.0, 2.0)):
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, epsilon)
        for d1 in (0, 1):
            for y in Y_GRID:
                closed = cond_density_closed_form(model, b, d1, float(y))
                binom = cond_density_binomial(model, b, d1, float(y))
                # both values are log densities, so their difference is the
                # relative density error to first order
                worst = max(worst, abs(math.expm1(closed - binom)))
    report(1, "closed-form equivalence", worst <= 1e-10,
           f"max rel err {worst:.2e} <= 1e-10", time.perf_counter() - t0, 5.0)


def test_criterion_02_enumeration_ground_truth(report):
    t0 = time.perf_counter()
    worst_density = 0.0
    worst_pml = 0.0
    for n in (3, 8, 15):
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        epsilon = 1.0
        b = calibrated_scale(n, epsilon)
        # direct linear-domain mixture over all 2^n tails
        w_peak = 0.5
        w_rest = 0.5 / (2 ** n - 1)
        for d1 in (0, 1):
            for y in (-1.0, -0.3, 0.2):
                total = 0.0
                for rest in itertools.product((0, 1), repeat=n):
                    w = w_peak if all(s == d1 for s in rest) else w_rest
                    center = (d1 + sum(rest)) / (n + 1)
                    total += w * math.exp(-abs(y - center) / b) / (2 * b)
                got = math.exp(cond_density_binomial(model, b, d1, y))
                worst_density = max(worst_density, abs(got - total) / total)
        joint = ExplicitJointModel.from_model(model)
        from pmleak.constructions import calibrated_mechanism
        mech = calibrated_mechanism(model, epsilon)
        for y in (-1.0, -0.3):
            a = pml_entry(joint, mech, 0, y).pml
            bb = pml_d1(model, epsilon, y)
            worst_pml = max(worst_pml, abs(a - bb))
    ok = worst_density <= 1e-10 and worst_pml <= 1e-9
    report(2, "enumeration ground truth", ok,
           f"density rel err {worst_density:.2e} <= 1e-10, "
           f"pml err {worst_pml:.2e} <= 1e-9", time.perf_counter() - t0, 30.0)


def test_criterion_03_sandwich(report):
    t0 = time.perf_counter()
    alpha, eta = 0.25, 0.5
    cap = math.log(1.0 / alpha)
    ok = True
    detail = "bound <= pml <= log(1/alpha) on full grid"
    for n in (6, 10, 15, 30, 60, 100, 500, 2000):
        model = CorrelatedBinaryModel(n, alpha, eta)
        for epsilon in (0.1, 1.0, 2.0):
            bound = lower_bound(n, alpha, eta, epsilon)
            for y in Y_GRID:
                value = pml_d1(model, epsilon, float(y))
                if not (bound <= value + 1e-12 and value <= cap):
                    ok = False
                    detail = (f"violated at n={n}, eps={epsilon}, y={y:.2f}: "
                              f"bound={bound:.6g}, pml={value:.6g}")
    report(3, "sandwich", ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_04_limit_constant_eta(report):
    t0 = time.perf_counter()
    n = find_limit_n(0.25, EtaSchedule.constant(0.5), 0.1, 0.01)
    gap = math.log(4.0) - lower_bound(n, 0.25, 0.5, 0.1)
    ok = n == 128 and gap < 0.01  # frozen regression value from doubling search
    report(4, "limit, constant eta", ok,
           f"n={n} (expected 128), gap {gap:.2e} < 0.01",
           time.perf_counter() - t0, 5.0)


def test_criterion_05_limit_polynomial_eta(report):
    t0 = time.perf_counter()
    schedule = EtaSchedule.polynomial(1.0, 1.0)  # eta(n) = 1/n
    n = find_limit_n(0.25, schedule, 0.1, 0.01)
    gap = math.log(4.0) - lower_bound(n, 0.25, schedule.eta(n), 0.1)
    ok = n == 256 and gap < 0.01  # frozen regression value from doubling search
    report(5, "limit, polynomial eta", ok,
           f"n={n} (expected 256), gap {gap:.2e} < 0.01",
           time.perf_counter() - t0, 5.0)


def test_criterion_06_universal_bound(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    ok = True
    detail = "0 <= pml <= eps_max + 1e-9 on 1000 random channels"
    for _ in range(1000):
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 9))
        prior = FiniteDistribution.from_probs(
            range(nx), np.clip(rng.dirichlet(np.ones(nx)), 1e-4, None),
            normalize=True)
        mech = FiniteMechanism.from_probs(
            tuple(range(nx)), tuple(range(ny)), rng.dirichlet(np.ones(ny), size=nx))
        for y in mech.y_labels:
            rep = pml_report(prior, mech, y)
            if not (-1e-12 <= rep.pml <= rep.eps_max + 1e-9):
                ok = False
                detail = f"violation: pml={rep.pml}, eps_max={rep.eps_max}"
    report(6, "universal bound", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_07_adversary_oracle(report):
    t0 = time.perf_counter()
    rep = run_adversary_trials(seed=2024, achievability_trials=1000,
                               gain_trials=10_000, kernel_trials=10_000,
                               tolerance=1e-12)
    report(7, "adversary-model oracle", rep.passed,
           f"achievability gap {rep.max_achievability_gap:.2e}, gain excess "
           f"{rep.max_gain_excess:.2e}, kernel excess {rep.max_kernel_excess:.2e}, "
           "all <= 1e-12", time.perf_counter() - t0, 30.0)


def test_criterion_08_dp_equivalence_forward(report):
    t0 = time.perf_counter()
    span = (0.01, 0.99)
    q = span[0]
    ok = True
    details = []
    gaps = []
    for p in (0.1, 0.25, 0.4):
        level = math.log((1.0 - p) / p)
        # The per-entry channel of a product of randomized responses is
        # randomized response itself, so on the prior grid the supremum is
        # reached at its edge q = span[0]: log((1-p) / (p + q(1-2p))), which
        # is log1p(q(1-2p)/p) below the level.
        edge = math.log((1.0 - p) / (p + q * (1.0 - 2.0 * p)))
        worst_gap = -math.inf
        for n in (1, 2, 3):
            mech = product_mechanism(randomized_response(p), n)
            rep = theorem2_check(mech, level, n, (0, 1), prior_samples=50,
                                 grid_resolution=99, seed=8,
                                 grid_span=span)
            if not rep.forward_ok:
                ok = False
                details.append(f"forward violated at p={p}, n={n}")
            if not rep.max_observed_pml >= edge - 1e-9:
                ok = False
                details.append(f"sup {rep.max_observed_pml:.6f} below grid-edge "
                               f"value {edge:.6f} at p={p}, n={n}")
            worst_gap = max(worst_gap, level - rep.max_observed_pml)
        gaps.append(f"p={p}: gap {worst_gap:.4f}, edge {level - edge:.4f}")
    detail = "; ".join((details or [
        "grid-edge value - 1e-9 <= sup per-entry PML <= level + 1e-9"]) + gaps)
    report(8, "DP equivalence, forward", ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_09_counting_query_example(report):
    t0 = time.perf_counter()
    model = BobModel(k=5)
    worst = max(abs(bob_pml(model, 0.1, 10_000.0 * j) - math.log(5.0))
                for j in range(1, 6))
    report(9, "counting-query example", worst <= 1e-6,
           f"max |pml - log 5| at centers {worst:.2e} <= 1e-6",
           time.perf_counter() - t0, 1.0)


def test_criterion_10_laplace_dp_certificate(report):
    t0 = time.perf_counter()
    m = 5
    epsilon = 0.7
    mech = laplace_for_query(lambda x: sum(x) / m, epsilon,
                             num_entries=m, alphabet=(0, 1))
    worst = -math.inf
    for x in itertools.product((0, 1), repeat=m):
        for i in range(m):
            x2 = x[:i] + (1 - x[i],) + x[i + 1:]
            for y in np.linspace(-3, 3, 101):
                worst = max(worst, mech.log_likelihood(x, float(y))
                            - mech.log_likelihood(x2, float(y)))
    report(10, "Laplace DP certificate", worst <= epsilon + 1e-12,
           f"max neighbor log-ratio {worst:.12g} <= eps + 1e-12",
           time.perf_counter() - t0, 5.0)


def test_criterion_11_cli_determinism(report, tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["thm3", "--n-range", "4", "256", "6", "--reproducible"]
    ok = (main(argv + ["--out", str(a)]) == EXIT_OK
          and main(argv + ["--out", str(b)]) == EXIT_OK
          and a.read_bytes() == b.read_bytes())
    report(11, "CLI determinism", ok, "two --reproducible runs byte-identical",
           time.perf_counter() - t0, 30.0)
