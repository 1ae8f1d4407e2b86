import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pmleak import oracle
from pmleak.leakage import pml, pml_entry
from pmleak.mechanisms import FiniteMechanism
from pmleak.oracle import (GainFunction, GuessKernel, gain_ratio,
                           indicator_gain, randomized_function_ratio,
                           run_adversary_trials)
from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism, pml_d1
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel)
from test_golden import WITHOUT_AVX512


def random_full_support_prior(rng, nx: int, floor: float = 1e-3) -> FiniteDistribution:
    probs = np.clip(rng.dirichlet(np.ones(nx)), floor, None)
    return FiniteDistribution.from_probs(tuple(range(nx)), probs, normalize=True)


def random_channel(rng, nx: int, ny: int) -> FiniteMechanism:
    rows = rng.dirichlet(np.ones(ny), size=nx)
    return FiniteMechanism.from_probs(tuple(range(nx)), tuple(range(ny)), rows)


def random_gain(rng, nx: int, nw: int) -> GainFunction:
    return GainFunction(rng.random((nx, nw)))


def random_kernel(rng, nx: int, nu: int) -> GuessKernel:
    return GuessKernel(rng.dirichlet(np.ones(nu), size=nx))


def scenario(seed=0, nx=4, ny=5):
    rng = np.random.default_rng(seed)
    prior = random_full_support_prior(rng, nx)
    mech = random_channel(rng, nx, ny)
    y = mech.y_labels[2]
    lls = [mech.log_likelihood(x, y) for x in mech.x_labels]
    return prior, lls


class TestGainRatio:
    def test_constant_gain_ratio_one(self):
        prior, lls = scenario()
        g = GainFunction(np.full((4, 3), 2.5))
        assert gain_ratio(prior, lls, g) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_gain_is_posterior_prior_ratio(self):
        prior, lls = scenario()
        from pmleak.oracle import posterior_probs
        post = posterior_probs(prior, lls)
        for j in range(prior.size):
            want = math.log(post[j]) - prior.logp[j]
            got = gain_ratio(prior, lls, indicator_gain(prior.size, j))
            assert got == pytest.approx(want, abs=1e-12)

    def test_indicator_achievability(self):
        for seed in range(50):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            best = max(gain_ratio(prior, lls, indicator_gain(prior.size, j))
                       for j in range(prior.size))
            assert abs(best - target) <= 1e-12

    def test_random_gains_never_exceed_pml(self):
        rng = np.random.default_rng(42)
        for seed in range(200):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            g = random_gain(rng, prior.size, int(rng.integers(1, 7)))
            assert gain_ratio(prior, lls, g) <= target + 1e-12

    def test_all_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="degenerate gain"):
            GainFunction(np.zeros((3, 2)))

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GainFunction(np.array([[1.0, -0.1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, bad):
        with pytest.raises(ValueError, match="gain values must be finite"):
            GainFunction(np.array([[bad], [1.0]]))


class TestRandomizedFunctionRatio:
    def test_independent_feature_leaks_nothing(self):
        prior, lls = scenario()
        k = GuessKernel(np.tile([0.3, 0.7], (4, 1)))
        assert randomized_function_ratio(prior, lls, k) == pytest.approx(0.0, abs=1e-14)

    def test_identity_feature_under_uniform_prior(self):
        nx = 4
        prior = FiniteDistribution.uniform(tuple(range(nx)))
        rng = np.random.default_rng(1)
        mech = random_channel(rng, nx, 3)
        y = mech.y_labels[0]
        lls = [mech.log_likelihood(x, y) for x in mech.x_labels]
        k = GuessKernel(np.eye(nx))
        # for uniform priors the identity feature attains the pml
        assert randomized_function_ratio(prior, lls, k) == pytest.approx(
            pml(prior, lls), abs=1e-12)

    def test_random_kernels_never_exceed_pml(self):
        rng = np.random.default_rng(7)
        for seed in range(200):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            k = random_kernel(rng, prior.size, int(rng.integers(1, 7)))
            assert randomized_function_ratio(prior, lls, k) <= target + 1e-12

    def test_kernel_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GuessKernel(np.array([[0.5, 0.4]]))

    def test_kernel_row_tolerance_is_absolute(self):
        # no relative slack on top of |row sum - 1| <= 1e-9
        for row in ([0.5, 0.5 + 1e-6], [0.5, 0.500009]):
            with pytest.raises(ValueError, match="sum to 1"):
                GuessKernel(np.array([row]))
        GuessKernel(np.array([[0.5, 0.5 + 5e-10]]))


class TestEnumerateJoint:
    def test_correlated_model_atom_count_and_mass(self):
        joint = ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5))
        atoms = list(joint.atoms())
        assert len(atoms) == 16
        assert math.fsum(math.exp(lp) for _, lp in atoms) == pytest.approx(1.0)

    def test_product_atom_mass(self):
        model = ProductModel((FiniteDistribution.from_probs((0, 1), (0.7, 0.3)),) * 3)
        joint = ExplicitJointModel.from_model(model)
        assert math.exp(joint.log_masses(np.array([[1, 1, 0]]))[0]) == pytest.approx(0.063)

    def test_conditional_all_ones_mass(self):
        # P(tail all ones | D_1 = 1) = eta
        joint = ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5))
        assert math.exp(joint.log_masses(np.array([[1, 1, 1, 1]]))[0]) / 0.75 == pytest.approx(0.5)

    def test_cutoff(self):
        with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
            ExplicitJointModel.from_model(CorrelatedBinaryModel(20, 0.25, 0.5))

    def test_consistency_with_structured_queries(self):
        model = CorrelatedBinaryModel(6, 0.3, 0.4)
        joint = ExplicitJointModel.from_model(model)
        mech = calibrated_mechanism(model, 1.0)
        for y in (-0.7, -0.1):
            assert pml_entry(joint, mech, 0, y).pml == pytest.approx(
                pml_d1(model, 1.0, y), abs=1e-9)


class TestTrials:
    def test_small_run_passes(self):
        report = run_adversary_trials(seed=5, achievability_trials=50,
                                      gain_trials=200, kernel_trials=200)
        assert report.passed
        assert report.max_achievability_gap <= 1e-12

    def test_empty_trial_set_rejected(self):
        with pytest.raises(ValueError, match="empty trial set"):
            run_adversary_trials(gain_trials=0)

    @pytest.mark.parametrize("sizes, message", [
        (dict(max_alphabet=1), "max_alphabet must be at least 2"),
        (dict(max_guesses=0), "max_guesses must be at least 1"),
        (dict(max_alphabet=2.5), "max_alphabet must be an integer"),
        (dict(max_guesses=1.5), "max_guesses must be an integer"),
    ], ids=["max-alphabet", "max-guesses", "max-alphabet-fraction", "max-guesses-fraction"])
    def test_alphabet_sizes_validated(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            run_adversary_trials(achievability_trials=1, gain_trials=1, kernel_trials=1,
                                 **sizes)

    def test_deterministic_under_seed(self):
        a = run_adversary_trials(seed=9, achievability_trials=20,
                                 gain_trials=50, kernel_trials=50)
        b = run_adversary_trials(seed=9, achievability_trials=20,
                                 gain_trials=50, kernel_trials=50)
        assert a == b


# an all-zero output column (P_Y(2) = 0) and a zero in column 1
ZERO_MASS_CHANNEL = FiniteMechanism.from_probs(
    (0, 1, 2), (0, 1, 2), [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])


class TestBatch:
    """The block path against the scalar functions it replaces."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("channel", [None, ZERO_MASS_CHANNEL],
                             ids=["random-channels", "zero-mass-channel"])
    def test_block_matches_scalar_reference(self, channel):
        rng = np.random.default_rng(11)
        s = oracle._draw_scenarios(rng, oracle._BLOCK, 8, channel)
        g, nw = oracle._draw_gains(rng, s.valid, 8)
        k, nu = oracle._draw_kernels(rng, s.valid, 8)
        # the trial axis last and contiguous, so each reduction runs over rows
        for drawn in (s.valid, s.prior, s.lls, s.post, g, k):
            assert drawn.shape[-1] == oracle._BLOCK and drawn.flags.c_contiguous
        best = oracle._indicator_ratios(s)
        gains = oracle._gain_ratios(s, g)
        kernels = oracle._kernel_ratios(s, k)
        for t in range(256):
            nx = int(s.valid[:, t].sum())
            assert not s.valid[nx:, t].any()
            prior = FiniteDistribution.from_probs(range(nx), s.prior[:nx, t])
            lls = list(s.lls[:nx, t])
            assert s.target[t] == pytest.approx(pml(prior, lls), abs=1e-13)
            indicator = max(gain_ratio(prior, lls, indicator_gain(nx, j)) for j in range(nx))
            assert best[t] == pytest.approx(indicator, abs=1e-13)
            gain = GainFunction(g[:nx, :nw[t], t])
            assert gains[t] == pytest.approx(gain_ratio(prior, lls, gain), abs=1e-13)
            kernel = GuessKernel(k[:nx, :nu[t], t])
            assert kernels[t] == pytest.approx(
                randomized_function_ratio(prior, lls, kernel), abs=1e-13)
        if channel is not None:  # the zero-mass outcome leaks nothing
            dead = s.lls.max(axis=0) == -math.inf
            assert dead.any() and np.all(s.target[dead] == 0.0)
            assert np.array_equal(s.post[:, dead], s.prior[:, dead])

    def test_indicator_replay_scores_two_secrets(self, monkeypatch):
        # replaying every indicator gain would cost O(nx^2) per block
        rng = np.random.default_rng(5)
        nx = 4000
        channel = FiniteMechanism.from_probs(range(nx), (0, 1), rng.dirichlet((1, 1), size=nx))
        calls = []
        score = oracle.gain_ratio
        monkeypatch.setattr(oracle, "gain_ratio", lambda *a: calls.append(a) or score(*a))
        high, low, gap = oracle._block(rng, 1, oracle._indicators, 8, 8, channel)
        assert 1 <= len(calls) <= 2
        assert max(high, -low, gap) <= 1e-12

    @staticmethod
    def record_block_sizes(monkeypatch):
        sizes = []
        draw = oracle._draw_scenarios

        def recording(rng, size, *args):
            sizes.append(size)
            return draw(rng, size, *args)

        monkeypatch.setattr(oracle, "_draw_scenarios", recording)
        return sizes

    def test_counts_off_the_block_size_run_exactly(self, monkeypatch):
        sizes = self.record_block_sizes(monkeypatch)
        report = run_adversary_trials(seed=3, achievability_trials=1,
                                      gain_trials=1023, kernel_trials=1025)
        assert oracle._BLOCK == 1024
        assert sizes == [1, 1023, 1024, 1]
        assert report.passed

    def test_wide_channel_takes_smaller_blocks(self, monkeypatch):
        # 256 secrets x 8 guesses: 32 trials keep a block at _BLOCK_ENTRIES
        sizes = self.record_block_sizes(monkeypatch)
        rows = np.random.default_rng(0).dirichlet(np.ones(2), size=256)
        channel = FiniteMechanism.from_probs(range(256), (0, 1), rows)
        report = run_adversary_trials(seed=3, achievability_trials=40, gain_trials=32,
                                      kernel_trials=1, channel=channel)
        assert sizes == [32, 8, 32, 1]
        assert report.passed

    def test_reference_gap_catches_a_wrong_scalar_pml(self, monkeypatch):
        counts = dict(achievability_trials=10, gain_trials=10, kernel_trials=10)
        report = run_adversary_trials(seed=5, **counts)
        assert 0.0 <= report.max_reference_gap <= 1e-13 and report.passed
        monkeypatch.setattr(oracle, "pml", lambda prior, lls: pml(prior, lls) + 1e-9)
        report = run_adversary_trials(seed=5, **counts)
        assert report.max_reference_gap == pytest.approx(1e-9, rel=1e-3)
        assert not report.passed


class _StubGenerator:
    """A seeded generator whose draws of the named kinds are one constant."""

    def __init__(self, **fills):
        self._rng = np.random.default_rng(0)
        self._fills = fills

    def __getattr__(self, name):
        if name in self._fills:
            return lambda shape: np.full(shape, self._fills[name])
        return getattr(self._rng, name)


#: (secrets, trials)
VALID = np.ones((3, 4), dtype=bool)


@pytest.mark.parametrize("draw, fills, message", [
    (lambda rng: oracle._draw_scenarios(rng, 4, 3, None),
     {"random": 2.0}, "channel entry for 0 is exp"),
    (lambda rng: oracle._draw_scenarios(rng, 4, 3, ZERO_MASS_CHANNEL),
     {"standard_exponential": 0.0}, "full-support prior"),
    (lambda rng: oracle._draw_gains(rng, VALID, 3), {"random": -0.5}, "non-negative"),
    (lambda rng: oracle._draw_gains(rng, VALID, 3), {"random": 0.0}, "degenerate gain"),
    (lambda rng: oracle._draw_kernels(rng, VALID, 3),
     {"standard_exponential": 0.0}, "kernel rows must sum to 1"),
], ids=["channel-row-mass", "prior-support", "negative-gain", "zero-gain", "kernel-rows"])
def test_block_draws_are_validated(draw, fills, message):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        draw(_StubGenerator(**fills))


def full_channel_entries(rng, trials, width):
    """P(y | x) over each trial's 2..width secrets, read off a full channel with
    uniform Dirichlet rows over 2..width outcomes at a uniform outcome y: the
    law `_random_channels` draws one column of, in trial order."""
    nx = rng.integers(2, width + 1, size=trials)
    ny = rng.integers(2, width + 1, size=trials)
    column = np.empty((trials, width))
    for k in range(2, width + 1):
        group = np.flatnonzero(ny == k)
        rows = rng.dirichlet(np.ones(k), size=(len(group), width))
        column[group] = rows[np.arange(len(group)), :, rng.integers(0, k, size=len(group))]
    return column[np.arange(width) < nx[:, None]]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, points, side="right") / len(a)
                               - np.searchsorted(b, points, side="right") / len(b))))


class TestRandomChannels:
    """The one-column draw against the full-channel sampler it replaces."""

    def test_entries_follow_the_full_channel_law(self):
        n = 10 ** 6
        valid, lls = oracle._random_channels(np.random.default_rng(1), 210_000, 8)
        drawn = np.exp(lls[valid])
        reference = full_channel_entries(np.random.default_rng(2), 210_000, 8)
        assert len(drawn) >= n and len(reference) >= n
        assert np.all((drawn >= 0) & (drawn <= 1))
        # 1 % critical value of the two-sample test, n entries a side
        critical = math.sqrt(-math.log(0.01 / 2) / 2) * math.sqrt(2 / n)
        assert ks_distance(drawn[:n], reference[:n]) < critical

    def test_no_full_channel_is_allocated(self):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            oracle._draw_scenarios(rng, oracle._BLOCK, 8, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < oracle._BLOCK * 8 * 8 * np.dtype(float).itemsize


# Every field of the report at seed 2024, floats as hex.  A change that moves
# any of them lists the move in CHANGES.md.
GOLDEN_REPORTS = {
    "default-counts": (dict(), {
        "seed": 2024, "achievability_trials": 1000, "gain_trials": 10000,
        "kernel_trials": 10000,
        "max_achievability_gap": "0x1.2000000000000p-50",
        "max_gain_excess": "-0x1.cb6570af1b000p-14",
        "max_kernel_excess": "-0x1.26bdf66095000p-18",
        "max_reference_gap": "0x1.0000000000000p-51",
        "tolerance": "0x1.19799812dea11p-40"}),
    "zero-mass-channel": (dict(achievability_trials=100, gain_trials=1000,
                               kernel_trials=1000, channel=ZERO_MASS_CHANNEL), {
        "seed": 2024, "achievability_trials": 100, "gain_trials": 1000,
        "kernel_trials": 1000,
        "max_achievability_gap": "0x1.0000000000000p-51",
        "max_gain_excess": "0x0.0p+0",
        "max_kernel_excess": "0x0.0p+0",
        "max_reference_gap": "0x1.0000000000000p-52",
        "tolerance": "0x1.19799812dea11p-40"}),
}


def pinned_report(name):
    """The report of GOLDEN_REPORTS[name] at seed 2024, floats as hex, and
    whether it passed."""
    report = run_adversary_trials(seed=2024, **GOLDEN_REPORTS[name][0])
    return ({k: v.hex() if isinstance(v, float) else v
             for k, v in dataclasses.asdict(report).items()}, report.passed)


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_seed_2024_reports_are_pinned(name):
    assert pinned_report(name) == (GOLDEN_REPORTS[name][1], True)


def test_seed_2024_reports_without_avx512_loops():
    # numpy's float64 exp, log1p and expm1 take other loops in a process
    # that has the AVX-512 ones switched off; the pins hold on either
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, test_oracle; print(json.dumps("
            "{name: test_oracle.pinned_report(name) for name in test_oracle.GOLDEN_REPORTS}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=pathlib.Path(__file__).parent).stdout
    got = json.loads(out.strip().splitlines()[-1])
    assert got == {name: [want, True] for name, (_, want) in GOLDEN_REPORTS.items()}
