import dataclasses
import hashlib
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

    @pytest.mark.parametrize("adversary", [oracle._gains, oracle._kernels],
                             ids=["gains", "kernels"])
    def test_three_dimensional_blocks_stay_small(self, adversary):
        # a float copy of an (A, W, T) mask alone would take _BLOCK_ENTRIES floats
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            oracle._block(rng, oracle._BLOCK, adversary, 8, 8, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * oracle._BLOCK_ENTRIES * np.dtype(float).itemsize

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


#: the numpy ufuncs a block's draws and scores go through
BLOCK_UFUNCS = ("exp", "log", "log1p", "expm1")


def numpy_loops():
    """The SIMD target numpy runs each float64 ufunc of BLOCK_UFUNCS on here."""
    return " ".join(
        f"{f}:" + np.lib.introspect.opt_func_info(f"^{f}$", "float64")[f]["dd"]["current"]
        for f in BLOCK_UFUNCS)


BLOCK_CHANNELS = {"random-channels": None, "zero-mass-channel": ZERO_MASS_CHANNEL}


def block_digests(name):
    """sha256 of every array that one _BLOCK-trial block at seed 11 draws and scores."""
    rng = np.random.default_rng(11)
    s = oracle._draw_scenarios(rng, oracle._BLOCK, 8, BLOCK_CHANNELS[name])
    g, nw = oracle._draw_gains(rng, s.valid, 8)
    k, nu = oracle._draw_kernels(rng, s.valid, 8)
    arrays = {field.name: getattr(s, field.name) for field in dataclasses.fields(s)}
    arrays.update(gains=g, guesses=nw, kernels=k, features=nu,
                  indicator_ratios=oracle._indicator_ratios(s),
                  gain_ratios=oracle._gain_ratios(s, g), kernel_ratios=oracle._kernel_ratios(s, k))
    return {key: hashlib.sha256(a.tobytes()).hexdigest() for key, a in arrays.items()}


# Every lane of a block, where the seed-2024 maxima could hide a moved one:
# {numpy_loops(): {channel: {array: sha256}}}.  numpy's AVX-512 exp and log
# round some lanes differently from its other loops, so each set of loops
# has its own digests.
BLOCK_DIGESTS = {
    "exp:X86_V4 log:X86_V4 log1p:X86_V4 expm1:X86_V4": {
        "random-channels": {
            "valid": "554841efabdfdf1616fa8154f20aa22ff692751e786ca2a860f5e8ed4c858918",
            "prior": "9abd61142172df4b04a6dbce4704bcce59766e6c4310e52b107149b5660147b8",
            "lls": "ceb11030cd340d5cefd6753c8e373de8fd92d8b0741e59a939614a4406bc29c2",
            "target": "0f35eaed74b93d38d1ecddf5f8c95954b47c1ee8ba98dc92432ce334ce5f5de2",
            "post": "2e27f635ca2a9824b561e25c86488e5019411d8a465ff5b9af32b30aadfd6e8c",
            "gains": "dd608dd2bb2fe21a57130e43ee43cac95bd43665aa6d118374fd1d736485db1c",
            "guesses": "590593edb38f8ccdea380c17ad9237354af09e26f8e47fe6fd2709cfbd4d3d5b",
            "kernels": "c35b5f312f2a036c2a8e415755977492c3f07dc0d1dfb78aa7b3d5ae4169d7f2",
            "features": "34ff756fb3cb48d832939afcf39e9b7546c2123ce1397db30ed42bcea9b4a2da",
            "indicator_ratios": "73f4eb06d6913c8ec3d76e7d0b89f0d40eb10116f84852a837a92c775fed4c22",
            "gain_ratios": "eb33162ab97e0797ac9ba1a7b9d452d5e8b9e423426ee3eba8f9917115995aef",
            "kernel_ratios": "4f905cb47059582d636012f525d53a2b21d9d98061f4cad85c365f8ee6a6c6ab",
        },
        "zero-mass-channel": {
            "valid": "f40ae0b5c3ef9b289d6ae6643c8432e77994ad72118031aa7a28aa1357efd88c",
            "prior": "ae5d61af7a165ebdaaa6f6982941ab071187ff6edc15bee2acd780eedb70c92e",
            "lls": "cafbc5f143523164392d5e2cbef2cbbb950ddb5e75b98142c485edcb19aeecb8",
            "target": "15099a4e284672672877ed6c8dbe012642cf05e74ffd261fc5040c2108a2f096",
            "post": "66f203608ac4509af2e09d5dd3a31ba7650641d866c26b1a1f1cdb2b298b0f0d",
            "gains": "86be74164f5ed212e59b947ecadd44752546cc3feda9a50c82b18d898b4813de",
            "guesses": "0751b9fd14c719be70f6b5b803c65727ac985528646ecbfc2ab4046e0d7a7146",
            "kernels": "7ec4c17c6b573df643d4d54b47e10ccc3f62047476304133b8908cb01502a614",
            "features": "eed4b88c2037dc509d324b7d12ea628d2f49ebead728136aa87b48cf4dfe58e0",
            "indicator_ratios": "9a0c3b57e5850356b9943f4f43a10cd9df4046d564e91ce4081deb24d8a128e9",
            "gain_ratios": "c4d407bdd243337cbb10776c55fbbaa7248421bde0bc53d03a0b6ca549dc2625",
            "kernel_ratios": "8d03a915361b26369dc421e06aca2dda8b273b3b86726ce0e8b1fc2feedf6585",
        },
    },
    "exp:X86_V3 log:X86_V3 log1p:baseline(X86_V2) expm1:baseline(X86_V2)": {
        "random-channels": {
            "valid": "554841efabdfdf1616fa8154f20aa22ff692751e786ca2a860f5e8ed4c858918",
            "prior": "9abd61142172df4b04a6dbce4704bcce59766e6c4310e52b107149b5660147b8",
            "lls": "144c1e8708320ce2b5bfb21c61c0de74f615f940edb5b02eac6faa5a7352fae9",
            "target": "eaadfebcb69e9dfbd346e0454991d0db0575df0956e007a76b26b3c3a82bc8df",
            "post": "c191a1cf2691ca63258823c979d1ed592fd5af033c50d6cd6c3f3de6a90ece42",
            "gains": "dd608dd2bb2fe21a57130e43ee43cac95bd43665aa6d118374fd1d736485db1c",
            "guesses": "590593edb38f8ccdea380c17ad9237354af09e26f8e47fe6fd2709cfbd4d3d5b",
            "kernels": "c35b5f312f2a036c2a8e415755977492c3f07dc0d1dfb78aa7b3d5ae4169d7f2",
            "features": "34ff756fb3cb48d832939afcf39e9b7546c2123ce1397db30ed42bcea9b4a2da",
            "indicator_ratios": "9d2a29adf18bec4eca25e82e4ae55931b3b40000ddaf7b41513cfd228d3e067a",
            "gain_ratios": "437a829c1311a83cd68d29ce41aa99b990e877b99678423943eb430d0e03c3c1",
            "kernel_ratios": "9ba8541c97d1779e3c541997f47caed8cca9cd0dcc391ca0399fae78cb913d42",
        },
        "zero-mass-channel": {
            "valid": "f40ae0b5c3ef9b289d6ae6643c8432e77994ad72118031aa7a28aa1357efd88c",
            "prior": "ae5d61af7a165ebdaaa6f6982941ab071187ff6edc15bee2acd780eedb70c92e",
            "lls": "cafbc5f143523164392d5e2cbef2cbbb950ddb5e75b98142c485edcb19aeecb8",
            "target": "f12bc16d23f49648eb7bcff626c154ecc7f3389edc18109b0e27635ef6e555d1",
            "post": "ccbec3f299e06b1e586309f25ac67058ab3fb4af3aca144e369787c6d27892eb",
            "gains": "86be74164f5ed212e59b947ecadd44752546cc3feda9a50c82b18d898b4813de",
            "guesses": "0751b9fd14c719be70f6b5b803c65727ac985528646ecbfc2ab4046e0d7a7146",
            "kernels": "7ec4c17c6b573df643d4d54b47e10ccc3f62047476304133b8908cb01502a614",
            "features": "eed4b88c2037dc509d324b7d12ea628d2f49ebead728136aa87b48cf4dfe58e0",
            "indicator_ratios": "510b280234da74ab66cf7e40a35f35022442de3d213a6c619b142588d2c5f7da",
            "gain_ratios": "c87e10d7725a275eff5325e306fbfde1300644239b3ebb22976206b2c925ad82",
            "kernel_ratios": "2c249d6401c6d7ef27a23e753dc22b90159f4467cf4f35f7dc9125aa6590b973",
        },
    },
}


def test_block_bits_are_pinned():
    loops = numpy_loops()
    if loops not in BLOCK_DIGESTS:
        pytest.skip(f"no block digests recorded for numpy loops {loops}")
    assert {name: block_digests(name) for name in BLOCK_CHANNELS} == BLOCK_DIGESTS[loops]


@pytest.fixture(scope="module")
def without_avx512():
    """The seed-2024 reports, the numpy loops and the block digests, from a
    child process that has numpy's AVX-512 loops switched off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, test_oracle as t; print(json.dumps({"
            "'reports': {name: t.pinned_report(name) for name in t.GOLDEN_REPORTS}, "
            "'loops': t.numpy_loops(), "
            "'blocks': {name: t.block_digests(name) for name in t.BLOCK_CHANNELS}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=pathlib.Path(__file__).parent).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_seed_2024_reports_without_avx512_loops(without_avx512):
    # numpy's float64 exp, log1p and expm1 take other loops in a process
    # that has the AVX-512 ones switched off; the pins hold on either
    assert without_avx512["reports"] == {
        name: [want, True] for name, (_, want) in GOLDEN_REPORTS.items()}


def test_block_bits_without_avx512_loops(without_avx512):
    loops = without_avx512["loops"]
    if loops not in BLOCK_DIGESTS:
        pytest.skip(f"no block digests recorded for numpy loops {loops}")
    assert without_avx512["blocks"] == BLOCK_DIGESTS[loops]
