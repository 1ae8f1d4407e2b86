import math

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
        best = oracle._indicator_ratios(s)
        gains = oracle._gain_ratios(s, g)
        kernels = oracle._kernel_ratios(s, k)
        for t in range(256):
            nx = int(s.valid[t].sum())
            assert not s.valid[t, nx:].any()
            prior = FiniteDistribution.from_probs(range(nx), s.prior[t, :nx])
            lls = list(s.lls[t, :nx])
            assert s.target[t] == pytest.approx(pml(prior, lls), abs=1e-13)
            indicator = max(gain_ratio(prior, lls, indicator_gain(nx, j)) for j in range(nx))
            assert best[t] == pytest.approx(indicator, abs=1e-13)
            gain = GainFunction(g[t, :nx, :nw[t]])
            assert gains[t] == pytest.approx(gain_ratio(prior, lls, gain), abs=1e-13)
            kernel = GuessKernel(k[t, :nx, :nu[t]])
            assert kernels[t] == pytest.approx(
                randomized_function_ratio(prior, lls, kernel), abs=1e-13)
        if channel is not None:  # the zero-mass outcome leaks nothing
            dead = s.lls.max(axis=1) == -math.inf
            assert dead.any() and np.all(s.target[dead] == 0.0)
            assert np.array_equal(s.post[dead], s.prior[dead])

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


VALID = np.ones((4, 3), dtype=bool)


@pytest.mark.parametrize("draw, fills, message", [
    (lambda rng: oracle._draw_scenarios(rng, 4, 3, None),
     {"standard_exponential": 0.0}, "channel row for 0 has mass"),
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
