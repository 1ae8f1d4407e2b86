import math

import numpy as np
import pytest

from pmleak.leakage import pml, pml_entry
from pmleak.oracle import (GainFunction, GuessKernel, gain_ratio,
                           indicator_gain, randomized_function_ratio, random_channel,
                           random_full_support_prior, random_gain,
                           random_kernel, run_adversary_trials)
from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism, pml_d1
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel)


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
        model = ProductModel.iid(FiniteDistribution.from_probs((0, 1), (0.7, 0.3)), 3)
        joint = ExplicitJointModel.from_model(model)
        assert math.exp(joint.joint_logp((1, 1, 0))) == pytest.approx(0.063)

    def test_conditional_all_ones_mass(self):
        # P(tail all ones | D_1 = 1) = eta
        joint = ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5))
        assert math.exp(joint.joint_logp((1, 1, 1, 1))) / 0.75 == pytest.approx(0.5)

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
