import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism, pml_d1
from pmleak.leakage import eps_max, pml, pml_entry, pml_report, theorem2_check
from pmleak.logdomain import LOG_ZERO
from pmleak.mechanisms import (FiniteMechanism, product_mechanism,
                               randomized_response)
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel)


class TestEpsMax:
    def test_uniform(self):
        assert eps_max(FiniteDistribution.uniform((1, 2, 3, 4))) == pytest.approx(math.log(4))

    def test_bernoulli_quarter(self):
        prior = FiniteDistribution.from_probs((0, 1), (0.25, 0.75))
        assert eps_max(prior) == pytest.approx(math.log(4))

    def test_bernoulli_half(self):
        assert eps_max(FiniteDistribution.bernoulli(0.5)) == pytest.approx(math.log(2))

    def test_zero_atom_rejected(self):
        prior = FiniteDistribution.from_probs((0, 1), (1.0, 0.0))
        with pytest.raises(ValueError, match="zero-probability atom"):
            eps_max(prior)


class TestPml:
    def test_independent_outcome_leaks_nothing(self):
        prior = FiniteDistribution.uniform((0, 1))
        assert pml(prior, [math.log(0.3), math.log(0.3)]) == pytest.approx(0.0)

    def test_randomized_response_example(self):
        prior = FiniteDistribution.uniform((0, 1))
        mech = randomized_response(0.25)
        rep = pml_report(prior, mech, 0)
        assert rep.pml == pytest.approx(math.log(1.5))
        assert rep.argmax_label == 0

    def test_zero_density_outcome(self):
        prior = FiniteDistribution.uniform((0, 1))
        assert pml(prior, [LOG_ZERO, LOG_ZERO]) == 0.0

    def test_full_support_required(self):
        prior = FiniteDistribution.from_probs((0, 1), (1.0, 0.0))
        with pytest.raises(ValueError, match="full-support prior"):
            pml(prior, [0.0, 0.0])

    def test_identity_attains_eps_max(self):
        prior = FiniteDistribution.from_probs((0, 1), (0.25, 0.75))
        mech = FiniteMechanism.from_probs((0, 1), (0, 1), [[1, 0], [0, 1]])
        rep = pml_report(prior, mech, 0)  # the min-probability secret
        assert rep.pml == pytest.approx(eps_max(prior), abs=1e-12)

    def test_relabeling_invariance(self):
        lls = [math.log(0.2), math.log(0.7)]
        a = pml(FiniteDistribution.from_probs((0, 1), (0.3, 0.7)), lls)
        b = pml(FiniteDistribution.from_probs(("x", "y"), (0.3, 0.7)), lls)
        assert a == b

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_density_rescaling_invariance(self, c):
        prior = FiniteDistribution.from_probs((0, 1, 2), (0.2, 0.3, 0.5))
        lls = [math.log(0.1), math.log(0.5), math.log(0.2)]
        scaled = [v + math.log(c) for v in lls]
        assert pml(prior, scaled) == pytest.approx(pml(prior, lls), abs=1e-12)

    def test_random_channels_respect_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            nx = int(rng.integers(2, 9))
            ny = int(rng.integers(2, 9))
            prior = FiniteDistribution.from_probs(
                range(nx), np.clip(rng.dirichlet(np.ones(nx)), 1e-4, None),
                normalize=True)
            rows = rng.dirichlet(np.ones(ny), size=nx)
            mech = FiniteMechanism.from_probs(tuple(range(nx)), tuple(range(ny)), rows)
            for y in mech.y_labels:
                rep = pml_report(prior, mech, y)
                assert rep.pml >= -1e-12
                assert rep.pml <= rep.eps_max + 1e-9


class TestPmlEntry:
    def test_mechanism_ignoring_entry(self):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 2)
        # channel reads only entry 0
        x_labels = tuple((a, b) for a in (0, 1) for b in (0, 1))
        rows = [[0.8, 0.2] if x[0] == 0 else [0.2, 0.8] for x in x_labels]
        mech = FiniteMechanism.from_probs(x_labels, (0, 1), rows)
        rep = pml_entry(model, mech, 1, 0)
        assert rep.pml == pytest.approx(0.0, abs=1e-12)
        assert rep.context == "entry-1"

    def test_matches_closed_form_on_enumerated_model(self):
        n, alpha, eta, epsilon, y = 6, 0.25, 0.5, 1.0, -0.3
        model = CorrelatedBinaryModel(n, alpha, eta)
        joint = ExplicitJointModel.from_model(model)
        mech = calibrated_mechanism(model, epsilon)
        rep = pml_entry(joint, mech, 0, y)
        assert rep.pml == pytest.approx(pml_d1(model, epsilon, y), abs=1e-9)

    def test_product_model_never_exceeds_dp_level(self):
        # forward direction of the DP equivalence on product priors
        for p in (0.1, 0.3):
            level = math.log((1 - p) / p)
            for n in (1, 2, 3):
                mech = product_mechanism(randomized_response(p), n)
                model = ProductModel.iid(FiniteDistribution.bernoulli(0.35), n)
                for i in range(n):
                    for y in mech.y_labels:
                        assert pml_entry(model, mech, i, y).pml <= level + 1e-9


    def test_correlated_model_matches_its_explicit_joint(self):
        model = CorrelatedBinaryModel(6, 0.25, 0.5)
        joint = ExplicitJointModel.from_model(model)
        mech = calibrated_mechanism(model, 1.0)
        for i in (0, 3, 6):
            for y in (-0.3, 0.0, 0.4, 1.2):
                got, want = pml_entry(model, mech, i, y), pml_entry(joint, mech, i, y)
                assert got.pml == want.pml
                assert got.argmax_label == want.argmax_label

    def test_product_model_matches_its_explicit_joint(self):
        # non-iid entries over a 3-symbol alphabet
        model = ProductModel(tuple(FiniteDistribution.from_probs((0, 1, 2), p)
                                   for p in ((0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (0.25, 0.25, 0.5))))
        joint = ExplicitJointModel.from_model(model)
        base = FiniteMechanism.from_probs((0, 1, 2), (0, 1),
                                          [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
        mech = product_mechanism(base, 3)
        for i in (0, 1, 2):
            for y in mech.y_labels:
                assert pml_entry(model, mech, i, y).pml == pml_entry(joint, mech, i, y).pml

    @pytest.mark.parametrize("i", [-1, 3])
    def test_entry_index_out_of_range(self, i):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 3)
        mech = product_mechanism(randomized_response(0.25), 3)
        with pytest.raises(IndexError):
            pml_entry(model, mech, i, (0, 0, 0))


class TestTheorem2Check:
    def test_randomized_response_supremum(self):
        p, q = 0.25, 0.01
        mech = product_mechanism(randomized_response(p), 1)
        level = math.log(3.0)
        rep = theorem2_check(mech, level, 1, (0, 1), prior_samples=50,
                             grid_resolution=99, seed=3, grid_span=(q, 1.0 - q))
        assert rep.forward_ok
        assert rep.max_observed_pml <= level + 1e-9
        # approaches the level as the prior degenerates; on the prior grid
        # the highest value is at its edge q
        edge = math.log((1.0 - p) / (p + q * (1.0 - 2.0 * p)))
        assert rep.max_observed_pml >= edge - 1e-9

    def test_leakage_free_channel(self):
        base = FiniteMechanism.from_probs((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
        rep = theorem2_check(product_mechanism(base, 1), 0.0, 1, (0, 1), prior_samples=20,
                             grid_resolution=9, seed=5)
        assert rep.max_observed_pml == pytest.approx(0.0, abs=1e-12)

    def test_witness_reported(self):
        rep = theorem2_check(product_mechanism(randomized_response(0.25), 1),
                             math.log(3.0), 1, (0, 1),
                             prior_samples=10, grid_resolution=9, seed=1)
        assert rep.witness_prior is not None
        assert rep.witness_outcome in ((0,), (1,))


class TestProfile:
    def test_singleton_grid(self):
        prior = FiniteDistribution.uniform((0, 1))
        mech = randomized_response(0.25)
        rep = pml_report(prior, mech, 0)
        assert rep.y == 0 and rep.context == "secret"
        assert rep.pml == pytest.approx(math.log(1.5))

    def test_symmetric_channel_symmetric_profile(self):
        prior = FiniteDistribution.uniform((0, 1))
        mech = randomized_response(0.25)
        profile = [pml_report(prior, mech, y) for y in (0, 1)]
        assert profile[0].pml == pytest.approx(profile[1].pml)

    def test_thm3_profile_finite(self):
        model = CorrelatedBinaryModel(6, 0.25, 0.5)
        mech = calibrated_mechanism(model, 1.0)
        prior = model.entry_marginal(0)
        joint = ExplicitJointModel.from_model(model)
        for y in np.linspace(-2.0, 0.0, 11):
            rep = pml_entry(joint, mech, 0, float(y))
            assert math.isfinite(rep.pml)
