import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism, pml_d1
from pmleak import leakage
from pmleak.leakage import (entry_channel, eps_max, pml, pml_entry, pml_report,
                            theorem2_check)
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
        prior = FiniteDistribution.from_probs((0, 1), (0.5, 0.5))
        assert eps_max(prior) == pytest.approx(math.log(2))

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
        model = ProductModel((FiniteDistribution.from_probs((0, 1), (0.7, 0.3)),) * 2)
        # channel reads only entry 0
        x_labels = tuple((a, b) for a in (0, 1) for b in (0, 1))
        rows = [[0.8, 0.2] if x[0] == 0 else [0.2, 0.8] for x in x_labels]
        mech = FiniteMechanism.from_probs(x_labels, (0, 1), rows)
        rep = pml_entry(model, mech, 1, 0)
        assert rep.pml == pytest.approx(0.0, abs=1e-12)

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
                model = ProductModel((FiniteDistribution.from_probs((0, 1), (0.65, 0.35)),) * n)
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
        model = ProductModel((FiniteDistribution.from_probs((0, 1), (0.7, 0.3)),) * 3)
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


def loop_priors(alphabet, n, prior_samples, grid_resolution, seed, grid_span):
    """The checked priors drawn one Dirichlet row at a time, as a (P, n, k) array."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(prior_samples):
        rows = [np.clip(rng.dirichlet(np.ones(len(alphabet))), 1e-3, None) for _ in range(n)]
        specs.append([row / row.sum() for row in rows])
    if len(alphabet) == 2 and grid_resolution > 0:
        specs += [[(1.0 - q, q)] * n for q in np.linspace(*grid_span, grid_resolution)]
    return np.array(specs, dtype=float)


def scalar_entry_pml(alphabet, spec, mech, i, y):
    model = ProductModel(tuple(FiniteDistribution.from_probs(alphabet, row, normalize=True)
                               for row in spec))
    return pml(*entry_channel(model, mech, i, y))


def random_channel(rng, x_labels, y_labels):
    rows = rng.dirichlet(np.ones(len(y_labels)), size=len(x_labels))
    return FiniteMechanism.from_probs(x_labels, y_labels, rows)


def zero_cell_channel():
    # outcome "c" has zero mass under every database: it leaks nothing
    x_labels = tuple(itertools.product((0, 1), repeat=2))
    rows = [[0.6, 0.4, 0.0], [0.0, 1.0, 0.0], [0.3, 0.7, 0.0], [0.9, 0.1, 0.0]]
    return FiniteMechanism.from_probs(x_labels, ("a", "b", "c"), rows)


TERNARY_BASE = FiniteMechanism.from_probs((0, 1, 2), (0, 1),
                                          [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])

# (mechanism, entries, alphabet, grid resolution)
BATCH_CASES = {
    "rr-n1": (product_mechanism(randomized_response(0.25), 1), 1, (0, 1), 9),
    "rr-n2": (product_mechanism(randomized_response(0.1), 2), 2, (0, 1), 9),
    "rr-n3": (product_mechanism(randomized_response(0.4), 3), 3, (0, 1), 9),
    "non-product": (random_channel(np.random.default_rng(11),
                                   tuple(itertools.product((0, 1), repeat=2)),
                                   ("a", "b", "c")), 2, (0, 1), 9),
    "zero-cells": (zero_cell_channel(), 2, (0, 1), 9),
    "ternary-no-grid": (product_mechanism(TERNARY_BASE, 2), 2, (0, 1, 2), 0),
}


class TestTheorem2Batch:
    """The array pass of theorem2_check against the scalar pml(*entry_channel(...))."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_priors_follow_the_per_row_stream(self, case):
        mech, n, alphabet, res = BATCH_CASES[case]
        got = leakage._product_priors(alphabet, n, 20, res, 4, (0.01, 0.99))
        want = loop_priors(alphabet, n, 20, res, 4, (0.01, 0.99))
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)

    def test_priors_are_floored(self):
        # 800 ternary rows: a few Dirichlet draws fall below the floor
        got = leakage._product_priors((0, 1, 2), 4, 200, 0, 4, (0.01, 0.99))
        assert np.allclose(got, loop_priors((0, 1, 2), 4, 200, 0, 4, None),
                           rtol=0.0, atol=1e-15)
        assert np.any(got < 1e-3) and got.min() >= 1e-3 / (1.0 + 2e-3)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_every_value_matches_the_scalar_path(self, case):
        mech, n, alphabet, res = BATCH_CASES[case]
        probs = leakage._product_priors(alphabet, n, 20, res, 4, (0.01, 0.99))
        values = leakage._entry_pmls(mech, alphabet, probs)
        assert values.shape == (len(probs), n, len(mech.y_labels))
        assert np.all(np.isfinite(values))
        rng = np.random.default_rng(7)
        for p, i, y in zip(rng.integers(len(probs), size=40), rng.integers(n, size=40),
                           rng.integers(len(mech.y_labels), size=40)):
            want = scalar_entry_pml(alphabet, probs[p].tolist(), mech, int(i),
                                    mech.y_labels[y])
            assert abs(values[p, i, y] - want) <= 1e-12

    def test_zero_mass_outcome_leaks_nothing(self):
        mech, n, alphabet, res = BATCH_CASES["zero-cells"]
        probs = leakage._product_priors(alphabet, n, 5, res, 0, (0.01, 0.99))
        assert np.all(leakage._entry_pmls(mech, alphabet, probs)[:, :, 2] == 0.0)

    def test_blocks_of_priors_agree_with_one_pass(self, monkeypatch):
        mech, n, alphabet, res = BATCH_CASES["rr-n3"]
        probs = leakage._product_priors(alphabet, n, 20, res, 4, (0.01, 0.99))
        whole = leakage._entry_pmls(mech, alphabet, probs)
        monkeypatch.setattr(leakage, "_BLOCK_ENTRIES", 3 * mech.logp.size)
        assert np.array_equal(leakage._entry_pmls(mech, alphabet, probs), whole)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_witness_replays_to_the_supremum(self, case):
        mech, n, alphabet, res = BATCH_CASES[case]
        rep = theorem2_check(mech, 10.0, n, alphabet, prior_samples=20,
                             grid_resolution=res, seed=4)
        assert 0.0 <= rep.reference_gap <= 1e-12
        priors = loop_priors(alphabet, n, 20, res, 4, (0.01, 0.99))
        assert np.any(np.all(np.abs(priors - np.array(rep.witness_prior)) <= 1e-15,
                             axis=(1, 2)))
        replayed = scalar_entry_pml(alphabet, rep.witness_prior, mech,
                                    rep.witness_entry, rep.witness_outcome)
        assert abs(replayed - rep.max_observed_pml) <= 1e-12
        # and it is the largest value over every prior, entry and outcome
        worst = max(scalar_entry_pml(alphabet, spec.tolist(), mech, i, y)
                    for spec in priors for i in range(n) for y in mech.y_labels)
        assert abs(worst - rep.max_observed_pml) <= 1e-12

    def test_grid_reaching_the_simplex_edge_is_rejected(self):
        mech = product_mechanism(randomized_response(0.25), 2)
        with pytest.raises(ValueError, match="PML requires full-support prior"):
            theorem2_check(mech, math.log(3.0), 2, (0, 1), prior_samples=5,
                           grid_resolution=9, grid_span=(0.0, 1.0))

    def test_channel_missing_an_atom_is_rejected(self):
        x_labels = ((0, 0), (0, 1), (1, 0))  # no (1, 1)
        mech = FiniteMechanism.from_probs(x_labels, (0, 1), [[0.5, 0.5]] * 3)
        with pytest.raises(KeyError, match=r"\(1, 1\)"):
            theorem2_check(mech, 1.0, 2, (0, 1), prior_samples=5)

    @pytest.mark.parametrize("alphabet, n, message", [
        ((), 1, "empty alphabet"),
        ((0, 0), 1, "duplicate labels"),
        ((0, 1), 0, "at least one entry"),
        ((0, 1), 17, "enumeration cutoff exceeded"),
    ])
    def test_bad_alphabet_or_size_is_rejected(self, alphabet, n, message):
        mech = product_mechanism(randomized_response(0.25), 1)
        with pytest.raises(ValueError, match=message):
            theorem2_check(mech, 1.0, n, alphabet, prior_samples=5)

    def test_empty_prior_set_is_rejected(self):
        mech = product_mechanism(TERNARY_BASE, 1)
        with pytest.raises(ValueError, match="no priors to check"):
            theorem2_check(mech, 1.0, 1, (0, 1, 2), prior_samples=0)


class TestProfile:
    def test_singleton_grid(self):
        prior = FiniteDistribution.uniform((0, 1))
        mech = randomized_response(0.25)
        rep = pml_report(prior, mech, 0)
        assert rep.pml == pytest.approx(math.log(1.5))

    def test_symmetric_channel_symmetric_profile(self):
        prior = FiniteDistribution.uniform((0, 1))
        mech = randomized_response(0.25)
        profile = [pml_report(prior, mech, y) for y in (0, 1)]
        assert profile[0].pml == pytest.approx(profile[1].pml)

    def test_thm3_profile_finite(self):
        model = CorrelatedBinaryModel(6, 0.25, 0.5)
        mech = calibrated_mechanism(model, 1.0)
        joint = ExplicitJointModel.from_model(model)
        for y in np.linspace(-2.0, 0.0, 11):
            rep = pml_entry(joint, mech, 0, float(y))
            assert math.isfinite(rep.pml)
