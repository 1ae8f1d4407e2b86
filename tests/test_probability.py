import itertools
import math

import pytest
from hypothesis import given, strategies as st

from pmleak.constructions import CorrelatedBinaryModel
from pmleak.logdomain import LOG_ZERO, log_sum_exp
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel)


def brute_force_correlated_joint(n, alpha, eta):
    """Linear-domain joint table of the correlated binary model, written out
    directly from its definition; the enumeration oracle for this file."""
    table = {}
    for x in itertools.product((0, 1), repeat=n + 1):
        p = alpha if x[0] == 0 else 1.0 - alpha
        if all(d == x[0] for d in x[1:]):
            p *= eta
        else:
            p *= (1.0 - eta) / (2 ** n - 1)
        table[x] = p
    return table


class TestFiniteDistribution:
    def test_mass_validated(self):
        with pytest.raises(ValueError, match="mass"):
            FiniteDistribution.from_probs(("a", "b"), (0.5, 0.4))

    def test_normalize(self):
        d = FiniteDistribution.from_probs(("a", "b"), (2.0, 6.0), normalize=True)
        assert d.prob("b") == pytest.approx(0.75)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteDistribution.from_probs(("a", "a"), (0.5, 0.5))

    def test_full_support_flag(self):
        assert FiniteDistribution.uniform((1, 2, 3)).full_support
        assert not FiniteDistribution.from_probs((1, 2), (1.0, 0.0)).full_support

    def test_bernoulli_convention(self):
        d = FiniteDistribution.bernoulli(0.3)
        assert d.prob(1) == pytest.approx(0.3)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8))
    def test_normalized_construction_has_unit_mass(self, weights):
        d = FiniteDistribution.from_probs(range(len(weights)), weights, normalize=True)
        assert abs(log_sum_exp(d.logp)) <= 1e-9


class TestProductModel:
    def test_marginal_is_entry_marginal(self):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 5)
        for i in range(5):
            assert model.entry_marginal(i).prob(1) == pytest.approx(0.3)

    def test_conditioning_is_independence(self):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 3)
        cond = model.conditional_rest(1, 0)
        # product marginal over remaining entries, unchanged
        assert cond.prob((1, 0)) == pytest.approx(0.3 * 0.7)

    def test_atom_mass(self):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 3)
        assert math.exp(model.joint_logp((1, 1, 0))) == pytest.approx(0.063)

    def test_index_out_of_range(self):
        model = ProductModel.iid(FiniteDistribution.bernoulli(0.3), 3)
        with pytest.raises(IndexError):
            model.entry_marginal(3)

    def test_condition_on_impossible_symbol(self):
        model = ProductModel.iid(FiniteDistribution.from_probs((0, 1), (1.0, 0.0)), 2)
        with pytest.raises(ValueError, match="unsupported condition"):
            model.conditional_rest(0, 1)


class TestCorrelatedBinaryModel:
    def test_first_entry_marginal_is_alpha(self):
        model = CorrelatedBinaryModel(8, 0.25, 0.5)
        assert model.entry_marginal(0).prob(0) == pytest.approx(0.25)

    def test_conditional_tail_given_first(self):
        model = CorrelatedBinaryModel(4, 0.25, 0.5)
        cond = model.conditional_rest(0, 1)
        assert cond.prob((1, 1, 1, 1)) == pytest.approx(0.5)
        assert cond.prob((0, 1, 0, 1)) == pytest.approx(0.5 / 15)

    def test_marginal_of_tail_entry_against_enumeration(self):
        n, alpha, eta = 4, 0.25, 0.5
        model = CorrelatedBinaryModel(n, alpha, eta)
        table = brute_force_correlated_joint(n, alpha, eta)
        want = sum(p for x, p in table.items() if x[2] == 1)
        assert model.entry_marginal(2).prob(1) == pytest.approx(want, rel=1e-12)

    def test_conditional_of_tail_entry_against_enumeration(self):
        n, alpha, eta = 3, 0.25, 0.5
        model = CorrelatedBinaryModel(n, alpha, eta)
        table = brute_force_correlated_joint(n, alpha, eta)
        p_d2_0 = sum(p for x, p in table.items() if x[2] == 0)
        cond = model.conditional_rest(2, 0)
        for rest in itertools.product((0, 1), repeat=n):
            x = rest[:2] + (0,) + rest[2:]
            assert cond.prob(rest) == pytest.approx(table[x] / p_d2_0, rel=1e-12)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="alpha"):
            CorrelatedBinaryModel(4, 0.5, 0.5)
        with pytest.raises(ValueError, match="eta"):
            CorrelatedBinaryModel(4, 0.25, 1.0)

    def test_analytic_queries_scale_far_beyond_enumeration(self):
        model = CorrelatedBinaryModel(5000, 0.25, 0.5)
        assert model.entry_marginal(0).prob(0) == pytest.approx(0.25)
        assert 0.0 < model.entry_marginal(17).prob(1) < 1.0
        with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
            model.conditional_rest(0, 1)


@pytest.mark.parametrize("model", [
    ProductModel.iid(FiniteDistribution.bernoulli(0.3), 4),
    CorrelatedBinaryModel(5, 0.3, 0.4),
    ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5)),
])
def test_law_of_total_probability(model):
    """Re-mixing conditionals with the entry marginal reconstructs the joint."""
    for i in range(model.num_entries):
        marg = model.entry_marginal(i)
        for d in model.alphabet:
            cond = model.conditional_rest(i, d)
            for rest, lp in zip(cond.labels, cond.logp):
                if lp == LOG_ZERO:
                    continue
                x = rest[:i] + (d,) + rest[i:]
                want = math.exp(model.joint_logp(x))
                got = math.exp(lp + marg.logprob(d))
                assert got == pytest.approx(want, abs=1e-9)


def test_explicit_joint_respects_cutoff():
    with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
        ExplicitJointModel((0, 1), 20, {})
