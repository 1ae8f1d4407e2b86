import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmleak.constructions import (CorrelatedBinaryModel, _log_two_pow_minus_one,
                                  calibrated_mechanism, pml_d1)
from pmleak.leakage import entry_channel
from pmleak.logdomain import LOG_ZERO, log_sum_exp
from pmleak.mechanisms import LaplaceMechanism
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel, atom_labels, atom_table)

BERNOULLI_03 = FiniteDistribution.from_probs((0, 1), (0.7, 0.3))


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


def defined_log_mass(model):
    """x -> log P(x) for one database tuple x, written out tuple by tuple from
    the definition of a ProductModel, the correlated model or a
    {tuple: log-mass} table: the per-atom oracle for `log_masses`.  A
    ProductModel sums its marginals left to right from 0; the correlated
    model adds log P(D_1) and the tail's weight in its own order, with
    log(2^n - 1) from the library's helper (correctly rounded below 2^21,
    where it equals math.log(2**n - 1) on every n tried)."""
    if isinstance(model, dict):
        return lambda x: model.get(x, LOG_ZERO)
    if isinstance(model, ProductModel):
        return lambda x: sum(m.logprob(d) for m, d in zip(model.marginals, x))
    assert isinstance(model, CorrelatedBinaryModel)

    def log_mass(x):
        lp = math.log(model.alpha) if x[0] == 0 else math.log1p(-model.alpha)
        if all(d == x[0] for d in x[1:]):
            return lp + math.log(model.eta)
        return lp + math.log1p(-model.eta) - _log_two_pow_minus_one(model.n)
    return log_mass


def explicit_joint(alphabet, num_entries, table):
    """ExplicitJointModel of a {tuple: log-mass} table; absent atoms have no mass."""
    atoms = itertools.product(alphabet, repeat=num_entries)
    return ExplicitJointModel(alphabet, num_entries, [table.get(x, LOG_ZERO) for x in atoms])


class TestFiniteDistribution:
    def test_mass_validated(self):
        with pytest.raises(ValueError, match="mass"):
            FiniteDistribution.from_probs(("a", "b"), (0.5, 0.4))

    def test_normalize(self):
        d = FiniteDistribution.from_probs(("a", "b"), (2.0, 6.0), normalize=True)
        assert math.exp(d.logprob("b")) == pytest.approx(0.75)
        # weights whose sum passes the float range
        d = FiniteDistribution.from_probs(("a", "b"), (1e308, 1e308), normalize=True)
        assert d.logp == (math.log(0.5),) * 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteDistribution.from_probs(("a", "a"), (0.5, 0.5))

    @pytest.mark.parametrize("normalize", [False, True], ids=["as-given", "normalized"])
    def test_nan_probability_rejected(self, normalize):
        # a NaN once became zero mass, and so a missing-support error
        with pytest.raises(ValueError, match=r"^probability for 'b' is nan$"):
            FiniteDistribution.from_probs(("a", "b"), (1.0, math.nan), normalize=normalize)

    @pytest.mark.parametrize("normalize", [False, True], ids=["as-given", "normalized"])
    def test_infinite_probability_rejected(self, normalize):
        with pytest.raises(ValueError, match=r"^probability for 'a' is inf$"):
            FiniteDistribution.from_probs(("a", "b"), (math.inf, 1.0), normalize=normalize)

    @pytest.mark.parametrize("labels, logp, message", [
        pytest.param((), (), "^empty alphabet$", id="no-labels"),
        pytest.param(("a", "b"), (0.0,), "^labels and logp length mismatch$",
                     id="fewer-log-masses"),
        pytest.param(("a", "b"), (0.1, LOG_ZERO), "^log-probability above 0$",
                     id="log-probability-above-0"),
    ])
    def test_malformed_distribution_rejected(self, labels, logp, message):
        with pytest.raises(ValueError, match=message):
            FiniteDistribution(labels, logp)

    def test_zero_weights_cannot_be_normalized(self):
        with pytest.raises(ValueError, match="^cannot normalize zero mass$"):
            FiniteDistribution.from_probs(("a", "b"), (0.0, 0.0), normalize=True)

    def test_index_of_a_missing_label(self):
        with pytest.raises(KeyError, match="label 'c' not in alphabet"):
            FiniteDistribution.uniform(("a", "b")).index("c")

    def test_full_support_required(self):
        FiniteDistribution.uniform((1, 2, 3)).require_full_support()
        with pytest.raises(ValueError, match="^distribution lacks full support$"):
            FiniteDistribution.from_probs((1, 2), (1.0, 0.0)).require_full_support()
        with pytest.raises(ValueError, match="^no zero masses$"):
            FiniteDistribution.from_probs((1, 2), (1.0, 0.0)).require_full_support(
                "no zero masses")

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8))
    def test_normalized_construction_has_unit_mass(self, weights):
        d = FiniteDistribution.from_probs(range(len(weights)), weights, normalize=True)
        assert abs(log_sum_exp(d.logp)) <= 1e-9


class TestProductModel:
    def test_marginal_is_entry_marginal(self):
        # the entry law entry_channel sums from the atoms is the entry's marginal
        model = ProductModel((BERNOULLI_03,) * 5)
        mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1), 1.0)
        for i in range(5):
            law, _ = entry_channel(model, mech, i, 0.5)
            assert math.exp(law.logprob(1)) == pytest.approx(0.3)

    def test_conditioning_is_independence(self):
        model = ProductModel((BERNOULLI_03,) * 3)
        cond = model.conditional_rest(1, 0)
        # product marginal over remaining entries, unchanged
        assert math.exp(cond.logprob((1, 0))) == pytest.approx(0.3 * 0.7)

    def test_atom_mass(self):
        model = ProductModel((BERNOULLI_03,) * 3)
        assert math.exp(model.log_masses(np.array([[1, 1, 0]]))[0]) == pytest.approx(0.063)

    def test_index_out_of_range(self):
        model = ProductModel((BERNOULLI_03,) * 3)
        with pytest.raises(IndexError):
            model.conditional_rest(3, 0)

    @pytest.mark.parametrize("marginals, message", [
        pytest.param((), "^product model needs at least one entry$", id="no-entries"),
        pytest.param((BERNOULLI_03, FiniteDistribution.uniform(("a", "b"))),
                     "^entries must share one alphabet$", id="two-alphabets"),
    ])
    def test_malformed_product_rejected(self, marginals, message):
        with pytest.raises(ValueError, match=message):
            ProductModel(marginals)

    def test_one_entry_conditions_to_the_empty_tuple(self):
        cond = ProductModel((BERNOULLI_03,)).conditional_rest(0, 1)
        assert cond.labels == ((),) and cond.logp == (0.0,)

    def test_condition_on_impossible_symbol(self):
        model = ProductModel((FiniteDistribution.from_probs((0, 1), (1.0, 0.0)),) * 2)
        with pytest.raises(ValueError, match="unsupported condition"):
            model.conditional_rest(0, 1)


class TestAtomTable:
    # after the first four: numeric, str, tuple and bool alphabets of 1, 2 and
    # 3 symbols (there is no third bool) at 0, 1, 2 and 4 entries
    @pytest.mark.parametrize("alphabet, m", [
        ((0, 1), 1), ((0, 1), 5), (("a", "b", "c"), 3), ((7,), 4),
        *((alphabet, m) for alphabet in (
            (7,), (0.5, 2.0), (0, 1, 2), ("a",), ("a", "b"), ("x", "y", "z"),
            ((0,),), ((0, 1), (1, 0)), ((0, 0), (0, 1), (1, 1)), (True,), (False, True))
          for m in (0, 1, 2, 4))])
    def test_rows_follow_itertools_product(self, alphabet, m):
        digits = atom_table(alphabet, m)
        assert digits.shape == (len(alphabet) ** m, m)
        assert digits.dtype == np.uint8
        want = list(itertools.product(alphabet, repeat=m))
        assert [tuple(alphabet[j] for j in row) for row in digits.tolist()] == want
        assert [tuple(row) for row in atom_labels(alphabet, m).tolist()] == want

    def test_index_table_takes_the_smallest_dtype(self):
        assert atom_table(range(256), 2).dtype == np.uint8
        digits = atom_table(range(257), 1)
        assert digits.dtype == np.uint16
        assert digits[:, 0].tolist() == list(range(257))

    def test_cutoff_is_checked_before_allocating(self):
        with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
            atom_table((0, 1), 40)  # 2^40 rows would need a terabyte

    @pytest.mark.parametrize("alphabet, kind", [((0, 1), "i"), ((0.5, 2.0), "f"),
                                                 ((False, True), "b"), (("x", 1), "O"),
                                                 (((0, 1), (1, 0)), "O")])
    def test_labels_keep_each_symbol(self, alphabet, kind):
        labels = atom_labels(alphabet, 2)
        assert labels.dtype.kind == kind
        assert [tuple(row) for row in labels.tolist()] == list(itertools.product(alphabet, repeat=2))


UV_TABLE = {("u", "v"): math.log(0.4), ("v", "v"): math.log(0.6)}
CORRELATED_3 = CorrelatedBinaryModel(3, 0.25, 0.5)


@pytest.mark.parametrize("model, source", [
    *((model, model) for model in (
        ProductModel((BERNOULLI_03,) * 4),
        ProductModel(tuple(FiniteDistribution.from_probs(("a", "b", "c"), p)
                           for p in ((0.2, 0.3, 0.5), (0.6, 0.4, 0.0)))),
        *(CorrelatedBinaryModel(n, 0.3, 0.4) for n in (1, 2, 3, 6, 14)))),
    (ExplicitJointModel.from_model(CORRELATED_3), CORRELATED_3),
    (explicit_joint(("u", "v"), 2, UV_TABLE), UV_TABLE),
])
def test_log_masses_are_the_definition_bit_for_bit(model, source):
    digits = atom_table(model.alphabet, model.num_entries)
    log_mass = defined_log_mass(source)
    want = [log_mass(x) for x in itertools.product(model.alphabet, repeat=model.num_entries)]
    assert [v.hex() for v in model.log_masses(digits).tolist()] == [float(v).hex() for v in want]
    assert list(model.atoms()) == list(zip(itertools.product(model.alphabet,
                                                             repeat=model.num_entries), want))


def brute_force_outcome_density(table, mech, y, keep=lambda x: True):
    """Linear-domain sum of P(x) p(y | x) over the atoms x of a joint table
    that satisfy ``keep``."""
    return math.fsum(p * math.exp(mech.log_likelihood(x, y))
                     for x, p in table.items() if keep(x))


class TestCorrelatedBinaryModel:
    def test_first_entry_marginal_is_alpha(self):
        model = CorrelatedBinaryModel(8, 0.25, 0.5)
        law, _ = entry_channel(model, calibrated_mechanism(model, 1.0), 0, -0.3)
        assert math.exp(law.logprob(0)) == pytest.approx(0.25, rel=1e-12)

    def test_conditional_tail_given_first(self):
        # P(tail | D_1 = 1) = P(D_1 = 1, tail) / (1 - alpha)
        model = CorrelatedBinaryModel(4, 0.25, 0.5)
        cond = lambda tail: math.exp(model.log_masses(np.array([(1,) + tail]))[0]) / 0.75
        assert cond((1, 1, 1, 1)) == pytest.approx(0.5)
        assert cond((0, 1, 0, 1)) == pytest.approx(0.5 / 15)

    def test_marginal_of_tail_entry_against_enumeration(self):
        n, alpha, eta = 4, 0.25, 0.5
        model = CorrelatedBinaryModel(n, alpha, eta)
        table = brute_force_correlated_joint(n, alpha, eta)
        want = sum(p for x, p in table.items() if x[2] == 1)
        law, _ = entry_channel(model, calibrated_mechanism(model, 1.0), 2, 0.4)
        assert math.exp(law.logprob(1)) == pytest.approx(want, rel=1e-12)

    def test_conditional_of_tail_entry_against_enumeration(self):
        # the induced channel p(y | D_2 = d) mixes p(y | x) over P(x | D_2 = d)
        n, alpha, eta = 3, 0.25, 0.5
        model = CorrelatedBinaryModel(n, alpha, eta)
        mech = calibrated_mechanism(model, 1.0)
        table = brute_force_correlated_joint(n, alpha, eta)
        for y in (-0.3, 0.2, 0.6):
            _, lls = entry_channel(model, mech, 2, y)
            for d in (0, 1):
                mass = sum(p for x, p in table.items() if x[2] == d)
                want = brute_force_outcome_density(table, mech, y, lambda x: x[2] == d) / mass
                assert math.exp(lls[d]) == pytest.approx(want, rel=1e-12)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="alpha"):
            CorrelatedBinaryModel(4, 0.5, 0.5)
        with pytest.raises(ValueError, match="eta"):
            CorrelatedBinaryModel(4, 0.25, 1.0)

    def test_analytic_queries_scale_far_beyond_enumeration(self):
        model = CorrelatedBinaryModel(5000, 0.25, 0.5)
        assert 0.0 < pml_d1(model, 1.0, -0.3) <= math.log(4.0) + 1e-9
        with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
            entry_channel(model, calibrated_mechanism(model, 1.0), 0, -0.3)


@pytest.mark.parametrize("source, explicit", [
    (ProductModel((BERNOULLI_03,) * 4), False),
    (CorrelatedBinaryModel(5, 0.3, 0.4), False),
    (CORRELATED_3, True),
])
def test_law_of_total_probability(source, explicit):
    """Re-mixing the induced channel with the entry law gives the outcome
    density of the joint, for every entry."""
    model = ExplicitJointModel.from_model(source) if explicit else source
    mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1) / np.shape(x)[-1], 0.5)
    log_mass = defined_log_mass(source)
    table = {x: math.exp(log_mass(x))
             for x in itertools.product(model.alphabet, repeat=model.num_entries)}
    for y in (-0.2, 0.4):
        want = brute_force_outcome_density(table, mech, y)
        for i in range(model.num_entries):
            law, lls = entry_channel(model, mech, i, y)
            got = math.fsum(math.exp(lp + ll) for lp, ll in zip(law.logp, lls))
            assert got == pytest.approx(want, rel=1e-12)


def test_explicit_joint_respects_cutoff():
    with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
        ExplicitJointModel((0, 1), 20, [])


def test_explicit_joint_checks_shape_and_mass():
    with pytest.raises(ValueError, match="needs 4 log-masses"):
        ExplicitJointModel((0, 1), 2, [math.log(0.5)] * 2)
    with pytest.raises(ValueError, match="needs 4 log-masses"):
        ExplicitJointModel((0, 1), 2, [[math.log(0.25)] * 2] * 2)
    with pytest.raises(ValueError, match="joint mass"):
        ExplicitJointModel((0, 1), 2, [math.log(0.3)] * 4)
    with pytest.raises(ValueError, match="joint mass"):
        ExplicitJointModel((0, 1), 2, [math.log(0.25)] * 3 + [math.nan])
