import itertools
import json
import math

import numpy as np
import pytest

from pmleak.logdomain import LOG_ZERO
from pmleak.mechanisms import (FiniteMechanism, LaplaceMechanism,
                               dp_level_finite, dp_level_laplace,
                               l1_sensitivity, laplace_for_query,
                               laplace_log_density, mechanism_from_dict,
                               product_mechanism, randomized_response)


class TestSensitivity:
    def test_empirical_frequency(self):
        # fraction of ones over m = n+1 entries changes by exactly 1/m
        for m in (2, 4, 8):
            delta = l1_sensitivity(lambda x: sum(x) / m, m, (0, 1))
            assert delta == pytest.approx(1.0 / m)

    def test_constant_query(self):
        assert l1_sensitivity(lambda x: 7.0, 3, (0, 1)) == 0.0

    def test_counting_query_by_pair_enumeration(self):
        # oracle: direct max over all neighbor pairs of {0,1}^3
        worst = 0.0
        for x in itertools.product((0, 1), repeat=3):
            for i in range(3):
                x2 = x[:i] + (1 - x[i],) + x[i + 1:]
                worst = max(worst, abs(sum(x) - sum(x2)))
        assert worst == 1.0
        assert l1_sensitivity(sum, 3, (0, 1)) == pytest.approx(1.0)

    def test_non_enumerable_without_analytic(self):
        with pytest.raises(ValueError, match="analytic form"):
            l1_sensitivity(sum, 10 ** 6, (0, 1))

    def test_symmetric_under_relabeling(self):
        f = lambda x: sum(1 for d in x if d == "yes")
        g = lambda x: sum(1 for d in x if d == "ja")
        d1 = l1_sensitivity(f, 3, ("yes", "no"))
        d2 = l1_sensitivity(g, 3, ("ja", "nein"))
        assert d1 == d2


class TestLaplaceCalibration:
    def test_frequency_query_scale(self):
        m = 8
        mech = laplace_for_query(lambda x: sum(x) / m, 0.1, num_entries=m, alphabet=(0, 1))
        assert mech.scale == pytest.approx(10.0 / m)

    def test_counting_query_example(self):
        mech = laplace_for_query(sum, 0.1, sensitivity=1.0)
        assert mech.scale == pytest.approx(10.0)
        assert dp_level_laplace(mech) == pytest.approx(0.1)

    def test_unit_calibration(self):
        mech = laplace_for_query(sum, 1.0, sensitivity=1.0)
        assert mech.scale == pytest.approx(1.0)

    def test_epsilon_must_be_finite(self):
        # an infinite epsilon calibrates the scale to 0
        with pytest.raises(ValueError, match="epsilon must be finite"):
            laplace_for_query(sum, math.inf, sensitivity=1.0)

    def test_degenerate_query(self):
        with pytest.raises(ValueError, match="degenerate query"):
            laplace_for_query(lambda x: 0.0, 1.0, num_entries=2, alphabet=(0, 1))

    @pytest.mark.parametrize("sensitivity", [math.nan, math.inf, -1.0])
    def test_sensitivity_must_be_finite_and_not_negative(self, sensitivity):
        with pytest.raises(ValueError, match="sensitivity must be finite and at least 0"):
            LaplaceMechanism(lambda x: 0.0, 5.0, sensitivity=sensitivity)

    def test_zero_sensitivity_is_level_zero(self):
        mech = LaplaceMechanism(lambda x: 0.0, 5.0, sensitivity=0.0)
        assert dp_level_laplace(mech) == 0.0


class TestLaplaceDensity:
    def test_mode_of_unit_laplace(self):
        assert laplace_log_density(0.0, 1.0, 0.0) == pytest.approx(math.log(0.5))

    def test_mode_value_is_half_inverse_scale(self):
        assert laplace_log_density(1.0, 10.0, 1.0) == pytest.approx(math.log(1 / 20))

    def test_off_mode(self):
        want = math.log(0.25) - 1.0
        assert laplace_log_density(0.5, 2.0, -1.5) == pytest.approx(want)

    def test_integrates_to_one(self):
        from scipy.integrate import quad
        val, _ = quad(lambda y: math.exp(laplace_log_density(0.3, 2.0, y)),
                      -60, 60, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_neighbor_ratio_bounded_by_dp_level(self):
        m = 5
        eps_target = 0.7
        mech = laplace_for_query(lambda x: sum(x) / m, eps_target,
                                 num_entries=m, alphabet=(0, 1))
        level = dp_level_laplace(mech)
        grid = np.linspace(-3, 3, 101)
        for x in itertools.product((0, 1), repeat=m):
            for i in range(m):
                x2 = x[:i] + (1 - x[i],) + x[i + 1:]
                for y in grid:
                    ratio = mech.log_likelihood(x, y) - mech.log_likelihood(x2, y)
                    assert ratio <= level + 1e-12


class TestRandomizedResponse:
    def test_identity_at_zero(self):
        mech = randomized_response(0.0)
        assert math.exp(mech.log_likelihood(0, 0)) == pytest.approx(1.0)

    def test_leakage_free_at_half(self):
        mech = randomized_response(0.5)
        assert np.allclose(mech.logp[0], mech.logp[1])

    def test_quarter_rows(self):
        mech = randomized_response(0.25)
        assert math.exp(mech.log_likelihood(0, 0)) == pytest.approx(0.75)
        assert math.exp(mech.log_likelihood(1, 0)) == pytest.approx(0.25)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            randomized_response(0.75)
        with pytest.raises(ValueError):
            randomized_response(-0.1)


class TestDpLevelFinite:
    def test_randomized_response_level(self):
        assert dp_level_finite(randomized_response(0.25)) == pytest.approx(math.log(3.0))

    def test_constant_channel_is_level_zero(self):
        mech = FiniteMechanism.from_probs((0, 1), ("a", "b"),
                                          [[0.3, 0.7], [0.3, 0.7]])
        assert dp_level_finite(mech) == 0.0

    def test_identity_release_is_infinite(self):
        mech = FiniteMechanism.from_probs((0, 1), (0, 1), [[1, 0], [0, 1]])
        assert dp_level_finite(mech) == math.inf

    def test_product_mechanism_level_matches_base(self):
        base = randomized_response(0.25)
        mech = product_mechanism(base, 3)
        level = dp_level_finite(mech, num_entries=3)
        assert level == pytest.approx(math.log(3.0))

    def test_mixed_type_alphabet_needs_no_order(self):
        base = FiniteMechanism.from_probs(("x", 1), (0, 1), [[0.75, 0.25], [0.25, 0.75]])
        assert dp_level_finite(product_mechanism(base, 2), num_entries=2) == \
            pytest.approx(math.log(3.0))

    @pytest.mark.parametrize("entries, message", [(0, "at least one entry"),
                                                  (-1, "at least one entry"),
                                                  (2, "tuple of 2 symbols")])
    def test_entries_must_match_the_labels(self, entries, message):
        with pytest.raises(ValueError, match=message):
            dp_level_finite(randomized_response(0.25), num_entries=entries)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("base", [
        randomized_response(0.1),
        FiniteMechanism.from_probs((0, 1, 2), ("a", "b"), [[0.7, 0.3], [0.4, 0.6], [0.0, 1.0]]),
    ], ids=["rr", "3x2"])
    def test_product_mechanism_matches_the_cell_loop(self, base, n):
        mech = product_mechanism(base, n)
        assert mech.x_labels == tuple(itertools.product(base.x_labels, repeat=n))
        assert mech.y_labels == tuple(itertools.product(base.y_labels, repeat=n))
        want = np.array([[sum(base.logp[base.x_index(x), base.y_index(y)]
                              for x, y in zip(xs, ys)) for ys in mech.y_labels]
                         for xs in mech.x_labels])
        assert np.array_equal(mech.logp, want)

    def test_level_zero_iff_neighbor_rows_equal(self):
        rows = np.array([[0.2, 0.8], [0.21, 0.79]])
        mech = FiniteMechanism.from_probs((0, 1), (0, 1), rows)
        assert dp_level_finite(mech) > 0.0


def read_spec(spec):
    """The mechanism a spec file holding ``spec`` describes: through JSON
    text, so tuples arrive as lists the way the CLI reads them."""
    return mechanism_from_dict(json.loads(json.dumps(spec)))


class TestSpecFiles:
    # each spec is written by hand from the mechanism it should read back as

    def test_finite_round_trip(self):
        mech = randomized_response(0.25)
        back = read_spec({"kind": "finite", "x_labels": [0, 1], "y_labels": [0, 1],
                          "rows": [[0.75, 0.25], [0.25, 0.75]]})
        assert back.x_labels == mech.x_labels
        assert back.y_labels == mech.y_labels
        assert np.allclose(back.logp, mech.logp)

    def test_tuple_labels_round_trip(self):
        mech = product_mechanism(randomized_response(0.1), 2)
        labels = [[0, 0], [0, 1], [1, 0], [1, 1]]
        rows = [[0.9 ** (2 - h) * 0.1 ** h
                 for h in (sum(a != b for a, b in zip(x, y)) for y in labels)]
                for x in labels]
        back = read_spec({"kind": "finite", "x_labels": labels, "y_labels": labels,
                          "rows": rows})
        assert back.x_labels == mech.x_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert back.y_labels == mech.y_labels
        assert np.allclose(back.logp, mech.logp)
        lap = read_spec({"kind": "laplace", "labels": [[0, 1], [1, 1]],
                         "centers": [0.5, 1.0], "scale": 1.0})
        assert lap.labels == ((0, 1), (1, 1))
        assert lap.center((1, 1)) == 1.0

    def test_nested_list_labels_become_nested_tuples(self):
        back = read_spec({"kind": "finite", "x_labels": [[0, [1]], [1, [0]]],
                          "y_labels": [0, 1], "rows": [[0.75, 0.25], [0.25, 0.75]]})
        assert back.x_labels == ((0, (1,)), (1, (0,)))

    def test_laplace_round_trip(self):
        mech = LaplaceMechanism(lambda j: 10.0 * j, 2.0, sensitivity=1.0,
                                labels=(1, 2, 3))
        back = read_spec({"kind": "laplace", "labels": [1, 2, 3],
                          "centers": [10, 20, 30], "scale": 2.0, "sensitivity": 1.0})
        assert back.labels == mech.labels
        assert back.scale == mech.scale
        assert back.sensitivity == 1.0
        for j in (1, 2, 3):
            assert back.center(j) == mech.center(j)
            assert back.log_likelihood(j, 17.5) == mech.log_likelihood(j, 17.5)

    def test_randomized_response_dict(self):
        mech = mechanism_from_dict({"kind": "randomized_response", "p": 0.25})
        assert math.exp(mech.log_likelihood(0, 0)) == pytest.approx(0.75)
        assert np.allclose(mech.logp, randomized_response(0.25).logp)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism kind"):
            mechanism_from_dict({"kind": "gaussian"})

    @pytest.mark.parametrize("x_labels, y_labels", [([0, 0], [0, 1]), ([0, 1], [1, 1])],
                             ids=["secrets", "outcomes"])
    def test_duplicate_labels_rejected(self, x_labels, y_labels):
        # a repeated label would read its last row or column only
        rows = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="^duplicate labels$"):
            FiniteMechanism.from_probs(x_labels, y_labels, rows)
        with pytest.raises(ValueError, match="^duplicate labels$"):
            read_spec({"kind": "finite", "x_labels": x_labels, "y_labels": y_labels,
                       "rows": rows})

    def test_bad_row_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            mechanism_from_dict({"kind": "finite", "x_labels": [0, 1],
                                 "y_labels": [0, 1],
                                 "rows": [[0.5, 0.4], [0.5, 0.5]]})


HALF = math.log(0.5)


@pytest.mark.parametrize("row, mass", [
    pytest.param([math.inf, LOG_ZERO], "inf", id="inf-cell"),
    pytest.param([1000.0, LOG_ZERO], "inf", id="overflowing-cell"),
    pytest.param([LOG_ZERO, LOG_ZERO], "-inf", id="zero-row"),
    pytest.param([math.nan, HALF], "nan", id="nan-cell"),
    pytest.param([HALF + 2e-9, HALF + 2e-9], "2e-09", id="mass-just-outside-tolerance"),
])
def test_row_mass_check_at_its_edges(row, mass):
    # the row sums are taken unshifted, and pytest's error::RuntimeWarning
    # filter fails the test if an overflow or a log of 0 warns
    with pytest.raises(ValueError) as info:
        FiniteMechanism((0, 1), ("a", "b"), np.array([[HALF, HALF], row]))
    assert str(info.value) == f"channel row for 1 has mass exp({mass})"


def test_row_mass_within_tolerance_builds():
    FiniteMechanism((0, 1), ("a", "b"), np.array([[HALF, HALF], [HALF + 5e-10] * 2]))
    mech = product_mechanism(randomized_response(0.25), 8)
    assert mech.logp.shape == (256, 256)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: FiniteMechanism((0, 1), (0, 1), np.zeros((2, 3))), ValueError,
                 "^channel matrix shape mismatch$", id="finite-wrong-shape"),
    pytest.param(lambda: randomized_response(0.25).log_likelihood(0, 7), KeyError,
                 "outcome 7 not in channel", id="finite-unknown-outcome"),
    pytest.param(lambda: laplace_log_density(0.0, 0.0, 1.0), ValueError,
                 "^scale must be positive$", id="density-zero-scale"),
    pytest.param(lambda: laplace_log_density(0.0, -1.0, 1.0), ValueError,
                 "^scale must be positive$", id="density-negative-scale"),
    pytest.param(lambda: product_mechanism(randomized_response(0.25), 0), ValueError,
                 "^need at least one entry$", id="product-of-no-entries"),
    pytest.param(lambda: laplace_for_query(sum, 1.0), ValueError,
                 "^sensitivity requires analytic form$", id="query-without-sensitivity"),
    pytest.param(lambda: laplace_for_query(sum, 1.0, sensitivity=math.inf), ValueError,
                 "^sensitivity must be finite$", id="query-infinite-sensitivity"),
    pytest.param(lambda: dp_level_laplace(LaplaceMechanism(sum, 1.0)), ValueError,
                 "^sensitivity requires analytic form$", id="dp-level-without-sensitivity"),
])
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestAtomLogLikelihoods:
    """The array log-likelihoods over a label table against the scalar ones."""

    ATOMS = np.array(list(itertools.product((0, 1, 2), repeat=3)))

    def test_laplace_rows_match_the_scalar_path_bit_for_bit(self):
        mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1) / 3, 0.07)
        for y in (-0.4, 0.0, 1.0 / 3, 0.5, 2.0, 1e12):
            got = mech.log_likelihoods(self.ATOMS, y)
            want = [mech.log_likelihood(tuple(x), y) for x in self.ATOMS.tolist()]
            assert got.tolist() == want

    def test_laplace_overflowing_distance_is_zero_density(self):
        mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1) / 3, 5e-324)
        got = mech.log_likelihoods(self.ATOMS, 1.0)
        at_y = self.ATOMS.sum(axis=1) == 3  # the atoms whose center is y itself
        assert np.all(got[at_y] > 0) and np.all(got[~at_y] == -math.inf)

    @pytest.mark.parametrize("query", [sum, lambda x: 1.0, lambda x: np.sum(x, axis=0)])
    def test_laplace_query_must_give_one_value_per_atom(self, query):
        with pytest.raises(ValueError, match="not one value per atom"):
            LaplaceMechanism(query, 1.0).log_likelihoods(self.ATOMS, 0.5)

    def test_finite_rows_follow_the_labels(self):
        base = FiniteMechanism.from_probs((0, 1, 2), ("a", "b"), [[0.7, 0.3], [0.4, 0.6], [0.0, 1.0]])
        mech = product_mechanism(base, 3)
        assert np.array_equal(mech.rows(self.ATOMS), mech.logp)
        atoms = self.ATOMS[::-1]
        for y in mech.y_labels:
            want = [mech.log_likelihood(tuple(x), y) for x in atoms.tolist()]
            assert mech.log_likelihoods(atoms, y).tolist() == want
        with pytest.raises(KeyError, match="not in channel"):
            mech.rows(np.array([[0, 1]]))
