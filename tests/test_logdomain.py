import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmleak.logdomain import (LOG_ZERO, log_add, log_binom, log_sum_exp,
                              log_sum_exp_array)

finite_logs = st.floats(min_value=-300.0, max_value=300.0)


def mp_lse(values):
    """Big-float oracle: log of the exact sum of exponentials."""
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in values)))


def test_lse_normalized_distribution():
    assert log_sum_exp([math.log(0.25), math.log(0.75)]) == pytest.approx(0.0, abs=1e-15)


def test_lse_symmetry():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_lse_large_inputs_against_bigfloat():
    # inputs far beyond the float overflow threshold for exp
    assert log_sum_exp([700.0, 700.0]) == pytest.approx(700.0 + math.log(2.0), rel=1e-15)
    vals = [700.0, 100.0, 650.0, 699.5]
    assert log_sum_exp(vals) == pytest.approx(mp_lse(vals), rel=1e-13)


def test_lse_empty_rejected():
    with pytest.raises(ValueError, match="empty aggregation"):
        log_sum_exp([])


def test_lse_all_zero_mass():
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_lse_array_matches_scalar_row_by_row():
    rng = np.random.default_rng(3)
    rows = rng.uniform(20.0, 700.0, (40, 6)) * rng.choice([-1.0, 1.0], (40, 1))
    rows[5:10, :3] = LOG_ZERO   # some entries of zero mass
    rows[10] = LOG_ZERO         # and a row of them only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp_array(rows, axis=1)
        assert np.array_equal(log_sum_exp_array(rows.T, axis=0), got)
    assert got[10] == LOG_ZERO
    for row, value in zip(rows, got):
        want = log_sum_exp(row.tolist())
        assert math.isclose(value, want, rel_tol=1e-15)


@given(st.lists(finite_logs, min_size=1, max_size=30))
def test_lse_matches_bigfloat_within_span(vals):
    span = max(vals) - min(vals)
    if span <= 600.0:
        got = log_sum_exp(vals)
        want = mp_lse(vals)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.lists(finite_logs, min_size=1, max_size=20), st.randoms(use_true_random=False))
def test_lse_permutation_invariant(vals, rnd):
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    assert log_sum_exp(vals) == log_sum_exp(shuffled)


@given(st.lists(finite_logs, min_size=1, max_size=20), st.integers(0, 19),
       st.floats(min_value=0.01, max_value=10.0))
def test_lse_monotone_in_each_argument(vals, idx, bump):
    # non-strict: a bump to a term hundreds of log-units below the max is
    # invisible at float precision
    idx = idx % len(vals)
    bumped = list(vals)
    bumped[idx] += bump
    assert log_sum_exp(bumped) >= log_sum_exp(vals)
    if max(vals) - vals[idx] < 30.0:
        assert log_sum_exp(bumped) > log_sum_exp(vals)


@given(finite_logs, finite_logs)
def test_log_add_agrees_with_linear(a, b):
    want = mp_lse([a, b])
    assert log_add(a, b) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_binom_exact_small():
    for n in range(10):
        for k in range(n + 1):
            assert log_binom(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-12)
