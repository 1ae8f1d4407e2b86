import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmleak.logdomain import LOG_ZERO, log_add, log_sum_exp, log_sum_exp_array

finite_logs = st.floats(min_value=-300.0, max_value=300.0)


def _mp_log_sum(values):
    return mpmath.log(mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in values))


def mp_lse(values):
    """Big-float oracle: log of the exact sum of exponentials."""
    with mpmath.workdps(60):
        return float(_mp_log_sum(values))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", [0, 1])
def test_lse_array_padding_mask_keeps_the_bits(axis):
    # padded lanes skip exp but add the +0.0 that exp(LOG_ZERO) adds
    rng = np.random.default_rng(12)
    v = rng.normal(-20.0, 30.0, (8, 64))
    pad = np.arange(8)[:, None] >= rng.integers(2, 9, size=64)  # rows 0 and 1 never
    pad[:, 5] = True      # a column of padding only
    v[pad] = LOG_ZERO
    v[0, 6] = LOG_ZERO    # a zero-mass entry that is not padding
    v[1, 7] = math.inf    # NaN
    if axis == 1:
        v, pad = v.T.copy(), pad.T.copy()
    got = log_sum_exp_array(v, axis, pad)
    assert [x.hex() for x in got.tolist()] == [
        x.hex() for x in log_sum_exp_array(v, axis).tolist()]
    assert got[5] == LOG_ZERO and math.isnan(got[7]) and np.isfinite(np.delete(got, [5, 7])).all()


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
# the true increase, 1.9e-15, is below ulp(28.25) = 3.6e-15
@example(vals=[-58.0, -28.25], idx=0, bump=0.015625)
def test_lse_monotone_in_each_argument(vals, idx, bump):
    idx = idx % len(vals)
    bumped = list(vals)
    bumped[idx] += bump
    r = log_sum_exp(vals)
    assert log_sum_exp(bumped) >= r
    # strict wherever float64 can resolve the increase: r = m + log(s) with
    # s in [1, 20] is good to an ulp of the larger of |r| and log 20 < 4
    with mpmath.workdps(60):
        increase = float(_mp_log_sum(bumped) - _mp_log_sum(vals))
    if increase > 4 * math.ulp(max(abs(r), 4.0)):
        assert log_sum_exp(bumped) > r


@st.composite
def _counted(draw):
    """(values, counts): values drawn with repeats from a few offsets below
    a top, some 700-760 nats below it (subnormal or zero exps) or -inf."""
    top = draw(finite_logs)
    offsets = st.one_of(st.floats(0.0, 40.0), st.floats(700.0, 760.0), st.just(math.inf))
    pool = draw(st.lists(offsets, min_size=1, max_size=4))
    vals = [top - o for o in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))]
    counts = draw(st.lists(st.one_of(st.integers(1, 8), st.integers(1, 2 ** 16)),
                           min_size=len(vals), max_size=len(vals)))
    return vals, counts


@settings(deadline=None)
@given(_counted())
@example(([LOG_ZERO, LOG_ZERO], [3, 1 << 16]))
@example(([-0.5], [1 << 16]))
@example(([0.0, -740.0, -744.0], [1, (1 << 16) - 1, 12345]))
def test_counted_lse_equals_the_expanded_list_bit_for_bit(case):
    vals, counts = case
    expanded = [v for v, c in zip(vals, counts) for _ in range(c)]
    assert log_sum_exp(vals, counts).hex() == log_sum_exp(expanded).hex()


def test_counted_lse_rejects_bad_counts():
    with pytest.raises(ValueError, match="at least 1"):
        log_sum_exp([0.0, -1.0], [1, 0])
    with pytest.raises(ValueError):
        log_sum_exp([0.0, -1.0], [1])


@given(finite_logs, finite_logs)
def test_log_add_agrees_with_linear(a, b):
    want = mp_lse([a, b])
    assert log_add(a, b) == pytest.approx(want, rel=1e-13, abs=1e-13)
