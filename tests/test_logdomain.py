import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from pmleak.logdomain import LOG_ZERO, log_add, log_sum_exp

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


def exact_counted_lse(vals, counts):
    """The counted log-sum-exp from the exact rational sum of its shifted
    exps, rounded to a float once."""
    m = max(vals)
    if m == LOG_ZERO:
        return m
    return m + math.log(float(sum(Fraction(math.exp(v - m)) * c for v, c in zip(vals, counts))))


@st.composite
def _counted_to_c1000(draw):
    """(values, counts) as in `_counted`, with counts up to C(1000, 500) ~ 2^995,
    the largest that `constructions._entry0_channel` claims to handle."""
    top = draw(finite_logs)
    offsets = st.one_of(st.floats(0.0, 40.0), st.floats(700.0, 760.0), st.just(math.inf))
    vals = [top - o for o in draw(st.lists(offsets, min_size=1, max_size=8))]
    binomials = st.builds(math.comb, st.just(1000), st.integers(0, 1000))
    counts = draw(st.lists(st.one_of(st.integers(1, 2 ** 16), binomials),
                           min_size=len(vals), max_size=len(vals)))
    return vals, counts


@settings(deadline=None, max_examples=500)
@given(_counted_to_c1000())
@example(([0.0] * 11, [math.comb(1000, w) for w in range(0, 1001, 100)]))
@example(([0.0, -740.0, -745.0, -760.0, LOG_ZERO],
          [1, math.comb(1000, 500), math.comb(1000, 499), math.comb(1000, 3), 5]))
@example(([-0.25 * w for w in range(1001)], [math.comb(1000, w) for w in range(1001)]))
def test_counted_lse_equals_the_exact_sum_up_to_c_1000(case):
    vals, counts = case
    assert log_sum_exp(vals, counts).hex() == exact_counted_lse(vals, counts).hex()


@pytest.mark.parametrize("vals", [[-1.0, math.nan, 0.0], [math.nan, -2.0], [0.5, math.inf],
                                  [math.inf, math.inf, 1.0]])
def test_counted_lse_of_a_nan_or_inf_value_is_nan(vals):
    assert math.isnan(log_sum_exp(vals, [3] * len(vals)))
    assert math.isnan(log_sum_exp(vals))


def test_counted_lse_past_the_float_range_overflows():
    with pytest.raises(OverflowError):
        log_sum_exp([0.0, 0.0], [2 ** 1023, 2 ** 1023])
    assert log_sum_exp([0.0, -1.0], [2 ** 1023, 1]) == math.log(2.0 ** 1023)


def test_counted_lse_rejects_bad_counts():
    with pytest.raises(ValueError, match="at least 1"):
        log_sum_exp([0.0, -1.0], [1, 0])
    with pytest.raises(ValueError):
        log_sum_exp([0.0, -1.0], [1])


@given(finite_logs, finite_logs)
def test_log_add_agrees_with_linear(a, b):
    want = mp_lse([a, b])
    assert log_add(a, b) == pytest.approx(want, rel=1e-13, abs=1e-13)
