import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import laplace as scipy_laplace

from pmleak import constructions
from pmleak.constructions import (BobModel, CorrelatedBinaryModel, EtaSchedule,
                                  _log_two_pow_minus_one, bob_mechanism, bob_pml,
                                  calibrated_mechanism, calibrated_scale,
                                  cond_density_binomial, cond_density_closed_form,
                                  find_limit_n, lower_bound, pml_d1, sweep)
from pmleak.leakage import entry_channel, pml, pml_entry
from pmleak.logdomain import LOG_ZERO, log_add, log_sum_exp
from pmleak.mechanisms import (FiniteMechanism, LaplaceMechanism, dp_level_laplace,
                               laplace_log_density, product_mechanism)
from pmleak.probability import ExplicitJointModel, FiniteDistribution, ProductModel
from support import RESULTS, density_path, load_script, traced_peak
from test_probability import defined_log_mass, explicit_joint

make_golden = load_script("make_golden")

#: float64 unit roundoff
U = 2.0 ** -53



def enumerated_cond_density(n, eta, b, d1, y):
    """P(y | d1) as an 80-digit mpmath float: the Laplace densities of all
    2^n tails, each with its mass, summed one by one."""
    with mpmath.workdps(80):
        total = mpmath.mpf(0)
        for rest in itertools.product((0, 1), repeat=n):
            w = (mpmath.mpf(eta) if all(s == d1 for s in rest)
                 else (1 - mpmath.mpf(eta)) / (2 ** n - 1))
            center = mpmath.mpf(d1 + sum(rest)) / (n + 1)
            total += w * mpmath.exp(-abs(mpmath.mpf(y) - center) / b) / (2 * b)
        return total


def log_binom(n, k):
    """log of the binomial coefficient C(n, k), for the O(n) and window oracles."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient undefined for n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def test_log_binom_exact_small():
    for n in range(10):
        for k in range(n + 1):
            assert log_binom(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-12)


def loop_cond_density(model, b, d1, y):
    """O(n) oracle: all n+1 Hamming-weight terms, the all-d1 one left out by index."""
    n = model.n
    m = n + 1
    lap_peak = laplace_log_density(float(d1), b, y)
    terms = [log_binom(n, i) + laplace_log_density((d1 + i) / m, b, y) for i in range(n + 1)]
    terms[n * d1] = LOG_ZERO
    uniform_part = log_sum_exp(terms)
    log_rest = math.log1p(-model.eta) - math.log(2 ** n - 1)  # exact big int
    return log_add(math.log(model.eta) + lap_peak, log_rest + uniform_part)


def loop_entry_channel(model, mech, i, y, log_mass):
    """Per-atom oracle for entry_channel: each atom, as a tuple, joins the
    bucket of x[i] with its log-mass log_mass(x), from the model's
    definition, and its log-likelihood: a finite channel's scalar one, a
    Laplace mechanism's relative to the nearest center of all atoms with
    mass, at y clipped to their hull; returns (law of entry i, induced
    channel) as lists of log values."""
    model._check_index(i)
    atoms = [(x, lp) for x in itertools.product(model.alphabet, repeat=model.num_entries)
             if (lp := log_mass(x)) > LOG_ZERO]
    if isinstance(mech, LaplaceMechanism):
        centers = [mech.center(x) for x, _ in atoms]
        y = min(max(y, min(centers)), max(centers))
        nearest = min(abs(y - c) for c in centers)
        lls = [(nearest - abs(y - c)) / mech.scale for c in centers]
    else:
        lls = [mech.log_likelihood(x, y) for x, _ in atoms]
    buckets = {d: [] for d in model.alphabet}
    for (x, lp), ll in zip(atoms, lls):
        buckets[x[i]].append((lp, ll))
    law, lls = [], []
    for atoms in buckets.values():
        lcond = log_sum_exp([lp for lp, _ in atoms]) if atoms else LOG_ZERO
        law.append(lcond)
        lls.append(log_sum_exp([lp - lcond + ll for lp, ll in atoms]) if atoms else LOG_ZERO)
    return law, lls


def mp_log_cond_densities(n, etas, b, y, dps=50):
    """[[log P(y | d1) for d1 = 0, 1] for each eta], from the corpus
    generator's direct sum over Hamming weights at `dps` digits."""
    with mpmath.workdps(dps):
        return [[float(mpmath.log(c / (2 * mpmath.mpf(b)))) for c in row]
                for row in make_golden.cond_sums(n, etas, b, y, dps)]


def mp_log_closed_forms(n, eta, b, y, dps=60):
    """[log P(y | d1) for d1 = 0, 1] in mpmath where every summed center lies
    on one side of y: above it where y(n+1) <= 1, below it where y(n+1) >= n.
    With g = e^-t above y and e^t below (t = 1/(b(n+1))), the Hamming-weight
    sums telescope to e^{+-y/b} ((1+g)^n - 1) in row 0 and
    e^{+-y/b} g ((1+g)^n - g^n) in row 1; the all-d1 string adds eta e^{-|y - d1|/b}."""
    above = y * (n + 1) <= 1
    assert above or y * (n + 1) >= n
    with mpmath.workdps(dps):
        eta, b, y = mpmath.mpf(eta), mpmath.mpf(b), mpmath.mpf(y)
        t = 1 / (b * (n + 1))
        g = mpmath.exp(-t if above else t)
        scale = mpmath.exp(y / b if above else -y / b)
        # expm1 and log1p keep n g, resp. n/g, where it is below the working
        # precision: (1+g)^n - g^n = g^n ((1 + 1/g)^n - 1)
        sums = [mpmath.expm1(n * mpmath.log1p(g)),
                g ** (n + 1) * mpmath.expm1(n * mpmath.log1p(1 / g))]
        return [float(mpmath.log((eta * mpmath.exp(-abs(y - d1) / b)
                                  + (1 - eta) / (2 ** n - 1) * scale * sums[d1]) / (2 * b)))
                for d1 in (0, 1)]


def assert_end_rows_match_mpmath(n, epsilon, ys):
    """Both rows of `cond_density_binomial` at eta = 1/2 and each y, where
    every summed center lies on one side of y, within 1e-15 relative to
    1 + |log P| of `mp_log_closed_forms`."""
    model = CorrelatedBinaryModel(n, 0.25, 0.5)
    b = calibrated_scale(n, epsilon)
    for y in ys:
        want = mp_log_closed_forms(n, 0.5, b, y)
        for d1 in (0, 1):
            got = cond_density_binomial(model, b, d1, y)
            assert abs(got - want[d1]) <= 1e-15 * (1 + abs(want[d1])), (y, d1)


def assert_rows_match_direct_sum(n, epsilon, ys, etas):
    """Both rows of `cond_density_binomial` at each y and eta against the
    30-digit direct sum, at the tolerance of
    test_binomial_matches_mpmath_at_positive_y."""
    b = calibrated_scale(n, epsilon)
    for y in ys:
        for eta, want in zip(etas, mp_log_cond_densities(n, etas, b, y, dps=30)):
            model = CorrelatedBinaryModel(n, 0.25, eta)
            for d1 in (0, 1):
                got = cond_density_binomial(model, b, d1, y)
                tol = 256 * U * (1 + abs(want[d1]) + y * (n + 1) * epsilon)
                assert abs(got - want[d1]) <= tol, (y, eta, d1)


#: the first entry's two values, as a column against the window's indices
BITS = np.array([[0.0], [1.0]])


def window(n, b, y):
    """The indices [lo, hi] of the window oracle at y: around the mode, 9.5
    binomial standard deviations (sigma <= sqrt(n)/2) to each side, or fewer
    where the terms' log-concavity puts the edges 45 nats below the largest.

    With s = y(n+1) - d1 and t = 1/((n+1)b), term i is log C(n,i) - t|s - i|
    up to a constant, a sum of two concave functions of i, so the terms are
    log-concave with the single mode clip(s, n/(1+e^t), n/(1+e^-t)), and
    within j steps of the largest each step falls by at least 1/(m' + 3 + j),
    m' = min(mode, n - mode).  A last step of log-ratio -delta inside the
    window bounds the tail left out beyond it by e^{a_edge - delta}/(1 - e^-delta)."""
    m = n + 1
    q = math.exp(-1.0 / (m * b))  # e^-t cannot overflow, however small b is
    # the mode at d1 = 0; at d1 = 1 it is at most one index lower
    mode = min(max(y * m, n * q / (1.0 + q)), n / (1.0 + q))
    # D >= half + 1 steps from the first term left out fall by at least
    # D(D-1)/(2(near - 1 + D)) nats, 45 once half(half+1) >= 90 (near + half)
    near = min(mode, n - mode) + 4
    half = min(math.ceil(9.5 * (math.sqrt(n) / 2 + 1)) + 2,
               math.ceil((89 + math.sqrt(89 * 89 + 360 * near)) / 2))
    return max(0, math.floor(mode) - half - 1), min(n, math.ceil(mode) + half)


def window_cond_densities(model, b, y, lo, hi):
    """[log P(Y = y | D_1 = d1) for d1 = 0, 1] from the Hamming-weight terms
    lo..hi, both rows in one (2, W) reduction: the window oracle."""
    n = model.n
    m = n + 1
    i = np.arange(lo, hi + 1, dtype=float)
    # log C(n, i) - log C(n, lo), from the exact ratios C(n, i+1) / C(n, i)
    log_c = np.concatenate([[0.0], np.cumsum(np.log((n - i[:-1]) / i[1:]))])
    # row d1: log_c - |y - (d1 + i) / m| / b; a distance over b that
    # overflows is a term of zero mass
    with np.errstate(over="ignore"):
        terms = log_c - np.abs(y - (BITS + i) / m) / b
    for d1 in (0, 1):
        if lo <= n * d1 <= hi:
            terms[d1, n * d1 - lo] = LOG_ZERO
    # the constants of size n are added apart from the terms: their rounding
    # is then the same at d1 = 0 and 1 and cancels from the PML
    log_scale = (math.log1p(-model.eta) - _log_two_pow_minus_one(n)
                 + log_binom(n, lo) - math.log(2.0 * b))
    uniform_part = (log_scale + logsumexp(terms, axis=-1)).tolist()
    # the all-d1 tail: its center is d1 itself
    return [log_add(math.log(model.eta) + laplace_log_density(float(d1), b, y), uniform)
            for d1, uniform in enumerate(uniform_part)]


def outside_window(n, b, y):
    """Whether both kinks y(n+1) - d1 fall outside the window oracle's window."""
    lo, hi = window(n, b, y)
    return y * (n + 1) < lo or y * (n + 1) - 1 > hi


@st.composite
def positive_outcomes(draw):
    """(n, d1, y) with y in (0, 1.5): anywhere, on a bin edge, or one ulp off one."""
    n = draw(st.integers(1, 60))
    d1 = draw(st.sampled_from((0, 1)))
    place = draw(st.sampled_from(("free", "edge", "above", "below")))
    if place == "free":
        y = draw(st.floats(0.0, 1.5, exclude_min=True, exclude_max=True))
    else:
        y = (d1 + draw(st.integers(0, n))) / (n + 1)
        if place != "edge":
            y = math.nextafter(y, 2.0 if place == "above" else -1.0)
    assume(0.0 < y < 1.5)
    return n, d1, y


class TestCondDensities:
    @pytest.mark.parametrize("d1", [0, 1])
    @pytest.mark.parametrize("y", [-0.3, -1.0, 0.0])
    def test_closed_form_matches_binomial(self, d1, y):
        model = CorrelatedBinaryModel(6, 0.25, 0.5)
        b = calibrated_scale(6, 1.0)
        closed = cond_density_closed_form(model, b, d1, y)
        binom = cond_density_binomial(model, b, d1, y)
        assert closed == pytest.approx(binom, abs=1e-10)

    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 5])
    @pytest.mark.parametrize("epsilon", [0.1, 40.0])
    def test_binomial_is_the_closed_form_at_nonpositive_y(self, n, epsilon):
        # an anchored closed form rounds its n-sized anchor into the rows:
        # 5.9e-12 off mpmath at n = 10^5, epsilon = 40, y = -1e-9
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, epsilon)
        for y in (-1e-9, 0.0, -0.3):
            want = mp_log_closed_forms(n, 0.5, b, y)
            for d1 in (0, 1):
                got = cond_density_binomial(model, b, d1, y)
                assert got == cond_density_closed_form(model, b, d1, y)
                assert abs(got - want[d1]) <= 1e-15 * (1 + abs(want[d1]))

    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4])
    @pytest.mark.parametrize("epsilon", [0.1, 5.0, 40.0, 1000.0])
    def test_binomial_rows_are_absolute_at_the_ends(self, n, epsilon):
        # at k <= 0 < y and k >= n the rows are the closed forms, unanchored;
        # anchored, they missed mpmath by 3.8e-14 at n = 10^4, epsilon = 5.
        # At epsilon = 1000, q = e^-epsilon is 0 in a float
        assert_end_rows_match_mpmath(
            n, epsilon, (0.5 / (n + 1), 1e-9, 1 - 0.5 / (n + 1), 1.0, 1 + 1e-9))

    @pytest.mark.parametrize("y", [0.0905, 0.0906, 0.0907, 0.99 / 11, 0.9999 / 11])
    def test_unanchored_end_rows_where_the_first_center_nears_y(self, y):
        # y/b and t = 1/(b(n+1)) = epsilon nearly cancel in row 0's uniform
        # part as y(n+1) nears 1; formed apart, they missed mpmath by 3.0e-14
        # relative at y = 0.0906.  The mirror image at 1 - y takes them alike
        assert_end_rows_match_mpmath(10, 1000.0, (y, 1 - y))

    @pytest.mark.parametrize("n, y", [(5, 0.1581), (8, 0.10833)])
    def test_unanchored_end_rows_just_above_the_lift(self, n, y):
        # at t = epsilon just above 53 log 2, -log 2b and the O(1) terms of
        # row 0's uniform part (each about 5) cancel to under 1; rounded one
        # by one they missed mpmath by 1.4e-15 and 1.2e-15 relative here
        assert_end_rows_match_mpmath(n, 38.0, (y, 1 - y))

    @pytest.mark.parametrize("d1", [0, 1])
    @pytest.mark.parametrize("y", [math.nan, -math.inf])
    def test_closed_form_rejects_nonfinite_y(self, y, d1):
        model = CorrelatedBinaryModel(4, 0.25, 0.5)
        with pytest.raises(ValueError, match="y must be finite"):
            cond_density_closed_form(model, calibrated_scale(4, 1.0), d1, y)

    @pytest.mark.parametrize("n, b, d1, y, message", [
        (4, 0.1, 2, 0.5, "d1 must be a bit"),
        (4, 0.0, 0, 0.5, "scale must be positive"),
        (4, math.inf, 0, 0.5, "scale must be finite"),
        # t = 1/(b(n+1)) overflows: these rows were NaN
        (10, 1e-310, 0, 0.3, "scale is too small"),
        (10, 1e-310, 1, 0.5, "scale is too small"),
        (1, 1e-309, 0, 0.5, "scale is too small"),
        (1000, 1e-315, 1, 0.3, "scale is too small")])
    def test_binomial_rejects_bad_arguments(self, n, b, d1, y, message):
        with pytest.raises(ValueError, match=message):
            cond_density_binomial(CorrelatedBinaryModel(n, 0.25, 0.5), b, d1, y)

    @pytest.mark.parametrize("y", [-1e308, 1e308])
    def test_binomial_where_y_times_n_overflows(self, y):
        # y(n+1) is +-inf, and the kink is taken on the same side of the ends
        model = CorrelatedBinaryModel(10, 0.25, 0.5)
        b = calibrated_scale(10, 1.0)
        for d1 in (0, 1):
            assert cond_density_binomial(model, b, d1, y) == LOG_ZERO
            if y < 0:
                assert cond_density_closed_form(model, b, d1, y) == LOG_ZERO

    @pytest.mark.parametrize("d1", [0, 1])
    def test_binomial_matches_enumeration(self, d1):
        n, alpha, eta, epsilon = 3, 0.25, 0.5, 1.0
        model = CorrelatedBinaryModel(n, alpha, eta)
        b = calibrated_scale(n, epsilon)
        for y in (-1.2, -0.3, 0.0, 0.4):
            want = float(enumerated_cond_density(n, eta, b, d1, y))
            got = math.exp(cond_density_binomial(model, b, d1, y))
            assert got == pytest.approx(want, rel=1e-10)

    def test_dominance_for_nonpositive_y(self):
        model = CorrelatedBinaryModel(10, 0.25, 0.5)
        b = calibrated_scale(10, 0.5)
        for y in np.linspace(-3.0, 0.0, 31):
            v1 = cond_density_closed_form(model, b, 1, float(y))
            v0 = cond_density_closed_form(model, b, 0, float(y))
            assert v1 <= v0 + 1e-12

    def test_closed_form_rejects_positive_y(self):
        model = CorrelatedBinaryModel(4, 0.25, 0.5)
        with pytest.raises(ValueError, match="y <= 0"):
            cond_density_closed_form(model, 0.1, 0, 0.5)

    @pytest.mark.parametrize("d1", [0, 1])
    def test_density_integrates_to_one(self, d1):
        n = 4
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 1.0)
        val, _ = quad(lambda y: math.exp(cond_density_binomial(model, b, d1, y)),
                      -10, 11, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_binomial_peak_term_without_cancellation(self):
        # tiny eta, large epsilon: the all-d1 term dominates the Hamming-weight
        # sum, so subtracting it back out would leave cancellation noise
        n, eta, epsilon, y, d1 = 3, 1e-12, 40.0, 0.01, 0
        model = CorrelatedBinaryModel(n, 0.25, eta)
        b = calibrated_scale(n, epsilon)
        want = enumerated_cond_density(n, eta, b, d1, y)
        with mpmath.workdps(80):
            got = mpmath.exp(cond_density_binomial(model, b, d1, y))
            assert float(abs(got / want - 1)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(outcome=positive_outcomes(), eta=st.floats(1e-12, 0.5),
           epsilon=st.floats(0.01, 200.0))
    def test_binomial_matches_mpmath_at_positive_y(self, outcome, eta, epsilon):
        n, d1, y = outcome
        model = CorrelatedBinaryModel(n, 0.25, eta)
        b = calibrated_scale(n, epsilon)
        want = mp_log_cond_densities(n, (eta,), b, y)[0][d1]
        got = cond_density_binomial(model, b, d1, y)
        # rounding y, the centers and the exponents perturbs log P by at
        # most about U (1 + |log P| + y (n+1) epsilon); allow 256 times that
        assert abs(got - want) <= 256 * U * (1 + abs(want) + y * (n + 1) * epsilon)

    @pytest.mark.parametrize("n", [4, 10, 20])
    @pytest.mark.parametrize("epsilon", [1e10, 1e20, 1e60, 1e100])
    def test_contour_rows_keep_their_last_bits_at_large_epsilon(self, n, epsilon):
        # one ulp below a bin edge the exact 1 - f is tiny: formed as 1.0 - f
        # it rounded at the size of t into the anchor, and both absolute rows
        # missed mpmath by 0.33 relative at n = 4, y = 0.4 - ulp, epsilon 5.5e90
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, epsilon)
        m = n + 1
        for k in sorted({1, 2, n // 2}):
            for y in (math.nextafter(k / m, 0.0), math.nextafter((k + 1) / m, 0.0),
                      (k + 0.5) / m):
                want = mp_log_cond_densities(n, (0.5,), b, y)[0]
                for d1 in (0, 1):
                    got = cond_density_binomial(model, b, d1, y)
                    assert abs(got - want[d1]) <= 1e-15 * (1 + abs(want[d1])), (y, d1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 60), d1=st.sampled_from((0, 1)), eta=st.floats(1e-12, 0.5),
           epsilon=st.floats(0.01, 200.0), y=st.floats(-2.0, 0.0))
    def test_closed_form_matches_mpmath(self, n, d1, eta, epsilon, y):
        model = CorrelatedBinaryModel(n, 0.25, eta)
        b = calibrated_scale(n, epsilon)
        want = mp_log_cond_densities(n, (eta,), b, y)[0][d1]
        got = cond_density_closed_form(model, b, d1, y)
        assert abs(got - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("d1", [0, 1])
    def test_binomial_window_matches_full_sum_at_large_n(self, n, d1):
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 0.1)
        # at the mode, on a bin edge below the mode, near 1 and above 1
        for y in (0.5, (d1 + n // 3) / (n + 1), 0.999, 1.2):
            want = loop_cond_density(model, b, d1, y)
            got = cond_density_binomial(model, b, d1, y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 6])
    def test_closed_forms_meet_the_window_at_its_thresholds(self, n):
        # below lo/(n+1) and above (hi+1)/(n+1) no kink falls inside the
        # window oracle's window; one index and one ulp to either side, the
        # closed forms and the summed window agree
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 0.1)
        m = n + 1
        lo, hi = window(n, b, 0.0)[0], window(n, b, 1.0)[1]
        for edge, mirrored in ((lo / m, False), ((hi + 1) / m, True)):
            for y in (edge - 1 / m, math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, 2.0), edge + 1 / m):
                summed = window_cond_densities(model, b, y, *window(n, b, y))
                anchor, rel = constructions._end_rows(model, b, y, mirrored, anchored=True)
                closed = [anchor + r for r in rel]
                # the window's absolute values carry the rounding of
                # log C(n, lo), about ulp(lgamma(n+1)); their difference does not
                assert closed == pytest.approx(summed, rel=1e-12)
                assert abs((closed[1] - closed[0]) - (summed[1] - summed[0])) <= 1e-12
                # the contour evaluator, whose line rule both thresholds lie inside
                got = [cond_density_binomial(model, b, d1, y) for d1 in (0, 1)]
                assert got == pytest.approx(closed, rel=1e-12)
                assert abs((got[1] - got[0]) - (closed[1] - closed[0])) <= 1e-12
            outer = edge + 1 / m if mirrored else edge - 1 / m
            assert outside_window(n, b, outer) and not outside_window(n, b, edge)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_closed_forms_match_mpmath_outside_the_window(self, n):
        # outcomes the hypothesis tests (n <= 60) never reach: bin edges and
        # one ulp off them just outside the window oracle's window on either
        # side, where the contour adds the closed form, and y = 1
        m = n + 1
        for epsilon in (0.01, 0.1, 1.0):
            b = calibrated_scale(n, epsilon)
            lo, hi = window(n, b, 0.0)[0], window(n, b, 1.0)[1]
            ys = [1.0]
            for edge in ((lo - 1) / m, (hi + 2) / m):
                ys += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
            assert all(outside_window(n, b, y) for y in ys)
            assert_rows_match_direct_sum(n, epsilon, ys, etas=(1e-12, 0.5))

    @pytest.mark.parametrize("n", [500, 2000])
    def test_saddle_integral_matches_mpmath_inside_the_band(self, n):
        # bin edges and one ulp off them at the band's ends, where a kernel
        # pole nears the integration path, at its middle, and 5/sigma past
        # its ends, where the path has passed a pole and the integral still
        # adds to the closed form
        m = n + 1
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        for epsilon in (0.01, 0.1, 1.0):
            ys = [0.5]
            for sign in (1, -1):
                end = n / (1 + math.exp(sign * epsilon))
                edge = round(end) / m
                ys += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
                past = epsilon + 5 / math.sqrt(end * (n - end) / n)
                ys.append(round(n / (1 + math.exp(sign * past))) / m)
            paths = [density_path(model, epsilon, y) for y in ys]
            assert paths[0] in ("line", "line + erfc pole")
            assert paths[1:] == 2 * (3 * ["line + erfc pole"] + ["line + residue"])
            assert_rows_match_direct_sum(n, epsilon, ys, etas=(1e-12, 0.5))

    @pytest.mark.parametrize("n", [1000, 3000])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    def test_line_kinks_where_the_integral_is_left_out(self, n, epsilon):
        # outward from each end of the band of modes, the first kinks whose
        # integral a bound puts below 2^-60 of the crossed pole's closed form:
        # there the rows are that closed form alone
        m = n + 1
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        ys = []
        for step in (-1, 1):
            # in quarters of a bin, from the band's end outward
            j = 4 * round(n / (1 + math.exp(-step * epsilon)))
            while density_path(model, epsilon, j / (4 * m)) != "line, residue alone":
                j += step
            ys += [(j + i * step) / (4 * m) for i in (0, 1, 2, 3, 10)]
        for y in ys:
            assert density_path(model, epsilon, y) == "line, residue alone"
            want = make_golden.reference_pml(n, 0.25, 0.5, epsilon, y)
            assert abs(pml_d1(model, epsilon, y) - want) <= 1e-14
        assert_rows_match_direct_sum(n, epsilon, ys, etas=(0.5,))

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 8])
    def test_saddle_integral_pml_matches_long_double_sums(self, n):
        # inside the band and near its upper end (n/(1+e^-0.1) = 0.525 n),
        # against both rows summed in 80-bit floats around the kink
        m = n + 1
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        half = 12 * math.isqrt(n)
        for y in (0.4999, 0.5003, 0.52, 0.5245, 0.53):
            s = np.longdouble(y) * m
            i = np.arange(int(s) - half, int(s) + half, dtype=np.longdouble)
            log_c = np.concatenate([[0.0], np.cumsum(np.log((n - i[:-1]) / i[1:]))])
            c0, c1 = (log_c - np.longdouble(0.1) * np.abs(s - d1 - i) for d1 in (0, 1))
            top = max(c0.max(), c1.max())
            p0, p1 = (np.exp(c - top).sum() for c in (c0, c1))
            want = float(np.log(max(p0, p1) / (0.25 * p0 + 0.75 * p1)))
            assert abs(pml_d1(model, 0.1, y) - want) <= 1e-14

    @pytest.mark.parametrize("n, b", [(3, 1e-4), (3, 2.5e-5), (100, 1e-6)])
    def test_binomial_tiny_scale_is_finite(self, n, b):
        # t = 1/((n+1) b) reaches about 1e4, where e^t overflows a float.
        # At y = 0.9/(n+1) and its mirror image, row 0's uniform part, of
        # size e^-t, outweighs its peak term
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        for d1 in (0, 1):
            for y in (0.01, 0.3, 1.2, 0.9 / (n + 1), 1 - 0.9 / (n + 1)):
                got = cond_density_binomial(model, b, d1, y)
                assert math.isfinite(got)
                assert got == pytest.approx(loop_cond_density(model, b, d1, y), rel=1e-12)

    @pytest.mark.parametrize("n", [2 * 10 ** 15, 2 ** 53 - 1])
    def test_binomial_window_near_an_end_at_any_n(self, n):
        # ten ones in the tail: too few for the line, so the circle applies;
        # at epsilon = 40 the band of modes reaches down to them, inside the
        # window oracle's window.  The all-0 peak term outweighs the rest of
        # either row by e^Theta(n), so the PML is log(1/alpha)
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 40.0)
        y = 10.5 / (n + 1)
        assert not outside_window(n, b, y)
        # the paths of the calls below
        paths = [density_path(model, e, v) for e, v in ((40.0, y), (0.1, 0.5), (0.1, -0.3))]
        assert paths == ["circle", "line", "closed form"]
        with traced_peak() as peak:
            for d1 in (0, 1):
                assert math.isfinite(cond_density_binomial(model, b, d1, y))
            assert abs(pml_d1(model, 40.0, y) - math.log(4.0)) <= 1e-15
            assert pml_d1(model, 0.1, 0.5) == 0.0
            assert math.isfinite(pml_d1(model, 0.1, -0.3))
        assert peak.bytes < 1 << 20

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 99, 100, 1000, 10 ** 6])
    def test_circle_rule_meets_the_window_oracle(self, n):
        # every kink within 12 of either end off the line, at mid-bin and on
        # its edges, where the window oracle and the circle or closed forms overlap
        m = n + 1
        ks = {k for k in (*range(13), *range(n - 12, n + 1)) if 0 <= k <= n}
        for epsilon in (0.01, 0.29, 1.0, 40.0):
            b = calibrated_scale(n, epsilon)
            model = CorrelatedBinaryModel(n, 0.25, 0.5)
            for k in sorted(ks):
                for y in (k / m, (k + 0.5) / m, math.nextafter((k + 1) / m, 0.0)):
                    if not 0 < y < 1 or density_path(model, epsilon, y).startswith("line"):
                        continue
                    c0, c1 = window_cond_densities(model, b, y, *window(n, b, y))
                    want = max(c0, c1) - log_add(math.log(0.75) + c1, math.log(0.25) + c0)
                    assert abs(pml_d1(model, epsilon, y) - want) <= 1e-13, (epsilon, y)

    def test_n1_two_component_mixture_by_hand(self):
        # n = 1: tail is a single bit; weights eta (same as d1) and 1-eta
        model = CorrelatedBinaryModel(1, 0.25, 0.3)
        b = 0.7
        for d1 in (0, 1):
            for y in (-0.8, 0.1, 0.6):
                same = scipy_laplace.pdf(y, loc=(d1 + d1) / 2, scale=b)
                other = scipy_laplace.pdf(y, loc=(d1 + (1 - d1)) / 2, scale=b)
                want = 0.3 * same + 0.7 * other
                got = math.exp(cond_density_binomial(model, b, d1, y))
                assert got == pytest.approx(want, rel=1e-12)


def marginal_density(model, epsilon, y):
    """log P_Y(y) as pml_d1 implies it: pml_d1 = max(c0, c1) - log P_Y(y)."""
    b = calibrated_scale(model.n, epsilon)
    evaluator = cond_density_closed_form if y <= 0 else cond_density_binomial
    return max(evaluator(model, b, d1, y) for d1 in (0, 1)) - pml_d1(model, epsilon, y)


class TestMarginalDensity:
    def test_mixture_bounds(self):
        model = CorrelatedBinaryModel(6, 0.25, 0.5)
        b = calibrated_scale(6, 1.0)
        for y in (-1.5, -0.3):
            c0 = cond_density_closed_form(model, b, 0, y)
            c1 = cond_density_closed_form(model, b, 1, y)
            m = marginal_density(model, 1.0, y)
            assert min(c0, c1) - 1e-12 <= m <= max(c0, c1) + 1e-12

    def test_equal_mixture_of_equal_values(self):
        # at the crossing point of the two conditionals the mixture equals either
        model = CorrelatedBinaryModel(3, 0.3, 0.5)
        b = calibrated_scale(3, 1.0)  # 0.25
        f = lambda y: (math.exp(cond_density_binomial(model, b, 1, y))
                       - math.exp(cond_density_binomial(model, b, 0, y)))
        from scipy.optimize import brentq
        y_star = brentq(f, 0.0, 1.0)
        v = cond_density_binomial(model, b, 0, y_star)
        assert marginal_density(model, 1.0, y_star) == pytest.approx(v, abs=1e-9)

    def test_matches_enumeration(self):
        n, alpha, eta, epsilon, y = 6, 0.25, 0.5, 1.0, -0.3
        model = CorrelatedBinaryModel(n, alpha, eta)
        b = calibrated_scale(n, epsilon)
        want = float((1 - alpha) * enumerated_cond_density(n, eta, b, 1, y)
                     + alpha * enumerated_cond_density(n, eta, b, 0, y))
        assert math.exp(marginal_density(model, epsilon, y)) == pytest.approx(want, rel=1e-10)


class TestPmlD1:
    def test_sandwich(self):
        alpha, eta = 0.25, 0.5
        for n in (6, 30, 200, 2000):
            model = CorrelatedBinaryModel(n, alpha, eta)
            for epsilon in (0.1, 0.5, 1.0, 2.0):
                bound = lower_bound(n, alpha, eta, epsilon)
                for y in np.linspace(-2.0, 0.0, 9):
                    value = pml_d1(model, epsilon, float(y))
                    assert bound <= value + 1e-12
                    assert value <= -math.log(alpha)

    def test_never_above_the_cap_on_random_draws(self):
        # no slack: a float log_add(a, b) is never below b, so the PML of
        # -log_add(., log alpha + (c0 - top)) is at most -log alpha exactly
        rng = np.random.default_rng(2022)
        for _ in range(600):
            n = int(10 ** rng.uniform(0.0, 12.0))
            alpha, eta = rng.uniform(0.01, 0.49), rng.uniform(0.01, 0.99)
            epsilon = 10 ** rng.uniform(-3.0, 1.5)
            y = rng.uniform(-1.0, 0.0) if rng.random() < 0.75 else rng.uniform(0.0, 1.5)
            assert pml_d1(CorrelatedBinaryModel(n, alpha, eta), epsilon, y) <= -math.log(alpha)

    @pytest.mark.parametrize("schedule", [EtaSchedule.constant(0.5),
                                          EtaSchedule.polynomial(1.0, 1.0)],
                             ids=["constant", "polynomial"])
    def test_never_above_the_cap_on_the_committed_sweeps(self, schedule):
        # the grids of results/sweep_eta_*.csv, as thm3 --n-range 4 4096 24 takes them
        grid = sorted({int(round(v)) for v in np.geomspace(4, 4096, 24)})
        for row in sweep(grid, 0.25, schedule, 0.1, -0.3):
            assert row.exact_pml <= row.eps_max == -math.log(0.25)

    def test_positive_y_uses_explicit_max(self):
        model = CorrelatedBinaryModel(5, 0.25, 0.5)
        b = calibrated_scale(5, 1.0)
        y = 0.8
        c0 = cond_density_binomial(model, b, 0, y)
        c1 = cond_density_binomial(model, b, 1, y)
        den = log_add(math.log(0.75) + c1, math.log(0.25) + c0)
        assert pml_d1(model, 1.0, y) == pytest.approx(max(c0, c1) - den, abs=1e-12)

    def test_cross_module_consistency(self):
        n, alpha, eta, epsilon, y = 6, 0.25, 0.5, 1.0, -0.3
        model = CorrelatedBinaryModel(n, alpha, eta)
        joint = ExplicitJointModel.from_model(model)
        mech = calibrated_mechanism(model, epsilon)
        assert pml_d1(model, epsilon, y) == pytest.approx(
            pml_entry(joint, mech, 0, y).pml, abs=1e-9)

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12, 2 * 10 ** 15,
                                   2 ** 53 - 1])
    @pytest.mark.parametrize("y, want", [
        (0.4, -math.log(0.25 + 0.75 * math.exp(-0.1))),
        (0.1, -math.log(0.25)),
        (0.6, -math.log(0.75 + 0.25 * math.exp(-0.1))),
        (0.9, -math.log(0.75))])
    def test_reads_its_limits_outside_the_band(self, n, y, want):
        # at y = 0.4 every summed center lies above y, so U1/U0 = e^-eps up
        # to terms e^-Theta(n) smaller, and at y = 0.6 (mirrored) U0/U1 is;
        # at y = 0.1 (0.9) the all-0 (all-1) peak term outweighs the rest by
        # e^Theta(n).  No n-sized constant may round into the PML.
        assert abs(pml_d1(CorrelatedBinaryModel(n, 0.25, 0.5), 0.1, y) - want) <= 1e-15

    def test_reads_zero_at_one_half(self):
        # i -> n - i, d1 -> 1 - d1 maps each conditional onto the other; the
        # two rows' sums, rounded apart, read up to 6e-16 here
        for n in (100, 101, 150, 200, 999, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8, 10 ** 10):
            model = CorrelatedBinaryModel(n, 0.25, 0.5)
            for epsilon in (0.01, 0.1, 1.0, 5.0, 15.6, 40.0, 100.0, 200.0):
                assert pml_d1(model, epsilon, 0.5) == 0.0, (n, epsilon)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("epsilon", [1e4, 1e6, 1e12, 1e100])
    def test_end_bins_at_large_epsilon(self, n, epsilon):
        # in the end bins at t > 53 log 2, the lifted closed forms: row 0's
        # peak term e^{t (1 - 2y(n+1))} passes 1 at y(n+1) = 1/2
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        for j in (1, 2, 3):
            for y in (j / (4 * (n + 1)), 1.0 - j / (4 * (n + 1))):
                want = make_golden.reference_pml(n, 0.25, 0.5, epsilon, y)
                assert abs(pml_d1(model, epsilon, y) - want) <= 1e-14 * (1.0 + want), y

    def test_line_leaves_out_an_integral_below_the_last_bit(self):
        # at kinks far outside the band of modes a crossed pole's closed form
        # is the whole value
        far = [(n, y) for n in (10 ** 6, 10 ** 10) for y in (0.1, 0.4, 0.6, 0.9)]
        for n, y in far + [(1000, 0.1), (1000, 0.9)]:
            model = CorrelatedBinaryModel(n, 0.25, 0.5)
            assert density_path(model, 0.1, y) == "line, residue alone"
        # where the integral still counts, it is added to it: 5/sigma past the
        # band's ends (test_saddle_integral_matches_mpmath_inside_the_band)
        # and at n = 1000, y = 0.4 and 0.6, n KL about 20 nats from the band
        near = [(1000, 0.1, 0.4), (1000, 0.1, 0.6)]
        for n in (500, 2000):
            for epsilon in (0.01, 0.1, 1.0):
                for sign in (1, -1):
                    end = n / (1 + math.exp(sign * epsilon))
                    past = epsilon + 5 / math.sqrt(end * (n - end) / n)
                    near.append((n, epsilon, round(n / (1 + math.exp(sign * past))) / (n + 1)))
        for n, epsilon, y in near:
            model = CorrelatedBinaryModel(n, 0.25, 0.5)
            assert density_path(model, epsilon, y) == "line + residue"

    def test_residue_alone_returns_the_anchored_end_rows(self):
        # where the integral is left out, the rows are the crossed pole's
        # closed form, anchored, and mirrored where the pole above the band
        # (y > 1/2) was crossed; the integral's log1p(0) adds nothing
        rng = np.random.default_rng(37)
        seen = {"line, residue alone": 0, "circle, residue alone": 0}
        for _ in range(400):
            n = int(10 ** rng.uniform(2.0, 12.0))
            epsilon = 10 ** rng.uniform(-2.0, 0.5)
            k = int(rng.choice([rng.integers(1, 6), n - rng.integers(1, 6), rng.integers(1, n)]))
            y = (k + rng.uniform(0.1, 0.9)) / (n + 1)
            model = CorrelatedBinaryModel(n, 0.25, 0.5)
            b = calibrated_scale(n, epsilon)
            _, rows, path = constructions._cond_densities_binomial(model, b, y, anchored=True)
            if path not in seen:
                continue
            seen[path] += 1
            _, want = constructions._end_rows(model, b, y, y > 0.5, anchored=True)
            assert [v.hex() for v in rows] == [v.hex() for v in want], (n, epsilon, y)
        assert min(seen.values()) >= 10, seen

    def test_calibrated_mechanism_dp_level(self):
        model = CorrelatedBinaryModel(7, 0.25, 0.5)
        assert dp_level_laplace(calibrated_mechanism(model, 0.3)) == pytest.approx(0.3)


class TestLowerBound:
    def test_approaches_eps_max(self):
        alpha = 0.25
        target = math.log(1 / alpha)
        gaps = [target - lower_bound(n, alpha, 0.5, 0.1)
                for n in (100, 400, 1600, 6400)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert abs(gaps[-1]) < 1e-9

    def test_gap_below_threshold_at_ten_thousand(self):
        gap = math.log(4.0) - lower_bound(10 ** 4, 0.25, 0.5, 0.1)
        assert abs(gap) < 0.01

    def test_finite_even_for_extreme_parameters(self):
        # the numerator stays above eta (2^n - 1) > 0, so the log never blows up
        value = lower_bound(1, 0.25, 1e-9, 50.0)
        assert math.isfinite(value)
        assert value < 0

    @pytest.mark.parametrize("alpha, epsilon, delta, message", [
        (0.25, -1.0, 0.1, "epsilon must be positive"),
        (0.25, 0.0, 0.1, "epsilon must be positive"),
        (0.25, math.nan, 0.1, "epsilon must be positive"),
        (0.25, math.inf, 0.1, "epsilon must be finite"),
        (0.6, 0.1, 0.1, "alpha must lie in"),
        (math.nan, 0.1, 0.1, "alpha must lie in"),
        (0.0, 0.1, 0.1, "alpha must lie in"),
        (0.25, 0.1, 0.0, "delta must be positive")])
    def test_find_limit_n_rejects_bad_parameters(self, alpha, epsilon, delta, message):
        # once lower_bound's errors were taken for n where eta leaves (0, 1)
        with pytest.raises(ValueError, match=message):
            find_limit_n(alpha, EtaSchedule.constant(0.5), epsilon, delta)

    def test_find_limit_n_without_a_qualifying_n(self):
        # at epsilon = 1e-9 the uniform strings keep the bound far below log 4
        with pytest.raises(ValueError, match=r"^no n <= 1000000 brings the bound within"):
            find_limit_n(0.25, EtaSchedule.constant(0.5), 1e-9, 0.1)

    @pytest.mark.parametrize("schedule", [EtaSchedule.constant(1.5), EtaSchedule.constant(1.0),
                                          EtaSchedule.polynomial(1e300, 1.0)])
    def test_find_limit_n_when_eta_never_lies_in_the_unit_interval(self, schedule):
        # every n is skipped, so no bound was computed to blame
        with pytest.raises(ValueError, match=r"^the schedule's eta lies outside \(0, 1\) "
                                             r"at every n <= 1000000$"):
            find_limit_n(0.25, schedule, 0.1, 0.1)

    def test_find_limit_n_reaches_two_to_the_nineteen(self):
        # the doubling search ends at 2^19 = 524288, the last power of two <= 10^6:
        # c = 300000 leaves (0, 1) below it and c = 600000 at every power
        assert find_limit_n(0.25, EtaSchedule.polynomial(300000, 1), 0.1, 0.1) == 2 ** 19
        with pytest.raises(ValueError, match=r"^the schedule's eta lies outside \(0, 1\) "
                                             r"at every n <= 1000000$"):
            find_limit_n(0.25, EtaSchedule.polynomial(600000, 1), 0.1, 0.1)

    def test_polynomial_eta_still_converges(self):
        schedule = EtaSchedule.polynomial(1.0, 1.0)
        n = find_limit_n(0.25, schedule, 0.1, 0.01)
        assert math.log(4.0) - lower_bound(n, 0.25, schedule.eta(n), 0.1) < 0.01

    @pytest.mark.parametrize("n", [10 ** 11, 10 ** 12, 2 * 10 ** 15, 2 ** 53 - 1])
    def test_reads_eps_max_at_large_n(self, n):
        # n log 2 must cancel before the log: carried at full size in both
        # brackets, its rounding (about n * 1e-16) swamps the bound
        target = math.log(4.0)
        bound = lower_bound(n, 0.25, 0.5, 0.1)
        assert target - 1e-9 <= bound <= target + 1e-12
        assert bound <= pml_d1(CorrelatedBinaryModel(n, 0.25, 0.5), 0.1, -0.3) + 1e-12

    @pytest.mark.parametrize("name, schedule", [
        ("sweep_eta_constant", EtaSchedule.constant(0.5)),
        ("sweep_eta_polynomial", EtaSchedule.polynomial(1.0, 1.0))], ids=["constant", "polynomial"])
    def test_matches_mpmath_at_committed_sweep_n(self, name, schedule):
        lines = (RESULTS / f"{name}.csv").read_text().splitlines()
        ns = [int(line.split(",")[0]) for line in lines if line[:1].isdigit()]
        assert len(ns) > 10
        for n in ns:
            eta = schedule.eta(n)
            with mpmath.workdps(60):
                e, q = mpmath.mpf(eta), mpmath.exp(-mpmath.mpf(0.1))
                num = 2 ** n * e + (1 + q) ** n * (1 - e) - 1
                den = (2 ** n * e * mpmath.mpf(0.25) + (2 * q) ** n * e * q * mpmath.mpf(0.75)
                       + (1 + q) ** n * (1 - e))
                want = float(mpmath.log(num / den))
            assert abs(lower_bound(n, 0.25, eta, 0.1) - want) <= 2e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lower_bound(0, 0.25, 0.5, 0.1)
        with pytest.raises(ValueError):
            lower_bound(10, 0.6, 0.5, 0.1)
        with pytest.raises(ValueError):
            lower_bound(10, 0.25, 0.5, -1.0)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            lower_bound(10, 0.25, 0.5, math.inf)
        with pytest.raises(ValueError, match="below 2\\^53"):
            lower_bound(2 ** 53, 0.25, 0.5, 0.1)


@pytest.mark.parametrize("ns, ulps", [
    ([*range(1, 1100), 4999, 10 ** 4, 10 ** 6, 2 ** 21 - 1], 0),
    ([2 ** 21, 10 ** 9, 10 ** 14, 10 ** 15, 2 ** 53 - 1], 1)], ids=["below-2^21", "above"])
def test_log_two_pow_minus_one_is_correctly_rounded(ns, ulps):
    # fdlibm's ln2_hi has 21 trailing zero bits, so n ln2_hi is exact for
    # n < 2^21 and only the small remainder is rounded; above that, n ln2_hi
    # rounds too (at 10^15 and 2^53 - 1 it misses by one ulp)
    with mpmath.workdps(80):
        for n in ns:
            want = float(mpmath.log(mpmath.mpf(2) ** n - 1))
            assert abs(_log_two_pow_minus_one(n) - want) <= ulps * math.ulp(want), n


class TestEtaSchedule:
    def test_constant(self):
        assert EtaSchedule.constant(0.5).eta(10 ** 6) == 0.5

    @pytest.mark.parametrize("c", [0.5, 1e-300, 0.1, 1 - 2 ** -53])
    def test_constant_is_the_rate_zero_law(self, c):
        schedule = EtaSchedule.constant(c)
        assert schedule == EtaSchedule(c, 0.0) == EtaSchedule.polynomial(c, 0)
        for n in (1, 2, 3, 1000, 10 ** 6, 2 ** 53 - 1, 1e12, 10 ** 12, 10 ** 400):
            assert schedule.eta(n) == c

    def test_polynomial(self):
        assert EtaSchedule.polynomial(2.0, 2.0).eta(10) == pytest.approx(0.02)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="leaves"):
            EtaSchedule.polynomial(1.0, 1.0).eta(1)
        # n ** r overflows the float range, so eta = c / n**r is 0
        with pytest.raises(ValueError, match="leaves"):
            EtaSchedule.polynomial(0.5, 1.0).eta(10 ** 400)

    @pytest.mark.parametrize("r", [0.5, -1.0, -math.inf, 1 - 2 ** -53])
    def test_rate_between_zero_and_one_rejected(self, r):
        with pytest.raises(ValueError, match=r"^rate r must be 0 or at least 1$"):
            EtaSchedule.polynomial(0.5, r)


class TestBob:
    def test_pml_at_centers(self):
        model = BobModel(k=5)
        for j in range(1, 6):
            value = bob_pml(model, 0.1, 10_000.0 * j)
            assert value == pytest.approx(math.log(5.0), abs=1e-6)
        # beyond the outer center the PML is that center's, however far y lies
        model = BobModel(k=2, scale=100_000.0)
        for y in (200_000.0, 1e6, 1e21, 1e22):
            assert bob_pml(model, 1.0, y) == pytest.approx(math.log(2.0), rel=0, abs=1e-15)

    def test_single_attribute_leaks_nothing(self):
        model = BobModel(k=1)
        for y in (0.0, 5000.0, 20000.0):
            assert bob_pml(model, 0.1, y) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_log_k(self):
        model = BobModel(k=5)
        # and the default grid of `pmleak bob`, linspace(0, 60000, 25)
        for y in [*np.linspace(-5000, 60000, 40), *np.linspace(0, 60000, 25)]:
            assert bob_pml(model, 0.1, float(y)) <= math.log(5.0) + 1e-15
        # outcomes up to 2.5e5 noise scales from their nearest center
        model = BobModel(k=2, scale=100_000.0)
        for y in np.linspace(0, 300_000, 13):
            assert bob_pml(model, 10.0, float(y)) <= math.log(2.0) + 1e-15

    def test_mechanism_is_tenth_dp(self):
        assert dp_level_laplace(bob_mechanism(BobModel(k=5), 0.1)) == pytest.approx(0.1)

    def test_mechanism_is_the_calibrated_counting_query(self):
        # laplace_for_query builds it: the prior holds the labels, so it has none
        mech = bob_mechanism(BobModel(k=5), 0.1)
        assert mech.labels is None
        assert mech.scale == 1.0 / 0.1 and mech.center(3) == 30_000.0

    def test_validation(self):
        with pytest.raises(ValueError, match="k"):
            BobModel(k=0)


class TestSweep:
    def test_single_row_equals_individual_calls(self):
        schedule = EtaSchedule.constant(0.5)
        rows = sweep([8], 0.25, schedule, 1.0, -0.3)
        assert len(rows) == 1
        row = rows[0]
        model = CorrelatedBinaryModel(8, 0.25, 0.5)
        assert row.bound == lower_bound(8, 0.25, 0.5, 1.0)
        assert row.exact_pml == pml_d1(model, 1.0, -0.3)
        assert row.enum_pml == pytest.approx(row.exact_pml, abs=1e-9)
        assert row.eps_max == pytest.approx(math.log(4.0))

    def test_rows_ordered_and_sandwiched(self):
        schedule = EtaSchedule.constant(0.5)
        rows = sweep([4, 16, 64, 256], 0.25, schedule, 0.5, -0.3)
        assert [r.n for r in rows] == [4, 16, 64, 256]
        bounds = [r.bound for r in rows]
        assert bounds == sorted(bounds)  # regression: monotone in n here
        for r in rows:
            assert r.bound <= r.exact_pml + 1e-12
            assert r.exact_pml <= r.eps_max

    def test_positive_y_rows_carry_no_bound(self):
        # lower_bound holds only for y <= 0
        row, = sweep([50], 0.25, EtaSchedule.constant(0.5), 0.1, 0.5)
        assert row.bound is None
        assert row.exact_pml == pml_d1(CorrelatedBinaryModel(50, 0.25, 0.5), 0.1, 0.5)

    @pytest.mark.parametrize("y, edge", [(-1e15, 0.0), (-1e12, 0.0), (1e12, 1.0), (1e15, 1.0)])
    def test_pml_is_constant_outside_the_unit_interval(self, y, edge):
        # every Laplace center lies in [0, 1], so far outcomes leak as its edges do
        schedule = EtaSchedule.constant(0.5)
        rows = sweep([5, 1000], 0.25, schedule, 0.1, y)
        for row, at_edge in zip(rows, sweep([5, 1000], 0.25, schedule, 0.1, edge)):
            assert row.exact_pml == at_edge.exact_pml
            assert row.exact_pml <= row.eps_max
        assert abs(rows[0].exact_pml - rows[0].enum_pml) <= 1e-9
        assert rows[0].exact_pml > 0.01

    @pytest.mark.parametrize("n", [4.7, math.nan, "7", True], ids=["fraction", "nan",
                                                                  "string", "bool"])
    def test_n_must_be_whole(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be a whole number, not {n!r}")):
            sweep([8, n], 0.25, EtaSchedule.constant(0.5), 0.5, -0.3)

    def test_whole_float_n_is_taken(self):
        rows = sweep([4.0, np.int64(5)], 0.25, EtaSchedule.constant(0.5), 0.5, -0.3)
        assert [row.n for row in rows] == [4, 5]
        assert all(type(row.n) is int for row in rows)

    def test_enum_column_only_for_small_n(self):
        rows = sweep([8, 64], 0.25, EtaSchedule.constant(0.5), 0.5, -0.3)
        assert rows[0].enum_pml is not None
        assert rows[1].enum_pml is None

    def test_enumeration_allocates_no_atom_table(self):
        # the row at n = 15 enumerating its 2^16 atoms peaked at 10,619,416
        # bytes (numpy 2.4) with an (A, 16) index and int64 label table; its
        # 32 classes, summed as floats, peak at 7,416
        schedule = EtaSchedule.constant(0.5)
        sweep([15], 0.25, schedule, 0.1, -0.3)  # first-call caches
        with traced_peak() as peak:
            sweep([15], 0.25, schedule, 0.1, -0.3)
        assert peak.bytes < (1 << 16) * 16 // 8  # an eighth of the 2^16 x 16 uint8 index table


class TestClassSums:
    """`_entry0_channel`, the sweep's enumeration as class sums: equal to
    `entry_channel` in hex in TestEntryChannelAgainstLoop and on the
    enumeration pins (test_enumeration_bits), and to `pml_d1` beyond them."""

    @pytest.mark.parametrize("n", [16, 64, 200, 1000])
    @pytest.mark.parametrize("epsilon", [0.1, 5.0])
    def test_pml_d1_above_the_sweep_enumeration(self, n, epsilon):
        # n = 1000 lies near the class sums' n < 1024 limit; there four outcomes
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        edge = 3 / (n + 1)
        ys = (-0.3, 0.0, 0.2, 0.4999, 0.77, 1.0, math.nextafter(edge, 0.0), edge,
              math.nextafter(edge, 1.0), (n - 1) / (n + 1))
        for y in ys[2:6] if n == 1000 else ys:
            exact = pml_d1(model, epsilon, y)
            got = pml(*constructions._entry0_channel(model, epsilon, y))
            assert abs(got - exact) <= 1e-13 * (1.0 + exact), y

    def test_entry_channel_bits_at_random_cells(self):
        # seeded draws off the fixed grids: n <= 15, alpha in (0, 1/2), eta
        # down to 1e-12, epsilon log-uniform on [1e-3, 1e2], and y at 0,
        # below 0, above 1, inside, and at a bin edge (d + w)/(n+1) or 1 ulp off it
        rng = np.random.default_rng(29)
        for k in range(1000):
            n = int(rng.integers(1, 16))
            alpha = float(rng.uniform(0.0, 0.5)) or 0.25
            eta = float(10.0 ** rng.uniform(-12.0, 0.0) if k % 2 else rng.uniform(0.0, 1.0))
            eta = min(eta, math.nextafter(1.0, 0.0)) or 0.5
            epsilon = float(10.0 ** rng.uniform(-3.0, 2.0))
            edge = int(rng.integers(0, n + 2)) / (n + 1)
            y = [0.0, -float(rng.exponential()), 1.0 + float(rng.exponential()),
                 float(rng.uniform()), edge, math.nextafter(edge, -1.0),
                 math.nextafter(edge, 2.0)][k % 7]
            model = CorrelatedBinaryModel(n, alpha, eta)
            law, lls = constructions._entry0_channel(model, epsilon, y)
            want = entry_channel(model, calibrated_mechanism(model, epsilon), 0, y)
            assert as_hex(law.logp, lls) == as_hex(want[0].logp, want[1]), (
                n, alpha, eta, epsilon, y)


def as_hex(law, lls):
    return [float(v).hex() for v in (*law, *lls)]


def ternary_product_model():
    # non-iid entries over a 3-symbol alphabet; symbol 2 of entry 1 has no
    # mass, so every atom carrying it is a zero-mass atom
    return ProductModel(tuple(FiniteDistribution.from_probs((0, 1, 2), p)
                              for p in ((0.2, 0.3, 0.5), (0.6, 0.4, 0.0), (0.25, 0.25, 0.5))))


class TestEntryChannelAgainstLoop:
    """The array entry_channel against the per-atom loop it replaced."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_correlated_model_bit_for_bit(self, n):
        # every outcome at the paper's parameters; the sweep's own y = -0.3
        # also at weak, vanishing and tiny correlation and at a large epsilon
        cases = [(0.5, 0.1, y) for y in (-0.3, 0.0, 0.3, 0.5, 1.0)]
        cases += [(eta, epsilon, -0.3)
                  for eta, epsilon in ((1 / (n + 1), 0.1), (1e-12, 0.1), (0.5, 30.0))]
        for eta, epsilon, y in cases:
            model = CorrelatedBinaryModel(n, 0.25, eta)
            mech = calibrated_mechanism(model, epsilon)
            m = model.num_entries
            # the loop's mechanism sums each tuple by Python's sum, as the
            # calibrated query did before it read a table of rows
            loop_mech = LaplaceMechanism(lambda x: sum(x) / m, mech.scale)
            for i in (range(m) if n <= 4 else (0,)):
                law, lls = entry_channel(model, mech, i, y)
                want = loop_entry_channel(model, loop_mech, i, y, defined_log_mass(model))
                assert as_hex(law.logp, lls) == as_hex(*want), (eta, epsilon, y, i)
            # the sweep's class sums, against entry_channel at entry 0
            law, lls = constructions._entry0_channel(model, epsilon, y)
            want = entry_channel(model, mech, 0, y)
            assert as_hex(law.logp, lls) == as_hex(want[0].logp, want[1]), (eta, epsilon, y)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_correlated_model_other_entries_bit_for_bit(self, n):
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        mech = calibrated_mechanism(model, 0.1)
        m = model.num_entries
        loop_mech = LaplaceMechanism(lambda x: sum(x) / m, mech.scale)
        for i in sorted({1, m // 2, m - 1}):  # entry 0 is checked above
            for y in (-0.3, 0.25, 0.6):
                law, lls = entry_channel(model, mech, i, y)
                want = loop_entry_channel(model, loop_mech, i, y, defined_log_mass(model))
                assert as_hex(law.logp, lls) == as_hex(*want), (i, y)

    def test_float_labels_are_summed_in_entry_order(self):
        # the label table is stored column by column, so a row sum over 9
        # floats adds them left to right as Python's sum does; summed row by
        # row, numpy's unrolled sum rounds thousands of these rows differently
        alphabet = (0.1, 0.7, 1.3)
        model = ProductModel((FiniteDistribution.from_probs(alphabet, (0.2, 0.3, 0.5)),) * 9)
        mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1) / 9, 0.3)
        loop_mech = LaplaceMechanism(lambda x: sum(x) / 9, 0.3)
        law, lls = entry_channel(model, mech, 4, 0.55)
        want = loop_entry_channel(model, loop_mech, 4, 0.55, defined_log_mass(model))
        assert as_hex(law.logp, lls) == as_hex(*want)

    def test_peak_memory_at_n13(self):
        # 2,606,296 bytes (numpy 2.4) when the labels were gathered through
        # the digit table and the live atoms copied; the digit table is now
        # freed before the label table is built, and nothing is copied
        model = CorrelatedBinaryModel(13, 0.25, 0.5)
        mech = calibrated_mechanism(model, 0.1)
        with traced_peak() as peak:
            entry_channel(model, mech, 0, 0.0)
        assert peak.bytes < 2_606_296

    def test_each_distinct_atom_value_is_exponentiated_once(self, monkeypatch):
        n = 13
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        mech = calibrated_mechanism(model, 0.1)
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda v: calls.append(v) or exp(v))
        entry_channel(model, mech, 0, -0.3)
        # an atom's mass and likelihood depend only on its Hamming weight, so
        # each of the four reductions over 2^n atoms sees at most n + 1 values
        assert 0 < len(calls) <= 4 * (n + 1)

    @pytest.mark.parametrize("make_mech", ["finite", "laplace"])
    def test_product_model_and_its_explicit_joint(self, make_mech):
        model = ternary_product_model()
        joint = ExplicitJointModel.from_model(model)
        if make_mech == "finite":
            base = FiniteMechanism.from_probs((0, 1, 2), (0, 1),
                                              [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
            mech = loop_mech = product_mechanism(base, 3)
            outcomes = mech.y_labels
        else:
            mech = LaplaceMechanism(lambda x: np.sum(x, axis=-1) / 6, 0.25)
            loop_mech = LaplaceMechanism(lambda x: sum(x) / 6, 0.25)
            outcomes = (-0.2, 0.0, 0.35, 1.0, 2.5)
        for db in (model, joint):
            for i in range(3):
                for y in outcomes:
                    law, lls = entry_channel(db, mech, i, y)
                    want = loop_entry_channel(db, loop_mech, i, y, defined_log_mass(model))
                    assert as_hex(law.logp, lls) == as_hex(*want), (i, y)
        # the zero-mass symbol has no law and no channel
        law, lls = entry_channel(model, mech, 1, outcomes[0])
        assert law.logp[2] == LOG_ZERO and lls[2] == LOG_ZERO

    def test_explicit_joint_with_a_missing_atom(self):
        # atoms absent from the table have zero mass and are skipped, so a
        # channel need not have rows for them
        table = {(0, 0): math.log(0.5), (0, 1): math.log(0.25), (1, 1): math.log(0.25)}
        joint = explicit_joint((0, 1), 2, table)
        mech = FiniteMechanism.from_probs(tuple(table), ("a", "b"),
                                          [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        for i in (0, 1):
            for y in ("a", "b"):
                law, lls = entry_channel(joint, mech, i, y)
                want = loop_entry_channel(joint, mech, i, y, defined_log_mass(table))
                assert as_hex(law.logp, lls) == as_hex(*want), (i, y)

    @pytest.mark.parametrize("query", [sum, lambda x: sum(x) / len(x), lambda x: 0.5,
                                       lambda x: np.sum(x, axis=0)])
    def test_query_not_giving_one_value_per_atom_is_rejected(self, query):
        model = ternary_product_model()
        with pytest.raises(ValueError, match="not one value per atom"):
            entry_channel(model, LaplaceMechanism(query, 1.0), 0, 0.5)
