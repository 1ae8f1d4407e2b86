import functools
import itertools
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import laplace as scipy_laplace

from pmleak import constructions
from pmleak.constructions import (BobModel, CorrelatedBinaryModel, EtaSchedule,
                                  bob_mechanism, bob_pml, calibrated_mechanism,
                                  calibrated_scale, cond_density_binomial,
                                  cond_density_closed_form, find_limit_n,
                                  lower_bound, pml_d1, sweep)
from pmleak.leakage import entry_channel, pml_entry
from pmleak.logdomain import LOG_ZERO, log_add, log_binom, log_sum_exp
from pmleak.mechanisms import (FiniteMechanism, LaplaceMechanism, dp_level_laplace,
                               laplace_log_density, product_mechanism)
from pmleak.probability import ExplicitJointModel, FiniteDistribution, ProductModel
from test_probability import defined_log_mass, explicit_joint

#: float64 unit roundoff
U = 2.0 ** -53

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def enumerated_cond_density(n, alpha, eta, b, d1, y):
    """Linear-domain oracle: mix all 2^n Laplace densities for the tail."""
    total = 0.0
    weight_peak = eta
    weight_rest = (1.0 - eta) / (2 ** n - 1)
    for rest in itertools.product((0, 1), repeat=n):
        w = weight_peak if all(s == d1 for s in rest) else weight_rest
        center = (d1 + sum(rest)) / (n + 1)
        total += w * scipy_laplace.pdf(y, loc=center, scale=b)
    return total


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
    definition, and its scalar log_likelihood; returns (law of entry i,
    induced channel) as lists of log values."""
    model._check_index(i)
    buckets = {d: [] for d in model.alphabet}
    for x in itertools.product(model.alphabet, repeat=model.num_entries):
        lp = log_mass(x)
        if lp > LOG_ZERO:
            buckets[x[i]].append((lp, mech.log_likelihood(x, y)))
    law, lls = [], []
    for atoms in buckets.values():
        lcond = log_sum_exp([lp for lp, _ in atoms]) if atoms else LOG_ZERO
        law.append(lcond)
        lls.append(log_sum_exp([lp - lcond + ll for lp, ll in atoms]) if atoms else LOG_ZERO)
    return law, lls


@functools.lru_cache(maxsize=None)
def mp_binomials(n, dps):
    """C(n, i) for i = 0..n as mpmath floats at `dps` digits."""
    with mpmath.workdps(dps):
        return [mpmath.mpf(c) for c in itertools.accumulate(
            range(1, n + 1), lambda c, i: c * (n - i + 1) // i, initial=1)]


def mp_log_cond_densities(n, etas, b, y, dps=50):
    """[[log P(y | d1) for d1 = 0, 1] for each eta] from the 2^n-string
    mixture grouped by Hamming weight, in mpmath."""
    m = n + 1
    with mpmath.workdps(dps):
        b, y = mpmath.mpf(b), mpmath.mpf(y)
        # e^{-|y - k/m|/b} = e^{-|ym - k| t} for the centers k/m, k = 0..m
        ym, t = y * m, 1 / (m * b)
        lap = [mpmath.exp(-abs(ym - k) * t) for k in range(m + 1)]
        weights = mp_binomials(n, dps)
        # row d1 puts weight i on the center (d1 + i)/m and leaves out i = n d1
        sums = [mpmath.fdot(weights[1:], lap[1:]), mpmath.fdot(weights[:-1], lap[1:])]
        return [[float(mpmath.log((eta * lap[m * d1] + (1 - eta) / (2 ** n - 1) * sums[d1])
                                  / (2 * b)))
                 for d1 in (0, 1)] for eta in map(mpmath.mpf, etas)]


def outside_window(n, b, y):
    """Whether both kinks y(n+1) - d1 fall outside the summed window."""
    lo, hi = constructions._window(n, b, y)
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

    @pytest.mark.parametrize("d1", [0, 1])
    def test_binomial_matches_enumeration(self, d1):
        n, alpha, eta, epsilon = 3, 0.25, 0.5, 1.0
        model = CorrelatedBinaryModel(n, alpha, eta)
        b = calibrated_scale(n, epsilon)
        for y in (-1.2, -0.3, 0.0, 0.4):
            want = enumerated_cond_density(n, alpha, eta, b, d1, y)
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
        import mpmath
        n, eta, epsilon, y, d1 = 3, 1e-12, 40.0, 0.01, 0
        model = CorrelatedBinaryModel(n, 0.25, eta)
        b = calibrated_scale(n, epsilon)
        with mpmath.workdps(80):
            want = mpmath.mpf(0)
            for rest in itertools.product((0, 1), repeat=n):
                w = (mpmath.mpf(eta) if all(s == d1 for s in rest)
                     else (1 - mpmath.mpf(eta)) / (2 ** n - 1))
                center = mpmath.mpf(d1 + sum(rest)) / (n + 1)
                want += w * mpmath.exp(-abs(mpmath.mpf(y) - center) / b) / (2 * b)
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
        # window; one index and one ulp to either side, both sums agree
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 0.1)
        m = n + 1
        lo, hi = constructions._window(n, b, 0.0)[0], constructions._window(n, b, 1.0)[1]
        for edge, mirrored in ((lo / m, False), ((hi + 1) / m, True)):
            for y in (edge - 1 / m, math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, 2.0), edge + 1 / m):
                window = constructions._window_sums(model, b, y, *constructions._window(n, b, y))
                anchor, rel = constructions._closed_forms(
                    model, b, 1.0 - y if mirrored else y, anchored=True)
                closed = [anchor + r for r in (rel[::-1] if mirrored else rel)]
                # the window's absolute values carry the rounding of
                # log C(n, lo), about ulp(lgamma(n+1)); their difference does not
                assert closed == pytest.approx(window, rel=1e-12)
                assert abs((closed[1] - closed[0]) - (window[1] - window[0])) <= 1e-12
                # the saddle integral, which both thresholds lie inside
                got = [cond_density_binomial(model, b, d1, y) for d1 in (0, 1)]
                assert got == pytest.approx(closed, rel=1e-12)
                assert abs((got[1] - got[0]) - (closed[1] - closed[0])) <= 1e-12
            outer = edge + 1 / m if mirrored else edge - 1 / m
            assert outside_window(n, b, outer) and not outside_window(n, b, edge)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_closed_forms_match_mpmath_outside_the_window(self, n):
        # the branch the hypothesis tests (n <= 60) never reach: bin edges
        # and one ulp off them just outside the window on either side, and y = 1
        m = n + 1
        etas = (1e-12, 0.5)
        for epsilon in (0.01, 0.1, 1.0):
            b = calibrated_scale(n, epsilon)
            lo, hi = constructions._window(n, b, 0.0)[0], constructions._window(n, b, 1.0)[1]
            ys = [1.0]
            for edge in ((lo - 1) / m, (hi + 2) / m):
                ys += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
            for y in ys:
                assert outside_window(n, b, y)
                for eta, want in zip(etas, mp_log_cond_densities(n, etas, b, y, dps=30)):
                    model = CorrelatedBinaryModel(n, 0.25, eta)
                    for d1 in (0, 1):
                        got = cond_density_binomial(model, b, d1, y)
                        # the tolerance of test_binomial_matches_mpmath_at_positive_y
                        tol = 256 * U * (1 + abs(want[d1]) + y * m * epsilon)
                        assert abs(got - want[d1]) <= tol

    @pytest.mark.parametrize("n", [500, 2000])
    def test_saddle_integral_matches_mpmath_inside_the_band(self, n):
        # bin edges and one ulp off them at the band's ends, where a kernel
        # pole nears the integration path, at its middle, and 5/sigma past
        # its ends, where the path has passed a pole and the integral still
        # adds to the closed form
        m = n + 1
        etas = (1e-12, 0.5)
        for epsilon in (0.01, 0.1, 1.0):
            b = calibrated_scale(n, epsilon)
            ys = [0.5]
            for sign in (1, -1):
                end = n / (1 + math.exp(sign * epsilon))
                edge = round(end) / m
                ys += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
                past = epsilon + 5 / math.sqrt(end * (n - end) / n)
                ys.append(round(n / (1 + math.exp(sign * past))) / m)
            for y in ys:
                k = math.floor(y * m)
                assert k * (n - k) >= constructions._SADDLE_MIN_VARIANCE * n
                for eta, want in zip(etas, mp_log_cond_densities(n, etas, b, y, dps=30)):
                    model = CorrelatedBinaryModel(n, 0.25, eta)
                    for d1 in (0, 1):
                        got = cond_density_binomial(model, b, d1, y)
                        # the tolerance of test_binomial_matches_mpmath_at_positive_y
                        tol = 256 * U * (1 + abs(want[d1]) + y * m * epsilon)
                        assert abs(got - want[d1]) <= tol

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
        # t = 1/((n+1) b) reaches about 1e4, where e^t overflows a float
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        for d1 in (0, 1):
            for y in (0.01, 0.3, 1.2):
                got = cond_density_binomial(model, b, d1, y)
                assert math.isfinite(got)
                assert got == pytest.approx(loop_cond_density(model, b, d1, y), rel=1e-12)

    @pytest.mark.parametrize("n", [2 * 10 ** 15, 2 ** 53 - 1])
    def test_binomial_window_near_an_end_at_any_n(self, n):
        # ten ones in the tail: a variance below the saddle integral's 25;
        # at epsilon = 40 the band of modes reaches down to them, so the
        # window is summed.  The all-0 peak term outweighs the rest of
        # either row by e^Theta(n), so the PML is log(1/alpha)
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 40.0)
        y = 10.5 / (n + 1)
        assert not outside_window(n, b, y)
        tracemalloc.start()
        try:
            for d1 in (0, 1):
                assert math.isfinite(cond_density_binomial(model, b, d1, y))
            assert abs(pml_d1(model, 40.0, y) - math.log(4.0)) <= 1e-15
            # y = 0.5 takes the saddle integral, y <= 0 the closed form
            assert pml_d1(model, 0.1, 0.5) == 0.0
            assert math.isfinite(pml_d1(model, 0.1, -0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_window_keeps_its_stated_bounds(self):
        # kinks within 60 of 0 and of n, where the variance is small: the
        # window is never longer than 9.5 (sqrt(n)/2 + 1) + 2 indices a side
        # gives, holds at most 512 terms wherever a kink falls inside it, and
        # the first term it leaves out on either side lies at least 45 nats
        # below its largest term, from log-binomials at 40 digits (a product of
        # the exact ratios would take up to 4.5e8 steps at 2^53)
        def log_binom_mp(n, i):
            # log C(n, i) less log n!, which cancels from every difference below
            return -mpmath.loggamma(i + 1) - mpmath.loggamma(n - i + 1)

        with mpmath.workdps(40):
            for n in (1, 2, 5, 99, 100, 450, 1864, 10 ** 4, 10 ** 6, 10 ** 9, 2 * 10 ** 15,
                      2 ** 53 - 1):
                m = n + 1
                kinks = {side + sign * (k + f) for k in (0, 1, 2, 5, 10, 30, 60)
                         for f in (0.0, 0.5) for side, sign in ((0, 1), (m, -1))}
                for epsilon in (0.001, 0.01, 0.1, 1.0, 3.0, 10.0, 40.0, 200.0):
                    b = calibrated_scale(n, epsilon)
                    q = math.exp(-1.0 / (m * b))
                    t = 1 / (m * mpmath.mpf(b))
                    for s in sorted(v for v in kinks if 0 < v < m):
                        y = s / m
                        lo, hi = constructions._window(n, b, y)
                        mode = min(max(y * m, n * q / (1 + q)), n / (1 + q))
                        half = math.ceil(9.5 * (math.sqrt(n) / 2 + 1)) + 2
                        assert hi - lo <= (min(n, math.ceil(mode) + half)
                                           - max(0, math.floor(mode) - half - 1))
                        if not outside_window(n, b, y):
                            assert hi - lo + 1 <= 512
                        edges = [i for i in (lo - 1, hi + 1) if 0 <= i <= n]
                        near = range(max(lo, math.floor(mode) - 4), min(hi, math.ceil(mode) + 4) + 1)
                        logc = {i: log_binom_mp(n, i) for i in (*edges, *near)}
                        for d1 in (0, 1):
                            term = lambda i: logc[i] - t * abs(mpmath.mpf(y * m) - d1 - i)
                            top = max(term(i) for i in near if i != n * d1)
                            for i in edges:
                                assert top - term(i) >= 45, (n, epsilon, s, d1, i)

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
        want = ((1 - alpha) * enumerated_cond_density(n, alpha, eta, b, 1, y)
                + alpha * enumerated_cond_density(n, alpha, eta, b, 0, y))
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
                    assert value <= math.log(1 / alpha) + 1e-9

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
        with pytest.raises(ValueError, match="below 2\\^53"):
            lower_bound(2 ** 53, 0.25, 0.5, 0.1)


class TestEtaSchedule:
    def test_constant(self):
        assert EtaSchedule.constant(0.5).eta(10 ** 6) == 0.5

    def test_polynomial(self):
        assert EtaSchedule.polynomial(2.0, 2.0).eta(10) == pytest.approx(0.02)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="leaves"):
            EtaSchedule.polynomial(1.0, 1.0).eta(1)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            EtaSchedule("exponential", 0.5)


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
            assert r.exact_pml <= r.eps_max + 1e-9

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
            assert row.exact_pml <= row.eps_max + 1e-9
        assert abs(rows[0].exact_pml - rows[0].enum_pml) <= 1e-9
        assert rows[0].exact_pml > 0.01

    def test_enum_column_only_for_small_n(self):
        rows = sweep([8, 64], 0.25, EtaSchedule.constant(0.5), 0.5, -0.3)
        assert rows[0].enum_pml is not None
        assert rows[1].enum_pml is None


def as_hex(law, lls):
    return [float(v).hex() for v in (*law, *lls)]


def assert_channels_close(got, want, tol=1e-15):
    """Two (law, channel) pairs agree to tol, with LOG_ZERO only where the other has it."""
    for a, b in zip((*got[0], *got[1]), (*want[0], *want[1])):
        assert (a == LOG_ZERO) == (b == LOG_ZERO)
        if b != LOG_ZERO:
            assert abs(a - b) <= tol


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
                    assert_channels_close((law.logp, lls), want)
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
                assert_channels_close((law.logp, lls), want)

    @pytest.mark.parametrize("query", [sum, lambda x: sum(x) / len(x), lambda x: 0.5,
                                       lambda x: np.sum(x, axis=0)])
    def test_query_not_giving_one_value_per_atom_is_rejected(self, query):
        model = ternary_product_model()
        with pytest.raises(ValueError, match="not one value per atom"):
            entry_channel(model, LaplaceMechanism(query, 1.0), 0, 0.5)
