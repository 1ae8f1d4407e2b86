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

from pmleak.constructions import (BobModel, CorrelatedBinaryModel, EtaSchedule,
                                  bob_mechanism, bob_pml, calibrated_mechanism,
                                  calibrated_scale, cond_density_binomial,
                                  cond_density_closed_form, find_limit_n,
                                  lower_bound, pml_d1, sweep)
from pmleak.leakage import pml_entry
from pmleak.logdomain import LOG_ZERO, log_add, log_binom, log_sum_exp
from pmleak.mechanisms import dp_level_laplace, laplace_log_density
from pmleak.probability import ExplicitJointModel

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


def mp_log_cond_density(n, eta, b, d1, y, dps=50):
    """log P(y | d1) from the 2^n-string mixture grouped by Hamming weight, in mpmath."""
    with mpmath.workdps(dps):
        b, y, eta = mpmath.mpf(b), mpmath.mpf(y), mpmath.mpf(eta)
        total = mpmath.mpf(0)
        for i in range(n + 1):
            if i != n * d1:
                center = mpmath.mpf(d1 + i) / (n + 1)
                total += math.comb(n, i) * mpmath.exp(-abs(y - center) / b)
        peak = eta * mpmath.exp(-abs(y - d1) / b)
        return float(mpmath.log((peak + (1 - eta) / (2 ** n - 1) * total) / (2 * b)))


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
        want = mp_log_cond_density(n, eta, b, d1, y)
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
        want = mp_log_cond_density(n, eta, b, d1, y)
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
    def test_binomial_window_beyond_limit_is_rejected_before_allocating(self, n):
        # the window would hold about 9.5 sqrt(n) terms: 4e8 floats at 2e15
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        b = calibrated_scale(n, 0.1)
        tracemalloc.start()
        try:
            for d1 in (0, 1):
                with pytest.raises(ValueError, match="window of .* above the limit"):
                    cond_density_binomial(model, b, d1, 0.5)
            with pytest.raises(ValueError, match="window of .* above the limit"):
                pml_d1(model, 0.1, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # y <= 0 takes the closed form, which has no window
        assert math.isfinite(pml_d1(model, 0.1, -0.3))

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
