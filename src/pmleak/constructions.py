"""The correlated binary database and its leakage under calibrated Laplace noise.

The construction: a database of n+1 binary entries where, conditioned on the
first entry being 1 (resp. 0), the remaining n entries are the all-ones
(resp. all-zeros) string with probability eta and uniform over the other
2^n - 1 strings otherwise.  Releasing the empirical frequency of ones
through a Laplace mechanism calibrated to epsilon-DP still leaks almost the
entire first entry: its per-entry PML approaches log(1/alpha), the leakage
of releasing the entry unperturbed.

Everything here is evaluated in log domain so the analysis scales to n in
the millions.  The closed forms for y <= 0 cost O(1); the binomial-sum
evaluator, valid for all y, sums only the roughly 10*sqrt(n) terms around
its mode in one numpy reduction, with the truncation bound stated in its
docstring.  The two cross-check each other and, for small n, full
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .leakage import pml_entry, pml_report
from .logdomain import (LOG_TWO, LOG_ZERO, LogReal, log_add, log_binom,
                        log_sum_exp, log_sum_exp_array)
from .mechanisms import LaplaceMechanism, laplace_log_density
from .probability import DatabaseModel, FiniteDistribution


#: binomial standard deviations (at most sqrt(n)/2) summed on each side of
#: the mode in cond_density_binomial
_WINDOW_SIGMAS = 9.5

#: most terms cond_density_binomial sums (80 MB a float array); its window
#: of about 9.5*sqrt(n) terms passes this near n = 1.1e12
WINDOW_LIMIT = 10 ** 7

#: largest n whose sweep row is cross-checked by enumerating the 2^(n+1) atoms
SWEEP_ENUM_LIMIT = 15


def _log1mexp(v: float) -> LogReal:
    """log(1 - e^v) for v <= 0, LOG_ZERO at v = 0; expm1 near 0, log1p below -log 2."""
    if v > -LOG_TWO:
        d = -math.expm1(v)
        return math.log(d) if d > 0 else LOG_ZERO
    return math.log1p(-math.exp(v))


def _log_two_pow_minus_one(n: int) -> float:
    """log(2^n - 1), overflow-free."""
    return n * LOG_TWO + _log1mexp(-n * LOG_TWO)


@dataclass(frozen=True)
class CorrelatedBinaryModel(DatabaseModel):
    """Binary database of n+1 entries with strongly correlated tail.

    ``n`` counts the correlated entries beyond the first, so the database
    has n+1 entries; entry 0 is the distinguished one with P(0) = alpha.
    """

    n: int
    alpha: float
    eta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.n < 2 ** 53:  # the centers (d1+i)/(n+1) need n+1 exact as a float
            raise ValueError("n must be below 2^53")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")

    @property
    def alphabet(self):
        return (0, 1)

    @property
    def num_entries(self):
        return self.n + 1

    def joint_logp(self, x):
        if len(x) != self.num_entries:
            raise ValueError("tuple length mismatch")
        d1, rest = x[0], x[1:]
        lp = math.log(self.alpha) if d1 == 0 else math.log1p(-self.alpha)
        if all(d == d1 for d in rest):
            return lp + math.log(self.eta)
        return lp + math.log1p(-self.eta) - _log_two_pow_minus_one(self.n)


@dataclass(frozen=True)
class EtaSchedule:
    """Correlation weight as a function of n: constant or c / n**r."""

    mode: str = "constant"
    c: float = 0.5
    r: float = 1.0

    def __post_init__(self):
        if self.mode not in ("constant", "polynomial"):
            raise ValueError(f"unknown eta schedule mode {self.mode!r}")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.mode == "polynomial" and self.r < 1:
            raise ValueError("polynomial rate r must be at least 1")

    @classmethod
    def constant(cls, c):
        return cls("constant", c)

    @classmethod
    def polynomial(cls, c, r=1.0):
        return cls("polynomial", c, r)

    def eta(self, n: int) -> float:
        if not n >= 1:  # c / n**r is complex at n < 0 and divides by 0 at n = 0
            raise ValueError("n must be at least 1")
        try:
            value = self.c if self.mode == "constant" else self.c / n ** self.r
        except OverflowError:  # n ** r beyond the float range: eta is 0
            value = 0.0
        if not 0.0 < value < 1.0:
            raise ValueError(f"eta schedule leaves (0, 1) at n={n}")
        return value


def calibrated_scale(n: int, epsilon: float) -> float:
    """Laplace scale b = 1 / (epsilon * (n+1)) for the empirical-frequency query."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    scale = 1.0 / (epsilon * (n + 1))
    if not math.isfinite(scale):
        raise ValueError("Laplace scale must be finite")
    return scale


def calibrated_mechanism(model: CorrelatedBinaryModel, epsilon: float) -> LaplaceMechanism:
    """Empirical frequency of ones under Laplace noise at DP level epsilon."""
    m = model.num_entries
    return LaplaceMechanism(lambda x: sum(x) / m, calibrated_scale(model.n, epsilon),
                            sensitivity=1.0 / m)


def cond_density_binomial(model: CorrelatedBinaryModel, b: float, d1: int, y: float) -> LogReal:
    """log P(Y = y | D_1 = d1) via the Hamming-weight binomial sum; valid for all y.

    The output is a mixture of 2^n Laplace densities whose centers depend
    only on the tail's Hamming weight, so the uniform part collapses to
    n+1 binomially weighted terms.  The all-d1 string (Hamming weight n*d1)
    carries weight eta instead, so its term is left out of the sum by its
    index; taking it back out by subtraction cancels catastrophically when
    it dominates.

    Only a window of about 10*sqrt(n) terms around the mode is summed, as
    one numpy reduction.  With s = y(n+1) - d1 and t = 1/((n+1)b), term i
    is a_i = log C(n,i) - t|s - i| up to a constant: a sum of two concave
    functions of i, so the terms are log-concave with the single mode
    clip(s, n/(1+e^t), n/(1+e^-t)), and each step a_{i+1} - a_i falls by
    at least 4/(n+2) from the one before.  The window reaches
    9.5 (sqrt(n)/2 + 1) + 2 indices to each side of the mode, 9.5 binomial
    standard deviations (sigma <= sqrt(n)/2), so its edge terms sit at
    least 45 nats below the largest term.  Truncation bound: if the last
    step inside the window has log-ratio -delta, every step beyond it is
    smaller still and the omitted tail on that side is at most
    e^{a_edge} e^{-delta} / (1 - e^{-delta}).  A window of more than
    WINDOW_LIMIT terms is a ValueError.
    """
    if d1 not in (0, 1):
        raise ValueError("d1 must be a bit")
    if not b > 0:
        raise ValueError("scale must be positive")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    n = model.n
    m = n + 1
    q = math.exp(-1.0 / (m * b))  # e^-t cannot overflow, however small b is
    # the mode at d1 = 0; at d1 = 1 it is at most one index lower, so both
    # conditionals sum one window from one anchor
    mode = min(max(y * m, n * q / (1.0 + q)), n / (1.0 + q))
    half = math.ceil(_WINDOW_SIGMAS * (math.sqrt(n) / 2 + 1)) + 2
    lo = max(0, math.floor(mode) - half - 1)
    hi = min(n, math.ceil(mode) + half)
    if hi - lo + 1 > WINDOW_LIMIT:  # checked before anything is allocated
        raise ValueError(f"n = {n} needs a window of {hi - lo + 1} binomial terms at "
                         f"y in (0, 1), above the limit of {WINDOW_LIMIT}")
    i = np.arange(lo, hi + 1, dtype=float)
    # log C(n, i) - log C(n, lo), from the exact ratios C(n, i+1) / C(n, i)
    log_c = np.empty(len(i))
    log_c[0] = 0.0
    np.cumsum(np.log((n - i[:-1]) / i[1:]), out=log_c[1:])
    terms = log_c - np.abs(y - (d1 + i) / m) / b
    if lo <= n * d1 <= hi:
        terms[n * d1 - lo] = LOG_ZERO
    # the constants of size n are added apart from the terms: their rounding
    # is then the same at d1 = 0 and 1 and cancels from the PML
    log_scale = (math.log1p(-model.eta) - _log_two_pow_minus_one(n)
                 + log_binom(n, lo) - math.log(2.0 * b))
    uniform_part = log_scale + log_sum_exp_array(terms)
    lap_peak = laplace_log_density(float(d1), b, y)  # all-d1 tail: center is d1 itself
    return log_add(math.log(model.eta) + lap_peak, uniform_part)


def cond_density_closed_form(model: CorrelatedBinaryModel, b: float, d1: int, y: float) -> LogReal:
    """log P(Y = y | D_1 = d1) in closed form; valid only for y <= 0.

    For y <= 0 every |y - center| opens to center - y, so the binomial sum
    telescopes to (1 + q)^n with q = exp(-1/(b(n+1))), and e^{-1/b} = q^{n+1}:

        d1 = 0:  e^{y/b} / (2b(2^n-1)) * [eta(2^n-1) + (1-eta)((1+q)^n - 1)]
        d1 = 1:  e^{y/b} / (2b(2^n-1)) * q [eta q^n (2^n-1)
                                            + (1-eta)((1+q)^n - q^n)]

    Both brackets are sums of positive masses.  Dividing by 2^n - 1 cancels
    n log 2 analytically: the uniform part becomes ((1+q)/2)^n (1-eta)/(1-2^-n)
    times 1 - (1+q)^-n, resp. 1 - (q/(1+q))^n, and a term that underflows
    to zero is LOG_ZERO.
    """
    if y > 0:
        raise ValueError("closed form valid only for y <= 0")
    if not b > 0:
        raise ValueError("scale must be positive")
    if d1 not in (0, 1):
        raise ValueError("d1 must be a bit")
    n = model.n
    log_q = -1.0 / (b * (n + 1))
    log1p_q = math.log1p(math.exp(log_q))  # log (1+q)
    # log [(1-eta) ((1+q)/2)^n / (1 - 2^-n)] = log [(1-eta) (1+q)^n / (2^n - 1)]
    log_uniform = (math.log1p(-model.eta) + n * math.log1p(math.expm1(log_q) / 2)
                   - _log1mexp(-n * LOG_TWO))
    # each bracket divided by 2^n - 1
    if d1 == 0:
        bracket = log_add(math.log(model.eta), log_uniform + _log1mexp(-n * log1p_q))
    else:
        bracket = log_q + log_add(math.log(model.eta) + n * log_q,
                                  log_uniform + _log1mexp(n * (log_q - log1p_q)))
    return -math.log(2.0 * b) + y / b + bracket


def _pml_outcome(y: float) -> float:
    """clip(y, 0, 1), where entry 0 leaks as at y: every Laplace center lies in
    [0, 1], so outside it the PML is constant, and ±y/b would drown the centers."""
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    return min(max(y, 0.0), 1.0)


def pml_d1(model: CorrelatedBinaryModel, epsilon: float, y: float) -> float:
    """Exact PML of entry 0 at outcome y under the calibrated Laplace mechanism.

    Evaluated at clip(y, 0, 1), which has the same PML.  For y <= 0 the d1 = 0
    branch provably dominates and the closed forms apply, at O(1) cost; for
    y > 0 dominance is not established, so both branches are evaluated via
    the binomial sum, a roughly 10*sqrt(n)-term numpy reduction each whose
    truncation error is bounded in cond_density_binomial, and maxed
    explicitly.
    """
    b = calibrated_scale(model.n, epsilon)
    y = _pml_outcome(y)
    evaluator = cond_density_closed_form if y <= 0 else cond_density_binomial
    c0, c1 = evaluator(model, b, 0, y), evaluator(model, b, 1, y)
    # log P_Y(y): the two conditionals weighted by the law of D_1
    mixture = log_add(math.log1p(-model.alpha) + c1, math.log(model.alpha) + c0)
    return max(c0, c1) - mixture


def lower_bound(n: int, alpha: float, eta: float, epsilon: float) -> float:
    """y-independent lower bound on the PML of entry 0, for y <= 0.

        log [ 2^n eta + (1+e^-eps)^n (1-eta) - 1 ] -
        log [ 2^n eta alpha + (2/e^eps)^n eta e^-eps (1-alpha)
              + (1+e^-eps)^n (1-eta) ]

    The numerator is eta(2^n-1) + (1-eta)((1+e^-eps)^n - 1), a sum of
    positive masses.  Both brackets are divided by 2^n eta before the log,
    so no n-sized constant is rounded and the bound reads exactly
    log(1/alpha) once the other terms fall below the last bit.
    """
    CorrelatedBinaryModel(n, alpha, eta)  # checks n, alpha and eta
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    # log [(1-eta)/eta ((1+e^-eps)/2)^n]: the uniform strings' share
    log_uniform = (math.log1p(-eta) - math.log(eta)
                   + n * math.log1p(math.expm1(-epsilon) / 2))
    num = log_add(_log1mexp(-n * LOG_TWO),
                  log_uniform + _log1mexp(-n * math.log1p(math.exp(-epsilon))))
    den = log_sum_exp([math.log(alpha), math.log1p(-alpha) - (n + 1) * epsilon, log_uniform])
    return num - den


def find_limit_n(alpha: float, schedule: EtaSchedule, epsilon: float,
                 delta: float) -> int:
    """Smallest power-of-two n <= 10^6 with log(1/alpha) - lower_bound(n) < delta.

    Doubling search; n values where the schedule's eta leaves (0, 1) are
    skipped.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    target = -math.log(alpha)
    n = 1
    while n <= 10 ** 6:
        try:
            gap = target - lower_bound(n, alpha, schedule.eta(n), epsilon)
        except ValueError:
            gap = math.inf
        if gap < delta:
            return n
        n *= 2
    raise ValueError(f"no n <= 1000000 brings the bound within {delta} of log(1/alpha)")


@dataclass(frozen=True)
class BobModel:
    """Counting-query scenario: attribute j in 1..k implies scale * j counts."""

    k: int
    scale: float = 10_000.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")

    def attribute_prior(self) -> FiniteDistribution:
        return FiniteDistribution.uniform(tuple(range(1, self.k + 1)))


def bob_mechanism(model: BobModel, epsilon: float) -> LaplaceMechanism:
    """Laplace-noised count: sensitivity 1, scale 1/epsilon, centers scale * j."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    labels = tuple(range(1, model.k + 1))
    return LaplaceMechanism(lambda j: model.scale * j, 1.0 / epsilon,
                            sensitivity=1.0, labels=labels)


def bob_pml(model: BobModel, epsilon: float, y: float) -> float:
    """PML of the sensitive attribute at noisy-count outcome y."""
    return pml_report(model.attribute_prior(), bob_mechanism(model, epsilon), y).pml


@dataclass(frozen=True)
class SweepRow:
    """One n of a sweep; ``bound`` is None where lower_bound does not hold (y > 0)."""

    n: int
    bound: Optional[float]
    exact_pml: float
    enum_pml: Optional[float]
    eps_max: float


def sweep(n_values, alpha: float, schedule: EtaSchedule, epsilon: float,
          y: float) -> list[SweepRow]:
    """Bound vs exact PML across n; enumeration cross-check up to SWEEP_ENUM_LIMIT.

    lower_bound holds only for y <= 0, so rows at y > 0 carry no bound.
    """
    rows = []
    for n in sorted(set(int(v) for v in n_values)):
        eta = schedule.eta(n)
        model = CorrelatedBinaryModel(n, alpha, eta)
        bound = lower_bound(n, alpha, eta, epsilon) if y <= 0 else None
        exact = pml_d1(model, epsilon, y)
        enum_pml = None
        if n <= SWEEP_ENUM_LIMIT:
            mech = calibrated_mechanism(model, epsilon)
            enum_pml = pml_entry(model, mech, 0, _pml_outcome(y)).pml
        rows.append(SweepRow(n=n, bound=bound, exact_pml=exact,
                             enum_pml=enum_pml, eps_max=-math.log(alpha)))
    return rows
