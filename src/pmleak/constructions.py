"""The correlated binary database and its leakage under calibrated Laplace noise.

The construction: a database of n+1 binary entries where, conditioned on the
first entry being 1 (resp. 0), the remaining n entries are the all-ones
(resp. all-zeros) string with probability eta and uniform over the other
2^n - 1 strings otherwise.  Releasing the empirical frequency of ones
through a Laplace mechanism calibrated to epsilon-DP still leaks almost the
entire first entry: its per-entry PML approaches log(1/alpha), the leakage
of releasing the entry unperturbed.

Everything here is evaluated in log domain so the analysis scales to n in
the millions and beyond.  The closed forms for y <= 0 cost O(1).  The
binomial-sum evaluator, valid for all y, takes the Hamming-weight sums as
contour integrals through their saddle point wherever the binomial variance
k(n-k)/n at the kink k = floor(y(n+1)) is at least 25: a fixed number of
nodes, plus the closed form (or its mirror image) where y lies outside the
band of modes, so its cost depends on neither n nor y.  Below that (small
n, or y within about 25/n of 0 or 1) it sums the roughly 10*sqrt(n) terms
around the mode in one numpy reduction, with the truncation bound stated in
its docstring, or takes the closed form where no kink falls inside that
window.  The evaluators cross-check each other and, for small n, full
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
#: of about 9.5*sqrt(n) terms, summed only where the saddle integral does
#: not apply and a kink falls inside it, passes this near n = 1.1e12
WINDOW_LIMIT = 10 ** 7

#: the first entry's two values, as a column against the window's indices
_BITS = np.array([[0.0], [1.0]])

#: least binomial variance k(n-k)/n at which the Hamming-weight sums are the
#: saddle integral of `_saddle_sums`; below it the window is summed
_SADDLE_MIN_VARIANCE = 25

#: the saddle integral's nodes u > 0 in units of 1/sigma: a step of 1/2,
#: half a step off 0, out to 12 (where |E| < e^-43 once sigma >= 5)
_SADDLE_NODES = (np.arange(24) + 0.5) / 2.0
_SADDLE_SQUARES = np.square(_SADDLE_NODES)
_SADDLE_GAUSS = np.exp(-0.5 * _SADDLE_SQUARES)

#: a kernel pole within this many 1/sigma of the path is subtracted
_POLE_ZONE = 4.0

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

    def _log_mass(self, d1, all_equal: bool) -> LogReal:
        """Log-mass of a database with first entry d1 and a tail all equal to it or not."""
        lp = math.log(self.alpha) if d1 == 0 else math.log1p(-self.alpha)
        if all_equal:
            return lp + math.log(self.eta)
        return lp + math.log1p(-self.eta) - _log_two_pow_minus_one(self.n)

    def joint_logp(self, x):
        if len(x) != self.num_entries:
            raise ValueError("tuple length mismatch")
        return self._log_mass(x[0], all(d == x[0] for d in x[1:]))

    def log_masses(self, digits):
        # four values, picked by d1 and whether the tail equals it
        values = np.array([[self._log_mass(d1, all_equal) for all_equal in (False, True)]
                           for d1 in (0, 1)])
        all_equal = (digits[:, 1:] == digits[:, :1]).all(axis=1)
        return values[digits[:, 0], all_equal.astype(np.intp)]


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
    return LaplaceMechanism(lambda x: np.sum(x, axis=-1) / m,
                            calibrated_scale(model.n, epsilon), sensitivity=1.0 / m)


def cond_density_binomial(model: CorrelatedBinaryModel, b: float, d1: int, y: float) -> LogReal:
    """log P(Y = y | D_1 = d1) via the Hamming-weight binomial sum; valid for all y.

    The output is a mixture of 2^n Laplace densities whose centers depend
    only on the tail's Hamming weight, so the uniform part collapses to
    n+1 binomially weighted terms.  The all-d1 string (Hamming weight n*d1)
    carries weight eta instead, so its term is left out of the sum by its
    index; taking it back out by subtraction cancels catastrophically when
    it dominates.

    Where the binomial variance k(n-k)/n at k = floor(y(n+1)) is at least
    25, both rows are contour integrals through the saddle point, evaluated
    at a fixed number of nodes, with the closed forms below as the residues
    of the poles the path has passed (`_saddle_sums`); `pml_d1` on it reads
    80-bit sums to 2e-15 at y = 0.4999 ... 0.53 up to n = 1e10.  Otherwise only
    a window of about 10*sqrt(n) terms around the mode is summed, as one
    numpy reduction.  With s = y(n+1) - d1 and t = 1/((n+1)b), term i
    is a_i = log C(n,i) - t|s - i| up to a constant: a sum of two concave
    functions of i, so the terms are log-concave with the single mode
    clip(s, n/(1+e^t), n/(1+e^-t)), and each step a_{i+1} - a_i falls by
    at least 4/(n+2) from the one before.  The window reaches
    9.5 (sqrt(n)/2 + 1) + 2 indices to each side of the mode, 9.5 binomial
    standard deviations (sigma <= sqrt(n)/2), so its edge terms sit at
    least 45 nats below the largest term.  Truncation bound: if the last
    step inside the window has log-ratio -delta, every step beyond it is
    smaller still and the omitted tail on that side is at most
    e^{a_edge} e^{-delta} / (1 - e^{-delta}).

    Where both rows' kinks s fall below the window, every summed term has
    i > s, and the full sum over i is the closed form of
    `cond_density_closed_form`, with the d1 = 0 peak term eta e^{-|y|/b};
    where both fall above it, the mirror image (y -> 1 - y, d1 -> 1 - d1,
    i -> n - i).  Such a closed form differs from the true sum only in
    terms outside the window, where its own terms are log-concave with the
    window's mode, so the same tail bound covers it, at O(1) cost.  The
    mode is then clipped to an end of the band [n/(1+e^t), n/(1+e^-t)], so
    this holds for y(n+1) below the band's lower end less the window's
    half-width, or above its upper end plus the half-width and one.  Only
    the window, summed for every other outcome of small variance, is
    limited: more than WINDOW_LIMIT terms is a ValueError, which at large n
    takes a y within 25/n of 0 or 1 and an epsilon of about log n.
    """
    if d1 not in (0, 1):
        raise ValueError("d1 must be a bit")
    anchor, rel = _cond_densities_binomial(model, b, y)
    return anchor + rel[d1]


def _window(n: int, b: float, y: float) -> tuple[int, int]:
    """The indices [lo, hi] around the mode that `cond_density_binomial` sums at y."""
    m = n + 1
    q = math.exp(-1.0 / (m * b))  # e^-t cannot overflow, however small b is
    # the mode at d1 = 0; at d1 = 1 it is at most one index lower, so both
    # conditionals sum one window from one anchor
    mode = min(max(y * m, n * q / (1.0 + q)), n / (1.0 + q))
    half = math.ceil(_WINDOW_SIGMAS * (math.sqrt(n) / 2 + 1)) + 2
    return max(0, math.floor(mode) - half - 1), min(n, math.ceil(mode) + half)


def _cond_densities_binomial(model: CorrelatedBinaryModel, b: float, y: float) -> tuple:
    """(anchor, [log P(Y = y | D_1 = d1) - anchor for d1 = 0, 1]), the evaluator
    and bound of `cond_density_binomial`.  The saddle integral and the
    closed forms come relative to an n-sized anchor, which cancels from the
    PML; the window's two rows come absolute, with anchor 0."""
    if not b > 0:
        raise ValueError("scale must be positive")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    n = model.n
    s = y * (n + 1)  # the d1 = 0 kink; the d1 = 1 kink is s - 1
    k = math.floor(s)
    if k * (n - k) >= _SADDLE_MIN_VARIANCE * n:
        return _saddle_sums(model, b, y, k)
    lo, hi = _window(n, b, y)
    if s < lo or s - 1.0 > hi:
        # above the window, the mirror image y -> 1 - y swaps the two rows;
        # y >= 1/2 there, so 1 - y is exact up to y = 2
        mirrored = s >= lo
        anchor, rel = _closed_forms(model, b, 1.0 - y if mirrored else y, anchored=True)
        return anchor, rel[::-1] if mirrored else rel
    if hi - lo + 1 > WINDOW_LIMIT:  # checked before anything is allocated
        raise ValueError(f"n = {n} needs a window of {hi - lo + 1} binomial terms at "
                         f"y in (0, 1), above the limit of {WINDOW_LIMIT}")
    return 0.0, _window_sums(model, b, y, lo, hi)


def _window_sums(model: CorrelatedBinaryModel, b: float, y: float, lo: int, hi: int) -> list:
    """[log P(Y = y | D_1 = d1) for d1 = 0, 1] from the terms lo..hi, both rows
    in one (2, W) reduction."""
    n = model.n
    m = n + 1
    i = np.arange(lo, hi + 1, dtype=float)
    # log C(n, i) - log C(n, lo), from the exact ratios C(n, i+1) / C(n, i)
    log_c = np.empty(len(i))
    log_c[0] = 0.0
    np.cumsum(np.log((n - i[:-1]) / i[1:]), out=log_c[1:])
    # row d1: log_c - |y - (d1 + i) / m| / b, in place on one (2, W) array; a
    # distance over b that overflows is a term of zero mass
    terms = np.add(_BITS, i)
    terms /= m
    np.subtract(y, terms, out=terms)
    np.abs(terms, out=terms)
    with np.errstate(over="ignore"):
        terms /= b
    np.subtract(log_c, terms, out=terms)
    for d1 in (0, 1):
        if lo <= n * d1 <= hi:
            terms[d1, n * d1 - lo] = LOG_ZERO
    # the constants of size n are added apart from the terms: their rounding
    # is then the same at d1 = 0 and 1 and cancels from the PML
    log_scale = (math.log1p(-model.eta) - _log_two_pow_minus_one(n)
                 + log_binom(n, lo) - math.log(2.0 * b))
    uniform_part = (log_scale + log_sum_exp_array(terms)).tolist()
    # the all-d1 tail: its center is d1 itself
    return [log_add(math.log(model.eta) + laplace_log_density(float(d1), b, y), uniform)
            for d1, uniform in enumerate(uniform_part)]


def _saddle_sums(model: CorrelatedBinaryModel, b: float, y: float, k: int) -> tuple:
    """(anchor, [log P(Y = y | D_1 = d1) - anchor for d1 = 0, 1]) from the
    Hamming-weight sums as contour integrals, in a fixed number of steps.

    With s = y(n+1) = k + f, t = 1/((n+1)b) and q = e^-t, the sum
    F_0 = sum_i C(n, i) e^{-t|s - i|} is [z^k] (1+z)^n K(z), where
    K(z) = e^{-tf}/(1 - qz) + e^{-t(1-f)}/(z - q) holds the geometric
    weights below and above the kink, and F_1 is [z^(k-1)] of the same.  On
    the circle z = rho e^{iu} through the saddle rho = k/(n-k) of
    (1+z)^n z^-k, that function over its value A = (1+rho)^n rho^-k at
    u = 0 is E(u), a peak of width 1/sigma, sigma^2 = k(n-k)/n, and
        F_d1 = A rho^d1 (1/2pi) int E(u) e^{i d1 u} K(rho e^{iu}) du.
    The trapezoid rule with step 1/(2 sigma), out to 12/sigma, errs by
    about e^{-8 pi^2}: the integrand is analytic and E has fallen below
    e^-43 there.  K's poles z = e^t and e^-t sit at u = -i d+ and +i d-,
    d+- = t -+ log rho.  A pole within _POLE_ZONE/sigma of the path would
    spoil the trapezoid rule, so its singular part times a Gaussian that is
    1 at the pole is taken out at the nodes and integrated exactly: half
    its residue times erfc(sigma d / sqrt 2), d signed, which reads the
    whole residue once the path has passed the pole.  A pole passed by more
    (rho beyond e^t or e^-t: y outside the band of modes) adds its whole
    residue, the closed form of `cond_density_closed_form` or its mirror
    image, which keeps its own anchor and bits; the integral is added
    relative to it.  Either way the cost depends on neither n nor y.  The
    all-d1 string's term, which the conditionals leave out, is at most
    1/C(n, k) < 1e-23 of F_d1 and is not subtracted.
    """
    n = model.n
    t = 1.0 / (b * (n + 1))
    f = y * (n + 1) - k
    a = k / n
    sigma = math.sqrt(k * (n - k) / n)
    log_rho = math.log(k / (n - k))
    u = _SADDLE_NODES * (1.0 / sigma)
    z = np.exp(1j * u)
    s2 = np.sin(0.5 * u)
    s2 *= s2
    # E(u) = e^{n log(1 + a(e^iu - 1)) - iku}, whose modulus is
    # (1 - 4a(1-a) sin^2(u/2))^(n/2), without cancellation
    arg = np.arctan2(a * z.imag, 1.0 - (2.0 * a) * s2)
    arg -= a * u
    e = np.exp((0.5 * n) * np.log1p((-4.0 * a * (1.0 - a)) * s2) + (1j * n) * arg)
    # the poles and the logs of their coefficients in K, scaled by e^-top
    d = (t - log_rho, t + log_rho)
    c = (-t * f, -t * (1.0 - f) - log_rho)
    top = max(c)
    e *= (math.exp(c[0] - top) / (1.0 - math.exp(-d[0]) * z)
          + math.exp(c[1] - top) / (z - math.exp(-d[1])))
    # rows d1 = 0, 1 over the positive nodes; the negative ones are their conjugates
    line = [e.sum().real, np.dot(e, z).real]
    logw, share, crossed = [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], None
    for p, sign in enumerate((1, -1)):
        dist = sigma * d[p]
        if dist >= _POLE_ZONE:
            continue
        # the residue weight in row d1, as a log
        phi = n * math.log1p(a * math.expm1(sign * d[p])) - sign * k * d[p]
        for d1 in (0, 1):
            logw[p][d1] = c[p] - top + (d[p] if sign < 0 else 0.0) + phi + sign * d1 * d[p]
        if dist <= -_POLE_ZONE:
            crossed = p
            continue
        # the singular part C/(u - u_p), C = +-iw, times e^{-sigma^2 (u^2 + d^2)/2}
        # is taken out at the nodes, where its real part is w d e^{...}/(u^2 + d^2),
        # and added back integrated: (w/2) erfc(sigma d / sqrt 2)
        tail = dist * (_SADDLE_GAUSS / (_SADDLE_SQUARES + dist * dist)).sum()
        for d1 in (0, 1):
            line[d1] -= sigma * math.exp(logw[p][d1] - 0.5 * dist * dist) * tail
            share[d1] += 0.5 * math.exp(logw[p][d1]) * math.erfc(dist / math.sqrt(2.0))
    line = [v / (2.0 * math.pi * sigma) for v in line]
    if crossed is not None:
        mirrored = crossed == 0
        anchor, rel = _closed_forms(model, b, 1.0 - y if mirrored else y, anchored=True)
        # the residue's uniform part is e^{anchor + r} in row d1
        r = [0.0, -t]
        if mirrored:
            rel, r = rel[::-1], r[::-1]
        return anchor, [rel[d1] + math.log1p(line[d1] * math.exp(r[d1] - logw[crossed][d1]
                                                                   - rel[d1]))
                        for d1 in (0, 1)]
    # log [(1-eta)/(2^n - 1) ((1+rho)^n rho^-k)/(2b)], with (1+rho)^n rho^-k
    # = 2^n e^{-n KL(k/n || 1/2)}: n log 2 cancels before it is rounded
    x = (2 * k - n) / n
    anchor = (math.log1p(-model.eta) - _log1mexp(-n * LOG_TWO) - math.log(2.0 * b)
              - k * math.log1p(x) - (n - k) * math.log1p(-x))
    return anchor, [log_add(math.log(model.eta) + laplace_log_density(float(d1), b, y) - anchor,
                            top + d1 * log_rho + math.log(line[d1] + share[d1]))
                    for d1 in (0, 1)]


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
    return _closed_forms(model, b, y, anchored=False)[1][d1]


def _closed_forms(model: CorrelatedBinaryModel, b: float, y: float, anchored: bool) -> tuple:
    """(anchor, [log P(Y = y | D_1 = d1) - anchor for d1 = 0, 1]), every
    Hamming-weight center taken to lie above y: the sums of
    `cond_density_closed_form`, for y < 1.

    The d1 = 0 peak term eta e^{-|y|/b} enters its bracket as eta
    e^{-(|y|+y)/b}, which is eta for y <= 0.  Anchored, the n-sized
    -log 2b + y/b + log_uniform is the anchor, left out of both brackets
    before their logs are added, so it cancels from their difference;
    otherwise the anchor is 0 and each conditional is the sum
    -log 2b + y/b + bracket, in the order that fixes the bits of
    `cond_density_closed_form` and the committed sweeps.  q enters only
    as -t, so q = e^-t underflowing to 0 stays finite, and (1+q)^n - 1 and
    (1+q)^n - q^n only through log1p and expm1, which do not cancel when
    n q is small.
    """
    n = model.n
    t = 1.0 / (b * (n + 1))
    log1p_q = math.log1p(math.exp(-t))  # log (1+q)
    # log [(1-eta) ((1+q)/2)^n / (1 - 2^-n)] = log [(1-eta) (1+q)^n / (2^n - 1)]
    log_uniform = (math.log1p(-model.eta) + n * math.log1p(math.expm1(-t) / 2)
                   - _log1mexp(-n * LOG_TWO))
    shift = log_uniform if anchored else 0.0
    log_eta = math.log(model.eta) - shift
    uniform = log_uniform - shift
    # each bracket divided by 2^n - 1
    brackets = [log_add(log_eta - (abs(y) + y) / b, uniform + _log1mexp(-n * log1p_q)),
                -t + log_add(log_eta - n * t, uniform + _log1mexp(-n * (t + log1p_q)))]
    base = -math.log(2.0 * b) + y / b
    if anchored:
        return base + log_uniform, brackets
    return 0.0, [base + bracket for bracket in brackets]


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
    y > 0 dominance is not established, so both conditionals are evaluated
    as in cond_density_binomial and maxed explicitly.  Where k(n-k)/n >= 25
    at k = floor(y(n+1)), that is the saddle integral at a fixed number of
    nodes, plus the closed forms outside the band of modes, relative to
    one n-sized anchor that never enters the PML; otherwise the closed
    forms or one numpy reduction over two rows of roughly 10*sqrt(n)
    terms, which alone is limited by WINDOW_LIMIT.  For y > 0 the PML is
    formed from the differences to the larger conditional, floored at 0
    where the two are equal (y = 1/2), so it keeps its last bits at any n.
    """
    b = calibrated_scale(model.n, epsilon)
    y = _pml_outcome(y)
    log_alpha, log_rest = math.log(model.alpha), math.log1p(-model.alpha)
    if y <= 0:
        _, (c0, c1) = _closed_forms(model, b, y, anchored=False)
        # log P_Y(y): the two conditionals weighted by the law of D_1; at
        # y = 0 nothing here is n-sized, and this order fixes the sweeps' bits
        return max(c0, c1) - log_add(log_rest + c1, log_alpha + c0)
    _, (c0, c1) = _cond_densities_binomial(model, b, y)
    # the same, from the differences to the larger conditional: a peak term
    # can leave one n-sized even relative to the anchor, and subtracted from
    # itself it rounds to nothing
    top = max(c0, c1)
    return max(0.0, -log_add(log_rest + (c1 - top), log_alpha + (c0 - top)))


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
