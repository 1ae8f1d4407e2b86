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
binomial-sum evaluator, valid for all y, takes the Hamming-weight sums at
every kink k = floor(y(n+1)) in (0, n) as one contour integral through
their saddle point at a fixed number of nodes: along the line where the
binomial variance k(n-k)/n is at least 25, around the whole circle below
that, plus the closed form (or its mirror image) where the path has passed
a pole, so its cost depends on neither n nor y.  Outside the band of modes
the integral is mostly below the closed form's last bit and is left out,
so there a kink costs about one closed form.  The evaluators cross-check
each other and, for small n, full enumeration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .leakage import pml, pml_report
from .logdomain import LOG_TWO, LOG_ZERO, LogReal, log_add, log_sum_exp
from .mechanisms import (LaplaceMechanism, _check_epsilon, _check_scale, laplace_for_query,
                         laplace_log_density)
from .probability import DatabaseModel, FiniteDistribution


#: least binomial variance k(n-k)/n at which `_contour_sums` integrates along
#: the line through the saddle; below it, around the whole circle
_SADDLE_MIN_VARIANCE = 25

#: the saddle integral's nodes u > 0 in units of 1/sigma: a step of 1/2,
#: half a step off 0, out to 12 (where |E| < e^-43 once sigma >= 5)
_SADDLE_NODES = (np.arange(24) + 0.5) / 2.0
_SADDLE_SQUARES = np.square(_SADDLE_NODES)
_SADDLE_GAUSS = np.exp(-0.5 * _SADDLE_SQUARES)

#: a kernel pole within this many 1/sigma of the path is subtracted
_POLE_ZONE = 4.0

#: the circle's nodes u_j = pi (2j+1)/128 for j < 64; the rest are their conjugates
_CIRCLE_NODES = 128
_CIRCLE_U = (np.pi / _CIRCLE_NODES) * (2 * np.arange(_CIRCLE_NODES // 2) + 1)
_CIRCLE_Z = np.exp(1j * _CIRCLE_U)
_CIRCLE_SIN = np.sin(_CIRCLE_U)
_CIRCLE_S2 = np.square(np.sin(0.5 * _CIRCLE_U))

#: least distance, in log radius, from the circle to a kernel pole: the
#: trapezoid rule then errs by about e^(-0.3 * 128) < 2e-17 of the integrand
_CIRCLE_GAP = 0.3

#: the names of the paths `_cond_densities_binomial` takes; "residue alone"
#: leaves the integral out, and on the circle names the moved one too
_PATHS = ("closed form", "mirror image", "line", "line + erfc pole", "line + residue",
          "line, residue alone", "circle", "moved circle", "circle + residue",
          "moved circle + residue", "circle, residue alone")

#: largest n whose sweep row is cross-checked by enumerating the 2^(n+1) atoms
SWEEP_ENUM_LIMIT = 15


def _log1mexp(v: float) -> LogReal:
    """log(1 - e^v) for v <= 0, LOG_ZERO at v = 0; expm1 near 0, log1p below -log 2."""
    if v > -LOG_TWO:
        d = -math.expm1(v)
        return math.log(d) if d > 0 else LOG_ZERO
    return math.log1p(-math.exp(v))


def _log_two_pow_minus_one(n: int) -> float:
    """log(2^n - 1) = n log 2 + log1p(-2^-n), with fdlibm's split of log 2:
    ln2_hi has 21 trailing zero bits, so n ln2_hi is exact for n < 2^21."""
    return n * 6.93147180369123816490e-01 + (n * 1.90821492927058770002e-10
                                             + math.log1p(-2.0 ** -n))


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

    def log_mass_table(self) -> tuple:
        """The four atom log-masses, [d1][tail equals d1]: (log P(d1) +
        log(1 - eta)) - log(2^n - 1) for the 2^n - 1 other tails, and
        log P(d1) + log eta for the tail of n copies of d1."""
        log_rest, log_norm = math.log1p(-self.eta), _log_two_pow_minus_one(self.n)
        return tuple((lp + log_rest - log_norm, lp + math.log(self.eta))
                     for lp in (math.log(self.alpha), math.log1p(-self.alpha)))

    def log_masses(self, digits):
        all_equal = (digits[:, 1:] == digits[:, :1]).all(axis=1)
        return np.array(self.log_mass_table())[digits[:, 0], all_equal.astype(np.intp)]


@dataclass(frozen=True)
class EtaSchedule:
    """Correlation weight as a function of n: c / n**r, constant at r = 0."""

    c: float = 0.5
    r: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.r < 1 and self.r != 0:
            raise ValueError("rate r must be 0 or at least 1")

    @classmethod
    def constant(cls, c):
        return cls(c)

    @classmethod
    def polynomial(cls, c, r=1.0):
        return cls(c, r)

    def eta(self, n: int) -> float:
        if not n >= 1:  # c / n**r is complex at n < 0 and divides by 0 at n = 0
            raise ValueError("n must be at least 1")
        try:
            value = self.c / n ** self.r
        except OverflowError:  # n beyond the float range: eta is 0, or c at r = 0
            value = self.c if self.r == 0 else 0.0
        if not 0.0 < value < 1.0:
            raise ValueError(f"eta schedule leaves (0, 1) at n={n}")
        return value


def calibrated_scale(n: int, epsilon: float) -> float:
    """Laplace scale b = 1 / (epsilon * (n+1)) for the empirical-frequency query."""
    _check_epsilon(epsilon)
    scale = 1.0 / (epsilon * (n + 1))
    _check_scale(scale)  # 0 where epsilon (n+1) overflowed
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

    With k = floor(y(n+1)), where 0 < k < n both rows are contour integrals
    at a fixed number of nodes (`_contour_sums`), with the closed forms of
    `cond_density_closed_form` as the residues of the poles the path has
    passed; `pml_d1` on it reads 80-bit sums to 2e-15 at y = 0.4999 ... 0.53
    up to n = 1e10.  At k <= 0 every summed center lies above y, and the sum
    is that closed form; at k >= n it is its mirror image (y -> 1 - y,
    d1 -> 1 - d1, i -> n - i), both unanchored.  Either way the cost depends
    on neither n nor y.
    """
    if d1 not in (0, 1):
        raise ValueError("d1 must be a bit")
    _check_scale(b)
    if not math.isfinite(1.0 / (b * (model.n + 1))):
        raise ValueError("scale is too small: t = 1/(b(n+1)) overflows")
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    anchor, rel, _ = _cond_densities_binomial(model, b, y, anchored=False)
    return anchor + rel[d1]


def _cond_densities_binomial(model: CorrelatedBinaryModel, b: float, y: float,
                             anchored: bool) -> tuple:
    """(anchor, [log P(Y = y | D_1 = d1) - anchor for d1 = 0, 1], the name in
    `_PATHS` of the path taken), the evaluator of `cond_density_binomial`.  At
    0 < k < n the anchor is n-sized and cancels from the rows' difference; at
    the ends it is so only if `anchored`, for a caller that reads that difference,
    and is 0 otherwise: the rows are then absolute values, which its rounding would spoil."""
    n = model.n
    # the d1 = 0 kink, the d1 = 1 kink being one lower; beyond [-1, 2] only
    # its side of the ends matters, and y(n+1) may overflow
    k = math.floor(y * (n + 1)) if -1.0 <= y <= 2.0 else (n if y > 0 else 0)
    if 0 < k < n:
        return _contour_sums(model, b, y, k)
    anchor, rel = (_end_rows(model, b, y, True, anchored) if k > 0
                   else _closed_forms(model, b, y, anchored))
    return anchor, rel, _PATHS[k > 0]


def _end_rows(model: CorrelatedBinaryModel, b: float, y: float, mirrored: bool,
              anchored: bool) -> tuple:
    """`_closed_forms` at y, or its mirror image: at 1 - y with the rows swapped,
    taken where y >= 1/2, so 1 - y is exact up to y = 2."""
    anchor, rel = _closed_forms(model, b, 1.0 - y if mirrored else y, anchored)
    return anchor, rel[::-1] if mirrored else rel


def _log_shift(n: int, a: float, k: int, x: float) -> float:
    """log [A(rho e^x) / A(rho)] for A(r) = (1+r)^n r^-k and a = rho/(1+rho)."""
    return n * math.log1p(a * math.expm1(x)) - k * x


def _residue(n: int, a: float, ks: int, flip: int, p: int, c_p: float, d_p: float) -> tuple:
    """log of the residue at pole p, in rows d1 = 0, 1, in `_contour_sums`' units"""
    sign = 1 - 2 * p
    row_0 = c_p + (d_p if p else 0.0) + _log_shift(n, a, ks, flip * sign * d_p)
    return row_0, row_0 + sign * d_p


def _contour_sums(model: CorrelatedBinaryModel, b: float, y: float, k: int) -> tuple:
    """(anchor, [log P(Y = y | D_1 = d1) - anchor for d1 = 0, 1], path) from
    the Hamming-weight sums as contour integrals, in a fixed number of steps.

    With s = y(n+1) = k + f, t = 1/((n+1)b) and q = e^-t, the sum
    F_0 = sum_{i > 0} C(n, i) e^{-t|s - i|} is [z^k] ((1+z)^n - 1) K(z), where
    K(z) = e^{-tf}/(1 - qz) + e^{-t(1-f)}/(z - q) holds the geometric
    weights below and above the kink, and F_1 is [z^(k-1)] ((1+z)^n - z^n) K(z).
    On the circle z = rho e^{iu}, with a = rho/(1+rho), A = (1+rho)^n rho^-k
    and E(u) = (1 + a(e^iu - 1))^n e^{-iku},
        F_d1 = A rho^d1 (1/2pi) int (E(u) - P_d1(u)) e^{i d1 u} K(rho e^{iu}) du,
    P_0 = (1-a)^n e^{-iku} and P_1 = a^n e^{i(n-k)u} being the left-out terms.
    K's poles z = e^t and e^-t lie d+- = t -+ log rho from the circle in log radius.

    Where sigma^2 = k(n-k)/n >= 25, rho is the saddle k/(n-k), E a peak of
    width 1/sigma, and the integral runs along the line: the trapezoid rule
    with step 1/(2 sigma) out to 12/sigma errs by about e^{-8 pi^2}, E having
    fallen below e^-43 there, and P_d1 < 1e-23 F_d1 is dropped.  A pole within
    _POLE_ZONE/sigma of the path has its singular part times a Gaussian that
    is 1 at the pole taken out at the nodes and integrated exactly: half its
    residue times erfc(sigma d / sqrt 2), d signed.  Below that variance the
    periodic trapezoid rule takes the whole circle; at 128 nodes it errs by
    about e^{-128 d}, d the distance to the nearer pole, so the saddle is
    moved to _CIRCLE_GAP from the poles (outside both where they are closer
    than twice that).  E's phase is taken on the smaller of a and 1 - a (E is
    then the conjugate), so no n-sized angle is rounded.  On either path f,
    2f - 1 and 1 - f are rounded once from y's integer ratio, K's two weights
    are taken over the larger from their difference t(2f - 1) - log rho, and
    the larger joins the anchor, so no rounding at the size of t enters the rows.

    A pole the path has passed (y outside the band of modes, or the circle
    moved past it) adds its residue, the closed form of
    `cond_density_closed_form` or its mirror image, which keeps its own anchor
    and bits; the integral is added relative to it, and on either path left
    out, before any node is evaluated, where a bound puts it below 2^-60 of
    the residue.  The bound is on the exact integral around the circle through
    the saddle, whatever rule computes it: there |E - P_d1| <= 2 and |K| is at
    most the sum of w_p/|1 - e^-d_p|.  On the line the crossed pole lies at least
    4/sigma past the path and the other, d_0 + d_1 = 2t > 0, more than
    4/sigma before it, so no erfc share is left out with the integral.
    """
    n = model.n
    t = 1.0 / (b * (n + 1))
    num, den = y.as_integer_ratio()  # f to the last bit, since t multiplies it
    r = num * (n + 1) - k * den
    r = r if r > 0 else 0  # here a call to min or max would cost more than its arithmetic
    a = k / n
    log_rho = math.log(k / (n - k))
    sigma = math.sqrt(k * (n - k) / n)
    on_line = k * (n - k) >= _SADDLE_MIN_VARIANCE * n
    # the circle takes a and k on the side of 1/2 where a is smaller, mirrored
    # by flip = -1, and shift = log A(rho) - log A(saddle) where rho moves
    ks, flip, shift = k, 1, 0.0
    path = 2 if on_line else 6  # "line", "circle"
    if not on_line:
        if log_rho > 0 or (log_rho == 0 and y >= 0.5):  # the side where 1 - y is exact
            ks, flip = n - k, -1
        x, gap = abs(log_rho), _CIRCLE_GAP
        if t - gap < x < t + gap:
            moved = t - gap if t >= gap and x - (t - gap) < t + gap - x else t + gap
            shift = _log_shift(n, ks / n, ks, x - moved)
            x, path = moved, 7  # "moved circle"
        log_rho = -flip * x
        a = 1.0 / (1.0 + math.exp(x))
    d_0, d_1 = t - log_rho, t + log_rho
    # the kernel's weights over the larger, from their difference, in which
    # 2f - 1 is rounded once from the integers; the larger joins the anchor
    delta = t * ((2 * r - den) / den) - log_rho
    c_0, c_1 = -delta if delta > 0.0 else 0.0, delta if delta < 0.0 else 0.0
    w_0, w_1 = math.exp(c_0), math.exp(c_1)
    crossed = ((0 if sigma * d_0 <= -_POLE_ZONE else 1 if sigma * d_1 <= -_POLE_ZONE else -1)
               if on_line else 0 if d_0 < 0 else 1 if d_1 < 0 else -1)
    if crossed >= 0:
        path += 2  # "line + residue", "circle + residue", "moved circle + residue"
        anchor, (rel_0, rel_1) = _end_rows(model, b, y, crossed == 0, True)
        # the residue's uniform part is e^anchor, times e^-t in row d1 = crossed
        res_0, res_1 = _residue(n, a, ks, flip, crossed, (c_0, c_1)[crossed], (d_0, d_1)[crossed])
        scale_0 = (0.0 if crossed else -t) - res_0 - rel_0
        scale_1 = (-t if crossed else 0.0) - res_1 - rel_1
        bound = 2.0 * (w_0 / abs(1.0 - math.exp(-d_0)) + w_1 / abs(1.0 - math.exp(-d_1)))
        if (scale_1 if scale_1 > scale_0 else scale_0) + math.log(bound) < -60 * LOG_TWO:
            # "line, residue alone", "circle, residue alone": the integral adds log1p(0)
            return anchor, [rel_0 + 0.0, rel_1 + 0.0], _PATHS[5 if on_line else 10]
    f = r / den
    if on_line:
        u = _SADDLE_NODES * (1.0 / sigma)
        z, s2 = np.multiply(1j, u), np.multiply(0.5, u)
        np.exp(z, out=z)
        s2 *= np.sin(s2, out=s2)
        sin_u = z.imag
    else:
        u, z, s2, sin_u = _CIRCLE_U, _CIRCLE_Z, _CIRCLE_S2, _CIRCLE_SIN
    # E(u) = e^{n log(1 + a(e^iu - 1)) - i ks u} (its conjugate if flipped), whose
    # modulus is (1 - 4a(1-a) sin^2(u/2))^(n/2), without cancellation, in place
    arg, tmp = a * sin_u, (2.0 * a) * s2
    np.arctan2(arg, np.subtract(1.0, tmp, out=tmp), out=arg)
    arg -= np.multiply(ks / n, u, out=tmp)
    np.log1p(np.multiply(-4.0 * a * (1.0 - a), s2, out=tmp), out=tmp)
    e = (1j * (flip * n)) * arg
    np.exp(np.add(np.multiply(0.5 * n, tmp, out=tmp), e, out=e), out=e)
    kernel, other = np.multiply(math.exp(-d_0), z), np.subtract(z, math.exp(-d_1))
    np.divide(w_0, np.subtract(1.0, kernel, out=kernel), out=kernel)
    e *= np.add(kernel, np.divide(w_1, other, out=other), out=kernel)
    # rows d1 = 0, 1 over the positive nodes; the negative ones are their conjugates
    row_0, row_1 = float(e.sum().real), float(np.dot(e, z).real)
    share_0 = share_1 = 0.0
    if on_line:
        for p, c_p, d_p in ((0, c_0, d_0), (1, c_1, d_1)):
            dist = sigma * d_p
            if abs(dist) >= _POLE_ZONE:
                continue
            path = 3  # "line + erfc pole"
            # the singular part C/(u - u_p), C = +-iw, times e^{-sigma^2 (u^2 + d^2)/2}
            # is taken out at the nodes, where its real part is w d e^{...}/(u^2 + d^2),
            # and added back integrated: (w/2) erfc(sigma d / sqrt 2)
            res_0, res_1 = _residue(n, a, ks, flip, p, c_p, d_p)
            tail = dist * (_SADDLE_GAUSS / (_SADDLE_SQUARES + dist * dist)).sum()
            row_0 -= sigma * math.exp(res_0 - 0.5 * dist * dist) * tail
            row_1 -= sigma * math.exp(res_1 - 0.5 * dist * dist) * tail
            share_0 += 0.5 * math.exp(res_0) * math.erfc(dist / math.sqrt(2.0))
            share_1 += 0.5 * math.exp(res_1) * math.erfc(dist / math.sqrt(2.0))
        row_0, row_1 = row_0 / (2.0 * math.pi * sigma), row_1 / (2.0 * math.pi * sigma)
    else:
        # less the left-out terms: (1-a)^n rho^k = a^n rho^-(n-k) = e^mass times
        # K's exact coefficients at z^k and z^-(n-k+1), from its two geometric
        # series, of which one changes sides where the circle passed its pole
        mass = ks * math.log(a) + (n - ks) * math.log1p(-a)
        row_0 = row_0 / (_CIRCLE_NODES // 2) - (
            (math.exp(mass + c_0 - k * t) if d_0 > 0 else 0.0)
            - (math.exp(mass + c_0 + (k + 2.0 * f) * t) if d_1 < 0 else 0.0))
        row_1 = row_1 / (_CIRCLE_NODES // 2) - (
            (math.exp(mass + c_1 - (n - k) * t) if d_1 > 0 else 0.0)
            - (math.exp(mass + c_1 + ((n - k) + 2.0 * (1.0 - f)) * t) if d_0 < 0 else 0.0))
    if crossed >= 0:
        return anchor, [rel_0 + math.log1p(row_0 * math.exp(scale_0)),
                        rel_1 + math.log1p(row_1 * math.exp(scale_1))], _PATHS[path]
    # log [(1-eta)/(2^n - 1) ((1+rho)^n rho^-k)/(2b)] at the saddle, with
    # (1+rho)^n rho^-k = 2^n e^{-n KL(k/n || 1/2)}: n log 2 cancels before it is rounded
    x = (2 * k - n) / n
    shift += max(-t * f, -t * ((den - r) / den) - log_rho)  # the larger weight
    anchor = (math.log1p(-model.eta) - _log1mexp(-n * LOG_TWO) - math.log(2.0 * b)
              - k * math.log1p(x) - (n - k) * math.log1p(-x)) + shift
    log_eta = math.log(model.eta)
    return anchor, [log_add(log_eta + laplace_log_density(0.0, b, y) - anchor,
                            math.log(row_0 + share_0)),
                    log_add(log_eta + laplace_log_density(1.0, b, y) - anchor,
                            log_rho + math.log(row_1 + share_1))], _PATHS[path]


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
    to zero is LOG_ZERO.  `cond_density_binomial` evaluates it.
    """
    if y > 0:
        raise ValueError("closed form valid only for y <= 0")
    return cond_density_binomial(model, b, d1, y)


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
    `cond_density_closed_form`; lifted, at y > 0,
    the uniform parts take y/b - t whole instead.  q enters as -t
    (or, lifted below, with q = 0 apart), so q = e^-t underflowing to 0
    stays finite, and (1+q)^n - 1 and (1+q)^n - q^n only through log1p and
    expm1, which do not cancel when n q is small.
    """
    n = model.n
    t = 1.0 / (b * (n + 1))
    q = math.exp(-t)
    log1p_q = math.log1p(q)
    # log [(1-eta) ((1+q)/2)^n / (1 - 2^-n)] = log [(1-eta) (1+q)^n / (2^n - 1)]
    uniform_terms = (math.log1p(-model.eta), n * math.log1p(math.expm1(-t) / 2),
                     -_log1mexp(-n * LOG_TWO))
    log_uniform = uniform_terms[0] + uniform_terms[1] + uniform_terms[2]
    shift = log_uniform if anchored else 0.0
    log_eta = math.log(model.eta) - shift
    uniform = log_uniform - shift
    # at y > 0 and q < 2^-53 both uniform parts lie within log n of -t, which
    # joins the anchor if anchored, else y/b - t is taken whole; (1 - (1+q)^-n)/q
    # (n at q = 0) replaces a log that would round at t or be -inf at q = 0
    lift = t if y > 0 and t > 53 * LOG_TWO else 0.0
    rest = (math.log(-math.expm1(-n * log1p_q) / q if q else n) if lift
            else _log1mexp(-n * log1p_q))
    # each bracket divided by 2^n - 1: row 0's peak term, row 1's sum less e^-t
    peak = log_eta - (abs(y) + y) / b
    tail = log_add(log_eta - n * t, uniform + _log1mexp(-n * (t + log1p_q)))
    base = -math.log(2.0 * b) + y / b
    if lift:
        # y/b - t = -t (1 - y(n+1)) and row 0's peak + lift = log_eta +
        # t (1 - 2y(n+1)), from y's integer ratio: each nearly cancels where
        # y(n+1) nears 1 (or 1/2), and peak + lift would round at ulp(t)
        num, den = y.as_integer_ratio()
    if anchored:
        first = log_eta + t * ((den - 2 * num * (n + 1)) / den) if lift else peak
        return base + log_uniform - lift, [log_add(first, uniform + rest), (lift - t) + tail]
    if lift:
        near = -t * ((den - num * (n + 1)) / den)
        base = -math.log(2.0 * b)
        # -log 2b and the uniform part's O(1) terms nearly cancel in row 0:
        # one fsum rounds their sum once
        spread = math.fsum((base, *uniform_terms, rest, near))
        return 0.0, [log_add(base + (log_eta - y / b), spread), (base + near) + tail]
    return 0.0, [base + log_add(peak, uniform + rest), base + (-t + tail)]


def _pml_outcome(y: float) -> float:
    """clip(y, 0, 1), where entry 0 leaks as at y: every Laplace center lies in
    [0, 1], so outside it the PML is constant, and ±y/b would drown the centers."""
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    return 0.0 if y < 0.0 else 1.0 if y > 1.0 else y


def pml_d1(model: CorrelatedBinaryModel, epsilon: float, y: float) -> float:
    """Exact PML of entry 0 at outcome y under the calibrated Laplace mechanism.

    Evaluated at clip(y, 0, 1), which has the same PML.  For y <= 0 the d1 = 0
    branch provably dominates and the closed forms apply, at O(1) cost; for
    y > 0 dominance is not established.  At every y both conditionals are
    evaluated as in cond_density_binomial, relative to one n-sized anchor
    that never enters the PML, and maxed explicitly.  The PML is then formed
    from the differences to the larger conditional, floored at 0, so it
    keeps its last bits at any n; at y = 1/2 the two are equal and it is 0.
    A float log_add(a, b) is never below b, so the PML never exceeds the cap
    log(1/alpha), not even by rounding.
    """
    b = calibrated_scale(model.n, epsilon)
    y = _pml_outcome(y)
    if y == 0.5:  # i -> n - i, d1 -> 1 - d1 maps each conditional onto the other
        return 0.0
    _, (c0, c1), _ = _cond_densities_binomial(model, b, y, True)
    # log P_Y(y), the two conditionals weighted by the law of D_1, less the
    # larger of them: a peak term can leave one n-sized even relative to the
    # anchor, and subtracted from itself it rounds to nothing
    top = c1 if c1 > c0 else c0
    pml = -log_add(math.log1p(-model.alpha) + (c1 - top), math.log(model.alpha) + (c0 - top))
    return pml if pml > 0.0 else 0.0


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
    _check_epsilon(epsilon)
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
    CorrelatedBinaryModel(1, alpha, 0.5)  # checks alpha
    _check_epsilon(epsilon)
    target = -math.log(alpha)
    bounded = False
    for n in (2 ** j for j in range(20)):  # 2^19 <= 10^6 < 2^20
        try:
            eta = schedule.eta(n)
        except ValueError:  # eta leaves (0, 1) at this n
            continue
        bounded = True
        if target - lower_bound(n, alpha, eta, epsilon) < delta:
            return n
    if not bounded:
        raise ValueError("the schedule's eta lies outside (0, 1) at every n <= 1000000")
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
    return laplace_for_query(lambda j: model.scale * j, epsilon, sensitivity=1.0)


def bob_pml(model: BobModel, epsilon: float, y: float) -> float:
    """PML of the sensitive attribute at noisy-count outcome y."""
    return pml_report(model.attribute_prior(), bob_mechanism(model, epsilon), y).pml


def _entry0_channel(model: CorrelatedBinaryModel, epsilon: float, y) -> tuple:
    """`entry_channel(model, calibrated_mechanism(model, epsilon), 0, y)` from
    the 2(n+1) classes (d_0, tail weight w) of C(n, w) atoms, all of which
    share the class's mass and likelihood: each reduction takes the counts,
    which gives the bits of the reduction over every atom.  A class's mass
    is its `log_mass_table` entry, its likelihood `lls[d_0 + w]`, from one
    `laplace_log_density` call per center i/(n+1), both summed as floats:
    the centers, distances and divisions are correctly rounded, as in
    `entry_channel`'s arrays.  Valid for n < 1024: log_sum_exp sums the
    counts exactly, and past that their total 2^n can leave the float range."""
    n, m = model.n, model.num_entries
    b = calibrated_scale(n, epsilon)
    counts = [math.comb(n, w) for w in range(m)]
    lls = [laplace_log_density(i / m, b, y) for i in range(m + 1)]
    law, cond = [], []
    for d, (rest, peak) in enumerate(model.log_mass_table()):
        masses = [rest] * m
        masses[n * d] = peak  # the tail of n copies of d
        lp = log_sum_exp(masses, counts)
        law.append(lp)
        cond.append(log_sum_exp([(v - lp) + lls[d + w] for w, v in enumerate(masses)], counts))
    return FiniteDistribution(model.alphabet, tuple(law)), cond


@dataclass(frozen=True)
class SweepRow:
    """One n of a sweep; ``bound`` is None where lower_bound does not hold (y > 0)."""

    n: int
    bound: Optional[float]
    exact_pml: float
    enum_pml: Optional[float]
    eps_max: float


def _whole_number(v) -> int:
    """An n value as an int; a bool, a fraction, NaN or a non-number is rejected."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and (
            isinstance(v, numbers.Integral) or float(v).is_integer()):
        return int(v)
    raise ValueError(f"n must be a whole number, not {v!r}")


def sweep(n_values, alpha: float, schedule: EtaSchedule, epsilon: float,
          y: float) -> list[SweepRow]:
    """Bound vs exact PML across n; enumeration cross-check up to SWEEP_ENUM_LIMIT.

    lower_bound holds only for y <= 0, so rows at y > 0 carry no bound.
    """
    rows = []
    for n in sorted(set(_whole_number(v) for v in n_values)):
        eta = schedule.eta(n)
        model = CorrelatedBinaryModel(n, alpha, eta)
        bound = lower_bound(n, alpha, eta, epsilon) if y <= 0 else None
        exact = pml_d1(model, epsilon, y)
        enum_pml = None
        if n <= SWEEP_ENUM_LIMIT:
            enum_pml = pml(*_entry0_channel(model, epsilon, _pml_outcome(y)))
        rows.append(SweepRow(n=n, bound=bound, exact_pml=exact,
                             enum_pml=enum_pml, eps_max=-math.log(alpha)))
    return rows
