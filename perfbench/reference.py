"""Independent high-precision reference for the correlated-database PML.

Nothing here imports pmleak.  Given D_1 = d1, the n tail bits are all d1
with probability eta and otherwise uniform over the other 2^n - 1 strings,
and Y is Laplace(frequency of ones, b).  Grouping tails by Hamming weight w,

    P(y | d1) = eta Lap(y; d1, b)
                + (1 - eta) / (2^n - 1) * sum_{w != n d1} C(n, w) Lap(y; (d1 + w)/(n + 1), b).

The all-d1 tail is left out of the sum by its index, never subtracted.
mpmath evaluates the sum where that is affordable; beyond that numpy's
80-bit extended precision does, in chunks so memory stays small.
"""

from __future__ import annotations

import mpmath
import numpy as np

#: largest n evaluated with mpmath; larger n use extended-precision numpy
MPMATH_MAX_N = 1000

#: terms per extended-precision chunk
CHUNK = 1 << 15

_DPS = 40


def _log_cond_mp(n, eta, epsilon, d1, y):
    with mpmath.workdps(_DPS):
        b = 1 / (mpmath.mpf(epsilon) * (n + 1))  # the calibrated Laplace scale
        m = n + 1
        yv = mpmath.mpf(y)
        total = mpmath.mpf(0)
        coeff = mpmath.mpf(1)  # C(n, w), updated by the exact ratio
        for w in range(n + 1):
            if w != n * d1:
                center = mpmath.mpf(d1 + w) / m
                total += coeff * mpmath.exp(-abs(yv - center) / b)
            coeff = coeff * (n - w) / (w + 1)
        uniform = (1 - mpmath.mpf(eta)) / (mpmath.mpf(2) ** n - 1) * total
        peak = mpmath.mpf(eta) * mpmath.exp(-abs(yv - d1) / b)
        return mpmath.log(peak + uniform) - mpmath.log(2 * b)


def _log_sum_exp_ld(chunks):
    """log sum exp over an iterable of longdouble arrays, streamed."""
    best = None
    acc = np.longdouble(0)
    for v in chunks:
        top = v.max()
        if best is None or top > best:
            if best is not None:
                acc = acc * np.exp(best - top)
            best = top
        acc += np.exp(v - best).sum()
    return best + np.log(acc)


def _log_cond_ld(n, eta, epsilon, d1, y):
    ld = np.longdouble
    m = n + 1
    inv_b = ld(epsilon) * m
    yv = ld(y)
    with mpmath.workdps(30):
        log_fact_n = mpmath.loggamma(n + 1)

    def chunks():
        for start in range(0, n + 1, CHUNK):
            stop = min(n + 1, start + CHUNK)
            w = np.arange(start, stop, dtype=ld)
            # log C(n, start) exactly enough, then exact-ratio increments
            with mpmath.workdps(30):
                base = log_fact_n - mpmath.loggamma(start + 1) - mpmath.loggamma(n - start + 1)
            base = ld(mpmath.nstr(base, 25))
            steps = np.log((n - w[:-1]) / (w[:-1] + 1))
            log_c = np.empty(len(w), dtype=ld)
            log_c[0] = 0
            np.cumsum(steps, out=log_c[1:])
            terms = base + log_c - np.abs(yv - (d1 + w) / m) * inv_b
            skip = n * d1 - start
            if 0 <= skip < len(w):
                terms[skip] = -np.inf
            yield terms

    log_sum = _log_sum_exp_ld(chunks())
    log_norm = n * np.log(ld(2)) + np.log1p(-np.exp(-n * np.log(ld(2))))
    a = np.log(ld(eta)) - np.abs(yv - d1) * inv_b
    c = np.log1p(-ld(eta)) - log_norm + log_sum
    hi, lo = max(a, c), min(a, c)
    return hi + np.log1p(np.exp(lo - hi)) + np.log(inv_b / 2)


def reference_pml_d1(n: int, alpha: float, eta: float, epsilon: float, y: float) -> float:
    """PML of entry 0 at outcome y, to well below float64 rounding of the result."""
    if n <= MPMATH_MAX_N:
        with mpmath.workdps(_DPS):
            c0 = _log_cond_mp(n, eta, epsilon, 0, y)
            c1 = _log_cond_mp(n, eta, epsilon, 1, y)
            a = mpmath.mpf(alpha)
            log_py = mpmath.log(a * mpmath.exp(c0) + (1 - a) * mpmath.exp(c1))
            return float(max(c0, c1) - log_py)
    c0 = _log_cond_ld(n, eta, epsilon, 0, y)
    c1 = _log_cond_ld(n, eta, epsilon, 1, y)
    a = np.longdouble(alpha)
    hi = max(np.log(a) + c0, np.log1p(-a) + c1)
    lo = min(np.log(a) + c0, np.log1p(-a) + c1)
    log_py = hi + np.log1p(np.exp(lo - hi))
    return float(max(c0, c1) - log_py)

