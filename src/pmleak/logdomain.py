"""Numerically stable log-domain arithmetic, on scalars and numpy arrays.

All probabilities and densities in this package are carried as natural-log
values, with ``-inf`` encoding exact zero.  Nothing here ever materializes
``exp(v)`` for large ``v``: the correlated-database analysis manipulates
quantities like ``2**n * eta`` and ``(1 + exp(-eps))**n`` with n in the
thousands, which overflow immediately in linear domain.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# A log-domain non-negative real: log of the magnitude, -inf for zero.
LogReal = float

LOG_ZERO: LogReal = float("-inf")
LOG_TWO: float = math.log(2.0)


def log_add(a: LogReal, b: LogReal) -> LogReal:
    """log(e^a + e^b), computed max-shifted."""
    if a < b:
        a, b = b, a
    if b == LOG_ZERO:
        return a
    return a + math.log1p(math.exp(b - a))


def log_sum_exp(values: Iterable[LogReal], counts=None) -> LogReal:
    """log sum of exponentials, max-shifted; fsum keeps the tail accurate.

    With `counts`, the k-th value stands for counts[k] >= 1 copies of itself:
    it is exponentiated once, and its multiple enters fsum as the terms
    e * 2^j, one for each set bit j of its count.  Doubling e <= 1 is exact,
    subnormals included, for any count a list could hold, and fsum rounds
    the exact sum once, so the result is that of the expanded list, bit for bit."""
    vals = list(values)
    if not vals:
        raise ValueError("empty aggregation")
    m = max(vals)
    if m == LOG_ZERO or math.isnan(m):
        return m
    if counts is None:
        return m + math.log(math.fsum(math.exp(v - m) for v in vals))
    terms = []
    for v, c in zip(vals, counts, strict=True):
        c = int(c)
        if c < 1:
            raise ValueError("counts must be at least 1")
        e = math.exp(v - m)
        while c:
            if c & 1:
                terms.append(e)
            c >>= 1
            e *= 2.0
    return m + math.log(math.fsum(terms))


def log_sum_exp_array(v, axis=-1):
    """`log_sum_exp` along `axis` of an array, max-shifted; LOG_ZERO where
    every entry is (or there is none), NaN where one is +inf, without a warning."""
    top = v.max(axis=axis, keepdims=True, initial=LOG_ZERO)
    top[top == LOG_ZERO] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.subtract(v, top)
        return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + top.squeeze(axis)


def log_array(v):
    """Elementwise log of a non-negative array, LOG_ZERO at 0 without a warning."""
    return np.log(v, out=np.full(v.shape, LOG_ZERO), where=v != 0)
