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


def log_sum_exp(values: Iterable[LogReal]) -> LogReal:
    """log sum of exponentials, max-shifted; fsum keeps the tail accurate."""
    vals = list(values)
    if not vals:
        raise ValueError("empty aggregation")
    m = max(vals)
    if m == LOG_ZERO or math.isnan(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_sum_exp_array(v, axis=-1):
    """`log_sum_exp` along `axis` of an array, max-shifted; LOG_ZERO where
    every entry is (or there is none), NaN where one is +inf, without a warning."""
    top = v.max(axis=axis, keepdims=True, initial=LOG_ZERO)
    top[top == LOG_ZERO] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.exp(v - top).sum(axis=axis)) + top.squeeze(axis)


def log_array(v):
    """Elementwise log of a non-negative array, LOG_ZERO at 0 without a warning."""
    return np.log(v, out=np.full(v.shape, LOG_ZERO), where=v != 0)


def log_binom(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient undefined for n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
