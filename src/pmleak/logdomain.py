"""Numerically stable log-domain scalar arithmetic.

All probabilities and densities in this package are carried as natural-log
values, with ``-inf`` encoding exact zero.  Nothing here ever materializes
``exp(v)`` for large ``v``: the correlated-database analysis manipulates
quantities like ``2**n * eta`` and ``(1 + exp(-eps))**n`` with n in the
thousands, which overflow immediately in linear domain.
"""

from __future__ import annotations

import math
from typing import Iterable

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


def log_binom(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial coefficient undefined for n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
