"""Numerically stable log-domain arithmetic, on scalars and numpy arrays.

All probabilities and densities in this package are carried as natural-log
values, with ``-inf`` encoding exact zero.  Nothing here ever materializes
``exp(v)`` for large ``v``: the correlated-database analysis manipulates
quantities like ``2**n * eta`` and ``(1 + exp(-eps))**n`` with n in the
thousands, which overflow immediately in linear domain.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

# A log-domain non-negative real: log of the magnitude, -inf for zero.
LogReal = float

LOG_ZERO: LogReal = float("-inf")
LOG_TWO: float = math.log(2.0)

#: the lowest finite float
_LOWEST = -sys.float_info.max


def log_add(a: LogReal, b: LogReal) -> LogReal:
    """log(e^a + e^b), computed max-shifted."""
    if a < b:
        a, b = b, a
    if b == LOG_ZERO:
        return a
    return a + math.log1p(math.exp(b - a))


def log_sum_exp(values: Iterable[LogReal], counts=None) -> LogReal:
    """log sum of exponentials, max-shifted; fsum keeps the tail accurate.

    With `counts`, a list of whole numbers, the k-th value stands for
    counts[k] >= 1 copies of itself: it is exponentiated once, and each
    shifted exp e = p/q <= 1 is a whole number p 2^1074 / q of units
    2^-1074, subnormals included.  The counted sum is one exact int sum of
    those units, and its one division by 2^1074 is correctly rounded, as
    fsum is, so the result is that of the expanded list, bit for bit: NaN
    where an exp is NaN (a NaN or +inf value), and OverflowError where the
    sum leaves the float range."""
    vals = list(values)
    if not vals:
        raise ValueError("empty aggregation")
    if counts is not None:
        if len(counts) != len(vals):
            raise ValueError(f"{len(vals)} values but {len(counts)} counts")
        if min(counts) < 1:
            raise ValueError("counts must be at least 1")
    m = max(vals)
    if m == LOG_ZERO or math.isnan(m):
        return m
    exps = [math.exp(v - m) for v in vals]
    if counts is None:
        return m + math.log(math.fsum(exps))
    if any(map(math.isnan, exps)):
        return math.nan
    total = sum((p * c) << (1075 - q.bit_length())  # q = 2^k, so p/q is p 2^(1074-k) units
                for (p, q), c in zip(map(float.as_integer_ratio, exps), map(int, counts)))
    return m + math.log(total / (1 << 1074))


def log_array(v):
    """Elementwise log of a non-negative array, LOG_ZERO at 0 without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(v)
