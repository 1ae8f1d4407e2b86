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


class SplitCounts:
    """Counts 1 <= c_k < 2^1024 of the values of a `log_sum_exp`, split once
    into the powers 2^j of their set bits j, so reductions over the same
    counts share the split: term t is `powers[t]` copies of value `index[t]`."""

    def __init__(self, counts):
        self.size, self.index, self.powers = 0, [], []
        for k, c in enumerate(counts):
            c = int(c)
            if c < 1:
                raise ValueError("counts must be at least 1")
            while c:
                low = c & -c  # the lowest set bit
                self.index.append(k)
                self.powers.append(float(low))
                c ^= low
            self.size = k + 1


def log_sum_exp(values: Iterable[LogReal], counts=None) -> LogReal:
    """log sum of exponentials, max-shifted; fsum keeps the tail accurate.

    With `counts` (or their `SplitCounts`), the k-th value stands for
    counts[k] >= 1 copies of itself: it is exponentiated once, and its
    multiple enters fsum as the terms e * 2^j, one for each set bit j of its
    count.  Scaling e <= 1 by 2^j is exact, subnormals included, for any
    count a list could hold, and fsum rounds the exact sum once, so the
    result is that of the expanded list, bit for bit."""
    vals = list(values)
    if not vals:
        raise ValueError("empty aggregation")
    if counts is not None:
        if not isinstance(counts, SplitCounts):
            counts = SplitCounts(counts)
        if counts.size != len(vals):
            raise ValueError(f"{len(vals)} values but {counts.size} counts")
    m = max(vals)
    if m == LOG_ZERO or math.isnan(m):
        return m
    exps = [math.exp(v - m) for v in vals]
    if counts is None:
        return m + math.log(math.fsum(exps))
    return m + math.log(math.fsum([exps[k] * power
                                   for k, power in zip(counts.index, counts.powers)]))


def log_sum_exp_array(v, axis=-1, overwrite=False):
    """`log_sum_exp` along `axis` of an array, max-shifted; LOG_ZERO where
    every entry is (or there is none), NaN where one is +inf, without a
    warning.  With `overwrite`, `v` is shifted and exponentiated in place."""
    top = v.max(axis=axis, keepdims=True, initial=LOG_ZERO)
    np.maximum(top, _LOWEST, out=top)  # a slice of LOG_ZERO shifts by a finite top
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.subtract(v, top, out=v if overwrite else None)
        return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + top.squeeze(axis)


def log_array(v):
    """Elementwise log of a non-negative array, LOG_ZERO at 0 without a warning."""
    return np.log(v, out=np.full(v.shape, LOG_ZERO), where=v != 0)
