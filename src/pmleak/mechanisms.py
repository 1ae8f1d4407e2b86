"""Privacy mechanisms: finite-output channels and the Laplace family.

Includes l1-sensitivity, noise calibration, and differential-privacy level
computation.  Continuous-output mechanisms are represented by their
densities and evaluated pointwise; no discretization of the output space
is performed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .logdomain import LOG_ZERO, LogReal, log_array, log_sum_exp_array
from .probability import ENUMERATION_LIMIT, require_enumerable

ROW_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteMechanism:
    """Conditional output law P(y | x) over finite alphabets, rows in log domain."""

    x_labels: tuple
    y_labels: tuple
    logp: np.ndarray  # shape (|X|, |Y|), each row a distribution

    def __post_init__(self):
        m = np.asarray(self.logp, dtype=float)
        if m.shape != (len(self.x_labels), len(self.y_labels)):
            raise ValueError("channel matrix shape mismatch")
        object.__setattr__(self, "logp", m)
        m.flags.writeable = False
        for x, mass in zip(self.x_labels, log_sum_exp_array(m, axis=1)):
            if not abs(mass) <= ROW_TOL:
                raise ValueError(f"channel row for {x!r} has mass exp({mass:.6g})")
        object.__setattr__(self, "_xi", {x: i for i, x in enumerate(self.x_labels)})
        object.__setattr__(self, "_yi", {y: i for i, y in enumerate(self.y_labels)})

    @classmethod
    def from_probs(cls, x_labels, y_labels, rows):
        rows = np.asarray(rows, dtype=float)
        if np.any(rows < 0):
            raise ValueError("negative channel probability")
        return cls(tuple(x_labels), tuple(y_labels), log_array(rows))

    def x_index(self, x) -> int:
        try:
            return self._xi[x]
        except KeyError:
            raise KeyError(f"secret label {x!r} not in channel") from None

    def y_index(self, y) -> int:
        try:
            return self._yi[y]
        except KeyError:
            raise KeyError(f"outcome {y!r} not in channel") from None

    def log_likelihood(self, x, y) -> LogReal:
        return float(self.logp[self.x_index(x), self.y_index(y)])


class LaplaceMechanism:
    """Laplace noise added to a real-valued query: Y | X=x ~ Lap(f(x), b)."""

    def __init__(self, query: Callable, scale: float, sensitivity=None, labels=None):
        if not scale > 0:
            raise ValueError("scale must be positive")
        if not math.isfinite(scale):
            raise ValueError("Laplace scale must be finite")
        self.query = query
        self.scale = float(scale)
        self.sensitivity = None if sensitivity is None else float(sensitivity)
        self.labels = None if labels is None else tuple(labels)

    def center(self, x) -> float:
        return float(self.query(x))

    def log_likelihood(self, x, y) -> LogReal:
        return laplace_log_density(self.center(x), self.scale, y)


def laplace_log_density(center: float, b: float, y: float) -> LogReal:
    """log of the Lap(center, b) density at y."""
    if not b > 0:
        raise ValueError("scale must be positive")
    return -math.log(2.0 * b) - abs(y - center) / b


def randomized_response(p: float) -> FiniteMechanism:
    """Binary channel flipping the input bit with probability p, p in [0, 1/2]."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("flip probability must lie in [0, 1/2]")
    return FiniteMechanism.from_probs((0, 1), (0, 1), [[1.0 - p, p], [p, 1.0 - p]])


def product_mechanism(base: FiniteMechanism, n: int) -> FiniteMechanism:
    """Apply one channel independently to each of n entries; tuples in, tuples out."""
    if n < 1:
        raise ValueError("need at least one entry")
    x_labels = tuple(itertools.product(base.x_labels, repeat=n))
    y_labels = tuple(itertools.product(base.y_labels, repeat=n))
    require_enumerable(len(x_labels) * len(y_labels))
    # cell (xs, ys) adds the base cells of each entry left to right, so one
    # more entry is an outer sum whose rows and columns follow product order
    logp = base.logp
    for _ in range(n - 1):
        logp = (logp[:, None, :, None] + base.logp[None, :, None, :]).reshape(
            logp.shape[0] * base.logp.shape[0], -1)
    return FiniteMechanism(x_labels, y_labels, logp)


def neighbors(x: tuple, alphabet):
    """All databases differing from x in exactly one entry."""
    for i, d in enumerate(x):
        for d2 in alphabet:
            if d2 != d:
                yield x[:i] + (d2,) + x[i + 1:]


def l1_sensitivity(f: Callable, num_entries: int, alphabet) -> float:
    """Largest |f(x) - f(x')| over neighboring databases in alphabet^num_entries."""
    alphabet = tuple(alphabet)
    if len(alphabet) ** num_entries > ENUMERATION_LIMIT:
        raise ValueError("sensitivity requires analytic form")
    values = {x: float(f(x)) for x in itertools.product(alphabet, repeat=num_entries)}
    worst = 0.0
    for x, fx in values.items():
        for x2 in neighbors(x, alphabet):
            worst = max(worst, abs(fx - values[x2]))
    return worst


def laplace_for_query(f: Callable, epsilon: float, num_entries=None, alphabet=None,
                      sensitivity=None) -> LaplaceMechanism:
    """Laplace mechanism calibrated to f: scale b = sensitivity / epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if sensitivity is None:
        if num_entries is None or alphabet is None:
            raise ValueError("sensitivity requires analytic form")
        sensitivity = l1_sensitivity(f, num_entries, alphabet)
    sensitivity = float(sensitivity)
    if not math.isfinite(sensitivity):
        raise ValueError("sensitivity must be finite")
    if sensitivity == 0:
        raise ValueError("degenerate query")
    return LaplaceMechanism(f, sensitivity / epsilon, sensitivity=sensitivity)


def dp_level_laplace(mech: LaplaceMechanism, sensitivity=None) -> float:
    """Exact DP level of a Laplace mechanism: sensitivity / scale."""
    if sensitivity is None:
        sensitivity = mech.sensitivity
    if sensitivity is None:
        raise ValueError("sensitivity requires analytic form")
    return float(sensitivity) / mech.scale


def dp_level_finite(mech: FiniteMechanism, num_entries: int = 1, alphabet=None) -> float:
    """Smallest epsilon for which the channel is epsilon-DP; may be +inf.

    For num_entries > 1 the x labels must be tuples over the entry alphabet,
    and neighbors differ in exactly one position.  With num_entries = 1
    every pair of secrets is neighboring.  For a finite output set the
    per-outcome ratio check is equivalent to the event-wise definition.
    """
    index = {x: i for i, x in enumerate(mech.x_labels)}
    if num_entries == 1:
        pairs = itertools.permutations(mech.x_labels, 2)
    else:
        if alphabet is None:
            alphabet = tuple(sorted({d for x in mech.x_labels for d in x}))
        pairs = ((x, x2) for x in mech.x_labels for x2 in neighbors(x, alphabet)
                 if x2 in index)
    worst = 0.0
    for x, x2 in pairs:
        a = mech.logp[index[x]]
        b = mech.logp[index[x2]]
        mask = a > LOG_ZERO
        if np.any(b[mask] == LOG_ZERO):
            return float("inf")
        if mask.any():
            worst = max(worst, float(np.max(a[mask] - b[mask])))
    return worst


# --- mechanism spec files -------------------------------------------------
#
# JSON schema, one object per file:
#   {"kind": "finite", "x_labels": [...], "y_labels": [...], "rows": [[...], ...]}
#   {"kind": "laplace", "labels": [...], "centers": [...], "scale": b,
#    "sensitivity": d?}
#   {"kind": "randomized_response", "p": 0.25}
# Labels may be scalars or lists (lists become tuples).  An optional
# top-level "prior": [...] gives the CLI's prior over the secret labels.


def _label_from_json(v):
    return tuple(v) if isinstance(v, list) else v


def mechanism_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "finite":
        return FiniteMechanism.from_probs(
            [_label_from_json(x) for x in d["x_labels"]],
            [_label_from_json(y) for y in d["y_labels"]],
            d["rows"],
        )
    if kind == "laplace":
        labels = tuple(_label_from_json(x) for x in d["labels"])
        centers = dict(zip(labels, map(float, d["centers"])))
        if not all(map(math.isfinite, centers.values())):
            raise ValueError("Laplace centers must be finite")
        return LaplaceMechanism(centers.__getitem__, float(d["scale"]),
                                sensitivity=d.get("sensitivity"), labels=labels)
    if kind == "randomized_response":
        return randomized_response(float(d["p"]))
    raise ValueError(f"unknown mechanism kind {kind!r}")

