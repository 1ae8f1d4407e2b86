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

from .logdomain import LOG_ZERO, LogReal, log_array
from .probability import ENUMERATION_LIMIT, NORMALIZATION_TOL, require_enumerable


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
        # unshifted: a valid row's largest entry is at least 1/|Y|
        with np.errstate(over="ignore", divide="ignore"):
            masses = np.log(np.exp(m).sum(axis=1))
        for x, mass in zip(self.x_labels, masses):
            if not abs(mass) <= NORMALIZATION_TOL:
                raise ValueError(f"channel row for {x!r} has mass exp({mass:.6g})")
        object.__setattr__(self, "_xi", {x: i for i, x in enumerate(self.x_labels)})
        object.__setattr__(self, "_yi", {y: i for i, y in enumerate(self.y_labels)})
        if len(self._xi) != len(self.x_labels) or len(self._yi) != len(self.y_labels):
            raise ValueError("duplicate labels")

    @classmethod
    def from_probs(cls, x_labels, y_labels, rows):
        rows = np.asarray(rows, dtype=float)
        if (rows < 0).any():
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

    def rows(self, atoms: np.ndarray) -> np.ndarray:
        """The logp row of every row of an (A, m) label table, each read as
        the tuple x label; logp itself where those are the x labels in order."""
        labels = tuple(map(tuple, atoms.tolist()))
        if labels == self.x_labels:
            return self.logp
        return self.logp[[self.x_index(x) for x in labels]]

    def log_likelihoods(self, atoms: np.ndarray, y) -> np.ndarray:
        """log P(y | x) for every row x of an (A, m) label table."""
        return self.rows(atoms)[:, self.y_index(y)]


class LaplaceMechanism:
    """Laplace noise added to a real-valued query: Y | X=x ~ Lap(f(x), b).

    A query used on a database model's atoms reads its database along the
    last axis, so that one call gives every row of a label table its value
    (``np.sum(x, axis=-1) / m``, not ``sum``).
    """

    def __init__(self, query: Callable, scale: float, sensitivity=None, labels=None):
        _check_scale(scale)
        self.query = query
        self.scale = float(scale)
        self.sensitivity = None if sensitivity is None else float(sensitivity)
        if self.sensitivity is not None and not 0 <= self.sensitivity < math.inf:
            raise ValueError("sensitivity must be finite and at least 0")
        self.labels = None if labels is None else tuple(labels)

    def center(self, x) -> float:
        return float(self.query(x))

    def log_likelihood(self, x, y) -> LogReal:
        return laplace_log_density(self.center(x), self.scale, y)

    def log_likelihoods(self, atoms: np.ndarray, y) -> np.ndarray:
        """log P(y | x) - c, c one constant, for every row x of an (A, m) label
        table: the query applied row-wise, then `relative_log_densities`'
        IEEE steps on the array of centers, which give its bits."""
        centers = np.asarray(self.query(atoms), dtype=float)
        if centers.shape != atoms.shape[:1]:
            raise ValueError(f"query gives shape {centers.shape} on {len(atoms)} atoms, "
                             "not one value per atom")
        dist = np.abs(_in_hull(y, centers.min(), centers.max()) - centers)
        with np.errstate(over="ignore"):  # a quotient past the float range is -inf, as on floats
            return (dist.min() - dist) / self.scale


def _check_epsilon(epsilon: float):
    if not epsilon > 0:  # NaN fails too
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")


def _check_scale(scale: float):
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not math.isfinite(scale):
        raise ValueError("Laplace scale must be finite")


def laplace_log_density(center: float, b: float, y: float) -> LogReal:
    """log of the Lap(center, b) density at y."""
    if not b > 0:
        raise ValueError("scale must be positive")
    if y != y:  # NaN
        raise ValueError("outcome y is NaN")
    return -math.log(2.0 * b) - abs(y - center) / b


def relative_log_densities(centers, b: float, y) -> list:
    """[log Lap(c, b)(y) less the nearest center's, for each center c]: y
    is clipped to the hull of the centers, where the PML is the same, and
    each value is (near - |y - c|) / b, so no full-size |y - c| / b is
    rounded into a PML, which reads only differences."""
    y = _in_hull(y, min(centers), max(centers))
    dist = [abs(y - c) for c in centers]
    nearest = min(dist)
    return [(nearest - d) / b for d in dist]


def _in_hull(y, lo, hi) -> float:
    """A Laplace outcome clipped to the hull [lo, hi] of the centers, where the PML is the same."""
    if (y := float(y)) != y:  # NaN: no center is nearest
        raise ValueError("outcome y is NaN")
    return min(max(y, float(lo)), float(hi))


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
    _check_epsilon(epsilon)
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


def dp_level_laplace(mech: LaplaceMechanism) -> float:
    """Exact DP level of a Laplace mechanism: sensitivity / scale."""
    if mech.sensitivity is None:
        raise ValueError("sensitivity requires analytic form")
    return mech.sensitivity / mech.scale


def dp_level_finite(mech: FiniteMechanism, num_entries: int = 1) -> float:
    """Smallest epsilon for which the channel is epsilon-DP; may be +inf.

    For num_entries > 1 the x labels must be tuples over the entry alphabet,
    and neighbors differ in exactly one position.  With num_entries = 1
    every pair of secrets is neighboring.  For a finite output set the
    per-outcome ratio check is equivalent to the event-wise definition.
    """
    if num_entries < 1:
        raise ValueError("need at least one entry")
    if num_entries == 1:
        pairs = itertools.permutations(mech.x_labels, 2)
    else:
        if not all(isinstance(x, tuple) and len(x) == num_entries for x in mech.x_labels):
            raise ValueError(f"with {num_entries} entries every secret label must be "
                             f"a tuple of {num_entries} symbols")
        # the maximum over neighbors does not depend on the alphabet's order
        alphabet = tuple(dict.fromkeys(d for x in mech.x_labels for d in x))
        pairs = ((x, x2) for x in mech.x_labels for x2 in neighbors(x, alphabet)
                 if x2 in mech._xi)
    worst = 0.0
    for x, x2 in pairs:
        a = mech.logp[mech._xi[x]]
        b = mech.logp[mech._xi[x2]]
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
# Labels may be scalars or lists (lists, nested too, become tuples).  An optional
# top-level "prior": [...] gives the CLI's prior over the secret labels.


def _label_from_json(v):
    """A JSON label as a hashable value: lists, at any depth, become tuples."""
    if isinstance(v, dict):
        raise ValueError(f"a label must be a number, string or list, not {v!r}")
    return tuple(map(_label_from_json, v)) if isinstance(v, list) else v


def spec_field(spec: dict, key: str, item=None):
    """Field `key` of a spec object: a float, or with `item` a list read
    through it; a missing or unreadable field is a ValueError that names it."""
    if key not in spec:
        raise ValueError(f"mechanism spec has no {key!r} field")
    try:
        if item is not None and not isinstance(spec[key], list):
            raise ValueError(f"expected a list, not {spec[key]!r}")
        return float(spec[key]) if item is None else [item(v) for v in spec[key]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"mechanism spec field {key!r}: {exc}") from None


def mechanism_from_dict(d: dict):
    """The mechanism of a spec object (schema above); a malformed spec is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"mechanism spec must be a JSON object, not {d!r}")
    kind = d.get("kind")
    if kind == "finite":
        x_labels = spec_field(d, "x_labels", _label_from_json)
        y_labels = spec_field(d, "y_labels", _label_from_json)
        for key, labels in (("x_labels", x_labels), ("y_labels", y_labels)):
            if not labels:
                raise ValueError(f"mechanism spec field {key!r}: the alphabet is empty")
        rows = spec_field(d, "rows", lambda row: [float(p) for p in row])
        if len(rows) != len(x_labels) or any(len(row) != len(y_labels) for row in rows):
            raise ValueError(f"mechanism spec field 'rows': expected {len(x_labels)} rows of "
                             f"{len(y_labels)} probabilities, not {d['rows']!r}")
        for (i, j), p in np.ndenumerate(rows):
            if not math.isfinite(p):  # json reads NaN and Infinity
                raise ValueError(f"mechanism spec field 'rows': rows[{i}][{j}] is {p}, "
                                 "not a finite probability")
        return FiniteMechanism.from_probs(x_labels, y_labels, rows)
    if kind == "laplace":
        labels = spec_field(d, "labels", _label_from_json)
        centers = spec_field(d, "centers", float)
        if len(centers) != len(labels) or not all(map(math.isfinite, centers)):
            raise ValueError(f"Laplace centers must be finite, one per label: {centers!r} "
                             f"for {len(labels)} labels")
        sensitivity = None if d.get("sensitivity") is None else spec_field(d, "sensitivity")
        return LaplaceMechanism(dict(zip(labels, centers)).__getitem__, spec_field(d, "scale"),
                                sensitivity=sensitivity, labels=labels)
    if kind == "randomized_response":
        return randomized_response(spec_field(d, "p"))
    raise ValueError(f"unknown mechanism kind {kind!r}")
