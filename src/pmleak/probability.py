"""Finite-alphabet probability objects in log domain.

Provides distributions over labeled finite alphabets, explicit joints, and
database models (joint laws over n entries from a common alphabet).  Atoms
below a hard cutoff are listed as one table of alphabet indices or of labels,
each column written by broadcasting; every model gives all their log-masses
in one call, and `leakage.entry_channel` computes one entry's law and channel.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .logdomain import LOG_ZERO, LogReal, log_sum_exp

#: default absolute tolerance for normalization checks (log-domain mass vs 0)
NORMALIZATION_TOL = 1e-9

#: largest number of atoms any enumeration-based query will materialize
ENUMERATION_LIMIT = 1 << 16


def require_enumerable(count):
    """Reject a query that would materialize more than ENUMERATION_LIMIT atoms."""
    if count > ENUMERATION_LIMIT:
        raise ValueError("enumeration cutoff exceeded")


def _product_table(values: np.ndarray, num_entries: int) -> np.ndarray:
    """The rows of itertools.product(values, repeat=num_entries) as one (A,
    num_entries) array of values' dtype, stored column by column: column j
    is the values broadcast into its (k^j, k, k^(num_entries-1-j)) view."""
    k = len(values)
    require_enumerable(k ** num_entries)
    table = np.empty((num_entries, k ** num_entries), dtype=values.dtype)
    for j, column in enumerate(table):
        column.reshape(k ** j, k, k ** (num_entries - 1 - j))[...] = values[:, None]
    return table.T


def atom_table(alphabet, num_entries: int) -> np.ndarray:
    """The alphabet^num_entries atoms as an (A, num_entries) table of
    alphabet indices, in itertools.product order."""
    k = len(alphabet)
    return _product_table(np.arange(k, dtype=np.min_scalar_type(max(k - 1, 0))), num_entries)


def atom_labels(alphabet, num_entries: int) -> np.ndarray:
    """The `atom_table` with each index replaced by its label: a numeric
    array for a numeric alphabet, else an object array."""
    labels = np.asarray(alphabet)
    if labels.ndim != 1 or labels.dtype.kind not in "biuf":
        labels = np.fromiter(alphabet, dtype=object, count=len(alphabet))
    return _product_table(labels, num_entries)


def _check_mass(logp, what="distribution"):
    total = log_sum_exp(logp)
    if not abs(total) <= NORMALIZATION_TOL:
        raise ValueError(f"{what} mass is exp({total:.6g}), "
                         f"outside tolerance {NORMALIZATION_TOL:g}")


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability distribution over a labeled finite alphabet, in log domain."""

    labels: tuple
    logp: tuple[LogReal, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("empty alphabet")
        if len(self.labels) != len(self.logp):
            raise ValueError("labels and logp length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        if any(lp > NORMALIZATION_TOL for lp in self.logp):
            raise ValueError("log-probability above 0")
        _check_mass(self.logp)

    @classmethod
    def from_probs(cls, labels, probs, normalize=False):
        labels, probs = tuple(labels), [float(p) for p in probs]
        for label, p in zip(labels, probs):
            if not math.isfinite(p):
                raise ValueError(f"probability for {label!r} is {p}")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        if normalize:
            try:
                total = math.fsum(probs)
            except OverflowError:  # a sum past the float range: scale by the largest first
                top = max(probs)
                probs = [p / top for p in probs]
                total = math.fsum(probs)
            if total <= 0:
                raise ValueError("cannot normalize zero mass")
            probs = [p / total for p in probs]
        logp = tuple(math.log(p) if p > 0 else LOG_ZERO for p in probs)
        return cls(labels, logp)

    @classmethod
    def uniform(cls, labels):
        labels = tuple(labels)
        return cls(labels, (-math.log(len(labels)),) * len(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in alphabet") from None

    def logprob(self, label) -> LogReal:
        return self.logp[self.index(label)]

    def probs(self) -> np.ndarray:
        return np.exp(np.asarray(self.logp))

    def require_full_support(self, message="distribution lacks full support"):
        if LOG_ZERO in self.logp:  # logp holds no NaN: its mass is checked
            raise ValueError(message)


class DatabaseModel(ABC):
    """Joint law over ``num_entries`` entries drawn from a common alphabet.

    A model gives the log-mass of every row of an `atom_table` in one call:
    read from one dense vector (ExplicitJointModel) or computed from a
    formula (ProductModel and the correlated construction).
    """

    @property
    @abstractmethod
    def alphabet(self) -> tuple: ...

    @property
    @abstractmethod
    def num_entries(self) -> int: ...

    @abstractmethod
    def log_masses(self, digits: np.ndarray) -> np.ndarray:
        """Log-mass of every row of an `atom_table`."""

    def _check_index(self, i):
        if not 0 <= i < self.num_entries:
            raise IndexError(f"entry index {i} out of range [0, {self.num_entries})")

    def atoms(self) -> Iterator[tuple]:
        """All (database tuple, log-mass) pairs, in lexicographic order."""
        # no library caller; kept because perfbench/tracer.py wraps it by name
        return zip(map(tuple, atom_labels(self.alphabet, self.num_entries).tolist()),
                   self.log_masses(atom_table(self.alphabet, self.num_entries)).tolist())


@dataclass(frozen=True)
class ProductModel(DatabaseModel):
    """Independent entries: each atom's mass is the product of the marginals."""

    marginals: tuple[FiniteDistribution, ...]

    def __post_init__(self):
        if not self.marginals:
            raise ValueError("product model needs at least one entry")
        base = self.marginals[0].labels
        if any(m.labels != base for m in self.marginals):
            raise ValueError("entries must share one alphabet")

    @property
    def alphabet(self):
        return self.marginals[0].labels

    @property
    def num_entries(self):
        return len(self.marginals)

    def log_masses(self, digits):
        # the marginals summed left to right from 0
        return sum(np.asarray(m.logp)[digits[:, j]] for j, m in enumerate(self.marginals))

    def conditional_rest(self, i, d):
        # no library caller; kept because perfbench/tracer.py wraps it by name.
        # Independence: conditioning changes nothing beyond dropping entry i
        self._check_index(i)
        if self.marginals[i].logprob(d) == LOG_ZERO:
            raise ValueError("unsupported condition")
        rest = self.marginals[:i] + self.marginals[i + 1:]
        if not rest:
            return FiniteDistribution(((),), (0.0,))
        labels, logs = zip(*ProductModel(rest).atoms())
        return FiniteDistribution(labels, logs)


class ExplicitJointModel(DatabaseModel):
    """Fully materialized joint: one log-mass per atom, in `atom_table` order."""

    def __init__(self, alphabet, num_entries, log_mass):
        self._alphabet = tuple(alphabet)
        self._num_entries = int(num_entries)
        count = len(self._alphabet) ** self._num_entries
        require_enumerable(count)
        self._logp = np.array(log_mass, dtype=float)
        if self._logp.shape != (count,):
            raise ValueError(f"a joint over {count} atoms needs {count} log-masses, "
                             f"not an array of shape {self._logp.shape}")
        _check_mass(self._logp.tolist(), what="joint")

    @classmethod
    def from_model(cls, model: DatabaseModel):
        digits = atom_table(model.alphabet, model.num_entries)
        return cls(model.alphabet, model.num_entries, model.log_masses(digits))

    @property
    def alphabet(self):
        return self._alphabet

    @property
    def num_entries(self):
        return self._num_entries

    def log_masses(self, digits):
        grid = (len(self._alphabet),) * self._num_entries
        return self._logp[np.ravel_multi_index(tuple(digits.T), grid)]
