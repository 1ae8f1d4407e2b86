"""Finite-alphabet probability objects in log domain.

Provides distributions over labeled finite alphabets, explicit joints, and
database models (joint laws over n entries from a common alphabet) with
marginal and conditional queries.  Structured models answer those queries
analytically; anything else falls back to enumeration below a hard cutoff.
"""

from __future__ import annotations

import itertools
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
        probs = [float(p) for p in probs]
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        if normalize:
            total = math.fsum(probs)
            if total <= 0:
                raise ValueError("cannot normalize zero mass")
            probs = [p / total for p in probs]
        logp = tuple(math.log(p) if p > 0 else LOG_ZERO for p in probs)
        return cls(tuple(labels), logp)

    @classmethod
    def uniform(cls, labels):
        labels = tuple(labels)
        return cls(labels, (-math.log(len(labels)),) * len(labels))

    @classmethod
    def bernoulli(cls, p):
        """Binary distribution with labels (0, 1) and P(1) = p."""
        return cls.from_probs((0, 1), (1.0 - p, p))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_support(self) -> bool:
        return all(lp > LOG_ZERO for lp in self.logp)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in alphabet") from None

    def logprob(self, label) -> LogReal:
        return self.logp[self.index(label)]

    def prob(self, label) -> float:
        return math.exp(self.logprob(label))

    def probs(self) -> np.ndarray:
        return np.exp(np.asarray(self.logp))

    def require_full_support(self, message="distribution lacks full support"):
        if not self.full_support:
            raise ValueError(message)


class DatabaseModel(ABC):
    """Joint law over ``num_entries`` entries drawn from a common alphabet.

    Subclasses either materialize the joint (ExplicitJointModel) or answer
    marginal/conditional queries analytically (ProductModel and the
    correlated construction), which is what makes large-n asymptotics
    tractable.
    """

    @property
    @abstractmethod
    def alphabet(self) -> tuple: ...

    @property
    @abstractmethod
    def num_entries(self) -> int: ...

    @abstractmethod
    def joint_logp(self, x: tuple) -> LogReal:
        """Log-mass of one full database tuple."""

    def _check_index(self, i):
        if not 0 <= i < self.num_entries:
            raise IndexError(f"entry index {i} out of range [0, {self.num_entries})")

    def _require_enumerable(self, count):
        if count > ENUMERATION_LIMIT:
            raise ValueError("enumeration cutoff exceeded")

    def atoms(self) -> Iterator[tuple]:
        """All (database tuple, log-mass) pairs, in lexicographic order."""
        self._require_enumerable(len(self.alphabet) ** self.num_entries)
        for x in itertools.product(self.alphabet, repeat=self.num_entries):
            yield x, self.joint_logp(x)

    def entry_marginal(self, i) -> FiniteDistribution:
        self._check_index(i)
        buckets = {d: [] for d in self.alphabet}
        for x, lp in self.atoms():
            if lp > LOG_ZERO:
                buckets[x[i]].append(lp)
        logs = tuple(log_sum_exp(v) if v else LOG_ZERO for v in buckets.values())
        return FiniteDistribution(tuple(self.alphabet), logs)

    def conditional_rest(self, i, d) -> FiniteDistribution:
        """Law of the remaining entries given entry i equals d.

        Labels of the result are tuples over the other positions, in their
        original order.
        """
        self._check_index(i)
        if d not in self.alphabet:
            raise KeyError(f"symbol {d!r} not in alphabet")
        lcond = self.entry_marginal(i).logprob(d)
        if lcond == LOG_ZERO:
            raise ValueError("unsupported condition")
        labels, logs = [], []
        for x, lp in self.atoms():
            if x[i] == d:
                labels.append(x[:i] + x[i + 1:])
                logs.append(lp - lcond)
        return FiniteDistribution(tuple(labels), tuple(logs))


@dataclass(frozen=True)
class ProductModel(DatabaseModel):
    """Independent entries; marginals and conditionals are analytic."""

    marginals: tuple[FiniteDistribution, ...]

    def __post_init__(self):
        if not self.marginals:
            raise ValueError("product model needs at least one entry")
        base = self.marginals[0].labels
        if any(m.labels != base for m in self.marginals):
            raise ValueError("entries must share one alphabet")

    @classmethod
    def iid(cls, marginal: FiniteDistribution, n: int):
        return cls((marginal,) * n)

    @property
    def alphabet(self):
        return self.marginals[0].labels

    @property
    def num_entries(self):
        return len(self.marginals)

    def joint_logp(self, x):
        if len(x) != self.num_entries:
            raise ValueError("tuple length mismatch")
        return sum(m.logprob(d) for m, d in zip(self.marginals, x))

    def entry_marginal(self, i):
        self._check_index(i)
        return self.marginals[i]

    def conditional_rest(self, i, d):
        # independence: conditioning changes nothing beyond dropping entry i
        self._check_index(i)
        if self.marginals[i].logprob(d) == LOG_ZERO:
            raise ValueError("unsupported condition")
        rest = self.marginals[:i] + self.marginals[i + 1:]
        if not rest:
            return FiniteDistribution(((),), (0.0,))
        self._require_enumerable(len(self.alphabet) ** len(rest))
        labels, logs = [], []
        for combo in itertools.product(self.alphabet, repeat=len(rest)):
            labels.append(combo)
            logs.append(sum(m.logprob(s) for m, s in zip(rest, combo)))
        return FiniteDistribution(tuple(labels), tuple(logs))


class ExplicitJointModel(DatabaseModel):
    """Fully materialized joint table over the database alphabet."""

    def __init__(self, alphabet, num_entries, table):
        self._alphabet = tuple(alphabet)
        self._num_entries = int(num_entries)
        self._require_enumerable(len(self._alphabet) ** self._num_entries)
        self._table = dict(table)
        for x in self._table:
            if len(x) != self._num_entries or any(d not in self._alphabet for d in x):
                raise ValueError(f"atom {x!r} outside the database alphabet")
        _check_mass(list(self._table.values()), what="joint")

    @classmethod
    def from_model(cls, model: DatabaseModel):
        return cls(model.alphabet, model.num_entries,
                   {x: lp for x, lp in model.atoms() if lp > LOG_ZERO})

    @property
    def alphabet(self):
        return self._alphabet

    @property
    def num_entries(self):
        return self._num_entries

    def joint_logp(self, x):
        return self._table.get(tuple(x), LOG_ZERO)

