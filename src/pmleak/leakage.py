"""Pointwise maximal leakage (PML) core.

PML of an outcome y is the order-infinity Renyi divergence of the posterior
over the secret from its prior, which for a full-support prior reduces to

    log max_x P(y | x) / P(y).

Values are reported in nats.  Also provides the per-entry leakage of a
database model under a mechanism, the universal upper bound log(1/min
prior mass), and a numerical check of the DP <-> per-entry-PML equivalence
on product distributions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .logdomain import _LOWEST, LOG_ZERO, log_sum_exp
from .mechanisms import FiniteMechanism, LaplaceMechanism, relative_log_densities
from .probability import (DatabaseModel, FiniteDistribution, ProductModel, atom_labels,
                          atom_table)

#: smallest mass of a sampled prior symbol, before renormalizing
PRIOR_FLOOR = 1e-3


@dataclass(frozen=True)
class LeakageReport:
    """PML of one outcome, with the prior's leakage capacity for context."""

    pml: float
    argmax_label: object
    eps_max: float


def eps_max(prior: FiniteDistribution) -> float:
    """log(1 / min prior mass): the leakage of releasing the secret unperturbed."""
    prior.require_full_support("eps_max undefined for zero-probability atom")
    return -min(prior.logp)


def pml(prior: FiniteDistribution, log_likelihoods) -> float:
    """PML at one outcome, given log P(y | x) for every x in prior order.

    Outcomes with zero marginal density leak nothing: conditioning on them
    equals no conditioning, so the value is 0.  PML is at least 0 under a
    normalized prior, so a difference that rounds below 0 reads 0.
    """
    prior.require_full_support("PML requires full-support prior")
    lls = [float(v) for v in log_likelihoods]
    if len(lls) != prior.size:
        raise ValueError("likelihood vector length mismatch")
    log_py = log_sum_exp([ll + lp for ll, lp in zip(lls, prior.logp)])
    if log_py == LOG_ZERO:
        return 0.0
    return max(max(lls) - log_py, 0.0)  # NaN stays NaN


def _report(prior: FiniteDistribution, lls) -> LeakageReport:
    # argmax ties broken by lowest label index
    best = lls.index(max(lls))
    return LeakageReport(pml=pml(prior, lls), argmax_label=prior.labels[best],
                         eps_max=eps_max(prior))


def pml_report(prior: FiniteDistribution, mech, y) -> LeakageReport:
    """PML of mechanism outcome y under the given prior, as a full report; a
    Laplace mechanism's log-likelihoods are the prior centers' `relative_log_densities`."""
    if not isinstance(mech, LaplaceMechanism):
        return _report(prior, [mech.log_likelihood(x, y) for x in prior.labels])
    return _report(prior, relative_log_densities([mech.center(x) for x in prior.labels],
                                                 mech.scale, y))


def entry_channel(model: DatabaseModel, mech, i: int, y) -> tuple:
    """(law of entry i, [log P(y | D_i = d) - c for each d]), c one constant
    that a PML cancels, in one array pass over the atoms: the model gives
    every atom's log-mass and the mechanism its log-likelihood less c; the
    atoms with D_i = d give the law of entry i and weight their likelihoods
    into the induced channel, both reduced by the scalar `log_sum_exp`.  Atoms
    share few distinct values (the correlated model's depend only on the
    Hamming weight), so each reduction runs over the distinct values with
    their counts, which gives the bits of the reduction over every atom."""
    model._check_index(i)
    digits = atom_table(model.alphabet, model.num_entries)
    log_mass = model.log_masses(digits)
    entry = digits[:, i].copy()  # so the table is freed before the labels are built
    del digits
    labels = atom_labels(model.alphabet, model.num_entries)
    live = log_mass > LOG_ZERO
    if not live.all():  # copy nothing when every atom has mass
        entry, labels, log_mass = entry[live], labels[live], log_mass[live]
    lls = mech.log_likelihoods(labels, y)
    law, cond = [], []
    for d in range(len(model.alphabet)):
        atoms = entry == d
        lp = log_mass[atoms]
        lcond = _log_sum_exp_distinct(lp) if lp.size else LOG_ZERO
        law.append(lcond)
        cond.append(_log_sum_exp_distinct(lp - lcond + lls[atoms]) if lp.size else LOG_ZERO)
    return FiniteDistribution(model.alphabet, tuple(law)), cond


#: most values `_log_sum_exp_distinct` sums without finding the distinct ones
_DIRECT_MAX = 32


def _log_sum_exp_distinct(v) -> float:
    """`log_sum_exp` of a 1-D array, over its distinct values with counts.
    Up to _DIRECT_MAX values are summed as they are, which costs less than
    finding the distinct ones; by the counts' rule the bits are the same."""
    if v.size <= _DIRECT_MAX:
        return log_sum_exp(v.tolist())
    distinct, counts = np.unique(v, return_counts=True)
    return log_sum_exp(distinct.tolist(), counts.tolist())


def pml_entry(model: DatabaseModel, mech, i: int, y) -> LeakageReport:
    """PML of database entry i at outcome y."""
    return _report(*entry_channel(model, mech, i, y))


@dataclass(frozen=True)
class Theorem2Report:
    """Numerical supremum of per-entry PML over sampled/grid product priors.

    The supremum over all full-support product priors may only be
    approached at the simplex boundary, so this is an estimate with a
    witness, not an exact optimum.
    """

    epsilon_dp: float
    max_observed_pml: float
    witness_prior: tuple
    witness_entry: int
    witness_outcome: object
    forward_ok: bool
    reference_gap: float  # |batch - scalar| at the witness, replayed through pml


#: floats in the largest array of one block (512 KB): the (A, Y + 1, P) joint
#: of a block of priors here, an (nx, guesses, T) table of a chunk of trials in `oracle`
_BLOCK_ENTRIES = 1 << 16


def _require_integers(**values):
    """Reject an argument that is not an integer (a bool is not one), by name."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, not {value!r}")


def _product_priors(alphabet: tuple, num_entries: int, prior_samples: int,
                    grid_resolution: int, seed: int, grid_span) -> np.ndarray:
    """The checked product priors as a (P, n, k) array of marginals, stored
    prior axis last: floored uniform Dirichlet draws, then for a binary
    alphabet the iid grid rows (1 - q, q), each row renormalized."""
    _require_integers(num_entries=num_entries, prior_samples=prior_samples,
                      grid_resolution=grid_resolution, seed=seed)
    for name, count in (("prior_samples", prior_samples), ("grid_resolution", grid_resolution),
                        ("seed", seed)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, not {count!r}")
    k = len(alphabet)
    if k == 0:
        raise ValueError("empty alphabet")
    if len(set(alphabet)) != k:
        raise ValueError("duplicate labels")
    if num_entries < 1:
        raise ValueError("product model needs at least one entry")
    grid = grid_resolution if k == 2 else 0
    if grid and not all(q == 0 or np.finfo(float).tiny <= q <= 1 for q in grid_span):  # not NaN
        raise ValueError(f"grid_span must lie within [0, 1], none subnormal: {tuple(grid_span)!r}")
    if prior_samples + grid == 0:
        raise ValueError("no priors to check")
    probs = np.empty((num_entries, k, prior_samples + grid))
    draws = np.random.default_rng(seed).dirichlet(np.ones(k), size=(prior_samples, num_entries))
    np.maximum(draws, PRIOR_FLOOR, out=draws)
    draws /= draws.sum(axis=2, keepdims=True)
    probs[..., :prior_samples] = draws.transpose(1, 2, 0)
    if grid:
        rows = probs[..., prior_samples:]
        rows[:, 1] = np.linspace(grid_span[0], grid_span[1], grid)
        np.subtract(1.0, rows[:, 1], out=rows[:, 0])
        rows /= rows[:, :1] + rows[:, 1:]
    if not (probs > 0).all():
        raise ValueError("PML requires full-support prior")
    return probs.transpose(2, 0, 1)


def _entry_pmls(mech: FiniteMechanism, alphabet: tuple, probs) -> np.ndarray:
    """PML of every (prior, entry, outcome) as a (P, n, |Y|) array, for the
    product priors with marginals probs (P, n, k) over alphabet: the batched
    `pml(*entry_channel(...))`, channel rows read by label.  A block's joint
    P(a) P(y | a), with a last outcome of likelihood 1 for the masses, is
    shifted by its maximum over atoms and exponentiated once; digit i of
    `atom_table` is axis i of its (k,)*n reshape, so entry i's groups
    D_i = d, and its law, are sums over the other entries' axes."""
    size, n, k = probs.shape
    rows = mech.rows(atom_labels(alphabet, n))
    channel = np.concatenate((rows, np.zeros((len(rows), 1))), axis=1)  # (A, Y + 1)
    log_prior = np.log(probs).transpose(1, 2, 0)  # (n, k, P), as `_product_priors` stores it
    values = np.zeros((size, n, rows.shape[1]))
    block = max(1, _BLOCK_ENTRIES // channel.size)  # (A, Y + 1, P) per block
    for start in range(0, size, block):
        mass = log_prior[0, :, start:start + block]
        for lp in log_prior[1:, :, start:start + block]:  # left to right, as log_masses
            mass = mass[..., None, :] + lp                            # (k,)*j + (P,)
        joint = mass.reshape(len(rows), 1, -1) + channel[..., None]
        top = joint.max(axis=0, initial=_LOWEST)  # a zero column shifts by a finite top
        joint = np.exp(np.subtract(joint, top, out=joint), out=joint).reshape((k,) * n + top.shape)
        groups = np.empty((n, k) + top.shape)                         # (n, k, Y + 1, P)
        for i in range(n):
            joint.sum(axis=tuple(j for j in range(n) if j != i), out=groups[i])
        total = groups[:, :, :-1].sum(axis=1)
        out = values[start:start + block].transpose(1, 2, 0)
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0, and -inf - -inf
            np.log(groups, out=groups)
            groups[:, :, -1:] += top[-1]                              # log P(D_i = d)
            ratio = groups[:, :, :-1] - groups[:, :, -1:]
            np.subtract(ratio.max(axis=1), np.log(total), out=out)
        out[total == 0] = 0.0  # where P(y) = 0
    return np.maximum(values, 0.0, out=values)


def theorem2_check(mech: FiniteMechanism, epsilon_dp: float, num_entries: int,
                   alphabet, prior_samples: int = 50, grid_resolution: int = 25,
                   seed: int = 0, grid_span=(0.01, 0.99)) -> Theorem2Report:
    """Estimate sup over product priors, outcomes, entries of per-entry PML.

    The forward direction of the DP equivalence says the estimate never
    exceeds epsilon_dp for an epsilon_dp-DP mechanism.  Every prior, entry
    and outcome is scored in one array pass; the witness is replayed
    through the scalar `pml(*entry_channel(...))`, and `reference_gap`
    reports how far the two disagree there.
    """
    if not epsilon_dp >= 0:  # NaN fails too
        raise ValueError(f"epsilon_dp must be at least 0, not {epsilon_dp!r}")
    alphabet = tuple(alphabet)
    probs = _product_priors(alphabet, num_entries, prior_samples, grid_resolution,
                            seed, grid_span)
    values = _entry_pmls(mech, alphabet, probs)
    # the first maximum in (prior, entry, outcome) order
    p, i, y = map(int, np.unravel_index(values.argmax(), values.shape))
    best = float(values[p, i, y])
    spec = tuple(tuple(row) for row in probs[p].tolist())
    model = ProductModel(tuple(
        FiniteDistribution.from_probs(alphabet, row, normalize=True) for row in spec))
    outcome = mech.y_labels[y]
    scalar = pml(*entry_channel(model, mech, i, outcome))
    return Theorem2Report(
        epsilon_dp=epsilon_dp,
        max_observed_pml=best,
        witness_prior=spec,
        witness_entry=i,
        witness_outcome=outcome,
        forward_ok=best <= epsilon_dp + 1e-9,
        reference_gap=abs(best - scalar),
    )
