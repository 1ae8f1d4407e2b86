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

from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_sum_exp, log_sum_exp_array
from .mechanisms import FiniteMechanism, LaplaceMechanism
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


def pml_batch(log_prior, lls, axis, _pad=None):
    """`pml` along `axis` of arrays of log P(x) and log P(y | x), which
    broadcast: (PML, log P(y)), with PML 0 where P(y) = 0 and floored at 0.
    `_pad` marks the entries whose joint log P(x) + log P(y | x) the caller
    knows is LOG_ZERO, as `log_sum_exp_array`'s does."""
    log_py = log_sum_exp_array(log_prior + lls, axis, _pad)
    value = np.subtract(lls.max(axis=axis), log_py, out=np.zeros_like(log_py),
                        where=log_py > LOG_ZERO)
    return np.maximum(value, 0.0, out=value), log_py


def _report(prior: FiniteDistribution, lls) -> LeakageReport:
    # argmax ties broken by lowest label index
    best = max(range(len(lls)), key=lambda i: (lls[i], -i))
    return LeakageReport(pml=pml(prior, lls), argmax_label=prior.labels[best],
                         eps_max=eps_max(prior))


def pml_report(prior: FiniteDistribution, mech, y) -> LeakageReport:
    """PML of mechanism outcome y under the given prior, as a full report.

    A Laplace outcome is clipped to the hull of the prior's centers, where
    the PML is the same, and its log-likelihoods are taken relative to the
    nearest center's, so no large |y - center| / b is rounded into the PML."""
    if not isinstance(mech, LaplaceMechanism):
        return _report(prior, [mech.log_likelihood(x, y) for x in prior.labels])
    centers = [mech.center(x) for x in prior.labels]
    y = min(max(float(y), min(centers)), max(centers))
    dist = [abs(y - c) for c in centers]
    return _report(prior, [(min(dist) - d) / mech.scale for d in dist])


def entry_channel(model: DatabaseModel, mech, i: int, y) -> tuple:
    """(law of entry i, [log P(y | D_i = d) for each symbol d]) in one array
    pass over the atoms: the model gives every atom's log-mass and the
    mechanism every atom's log-likelihood, and for each symbol d the atoms
    with D_i = d give the law of entry i and weight their likelihoods into
    the induced channel, both reduced by the scalar `log_sum_exp`.  Atoms
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


def _log_sum_exp_distinct(v) -> float:
    """`log_sum_exp` of a 1-D array, over its distinct values with counts:
    one sort, then each run of equal neighbours by the index of its last."""
    v = np.sort(v)
    ends = [*(v[1:] != v[:-1]).nonzero()[0].tolist(), v.size - 1]
    return log_sum_exp(v[ends].tolist(), [b - a for a, b in zip([-1, *ends], ends)])


def pml_entry(model: DatabaseModel, mech, i: int, y) -> LeakageReport:
    """PML of database entry i at mechanism outcome y."""
    prior, lls = entry_channel(model, mech, i, y)
    return _report(prior, lls)


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


#: entries of the largest array one block of priors scores (8 MB of floats)
_BLOCK_ENTRIES = 1 << 20


def _product_priors(alphabet: tuple, num_entries: int, prior_samples: int,
                    grid_resolution: int, seed: int, grid_span) -> np.ndarray:
    """The checked product priors as a (P, n, k) array of marginals: floored
    uniform Dirichlet draws, then for a binary alphabet the iid grid rows
    (1 - q, q), each row renormalized."""
    k = len(alphabet)
    if k == 0:
        raise ValueError("empty alphabet")
    if len(set(alphabet)) != k:
        raise ValueError("duplicate labels")
    if num_entries < 1:
        raise ValueError("product model needs at least one entry")
    rng = np.random.default_rng(seed)
    probs = np.clip(rng.dirichlet(np.ones(k), size=(prior_samples, num_entries)),
                    PRIOR_FLOOR, None)
    if k == 2 and grid_resolution > 0:
        q = np.linspace(grid_span[0], grid_span[1], grid_resolution)
        grid = np.stack([1.0 - q, q], axis=1)[:, None, :]
        probs = np.concatenate([probs, np.broadcast_to(grid, (grid_resolution, num_entries, 2))])
    if len(probs) == 0:
        raise ValueError("no priors to check")
    if not np.all(probs >= 0):  # NaN fails too
        raise ValueError("negative probability")
    probs = probs / probs.sum(axis=2, keepdims=True)
    if not np.all(probs > 0):
        raise ValueError("PML requires full-support prior")
    return probs


def _block_pmls(log_prior, digits, order, channel):
    """`_entry_pmls` on one block of priors, given as log marginals."""
    n = log_prior.shape[1]
    # left to right from 0, as ProductModel.log_masses sums the marginals;
    # the prior axis last, so each reduction runs over rows of Y P floats
    log_mass = sum(log_prior[:, j, digits[:, j]] for j in range(n)).T
    mass = log_mass[order]                                            # (n, k, A/k, P)
    law = log_sum_exp_array(mass, 2)                                  # log P(D_i = d)
    cond = log_sum_exp_array((mass - law[:, :, None])[..., None, :] + channel[order][..., None], 2)
    return pml_batch(law[:, :, None], cond, axis=1)[0].transpose(2, 0, 1)  # over d: (P, n, Y)


def _entry_pmls(mech: FiniteMechanism, alphabet: tuple, probs) -> np.ndarray:
    """PML of every (prior, entry, outcome) as a (P, n, |Y|) array, for the
    product priors with marginals probs (P, n, k) over alphabet: the
    batched `pml(*entry_channel(...))`.  Atoms are the rows of
    `atom_table` and read their channel rows by label, as in `entry_channel`."""
    _, n, k = probs.shape
    digits = atom_table(alphabet, n)
    channel = mech.rows(atom_labels(alphabet, n))
    # order[i, d]: the atoms with D_i = d, in table order
    order = np.argsort(digits, axis=0, kind="stable").T.reshape(n, k, -1)
    log_prior = np.log(probs)
    block = max(1, _BLOCK_ENTRIES // (n * channel.size))  # (n, k, A/k, Y, P) per block
    return np.concatenate([_block_pmls(log_prior[start:start + block], digits, order, channel)
                           for start in range(0, len(probs), block)])


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
    alphabet = tuple(alphabet)
    probs = _product_priors(alphabet, num_entries, prior_samples, grid_resolution,
                            seed, grid_span)
    values = _entry_pmls(mech, alphabet, probs)
    # the first maximum in (prior, entry, outcome) order
    p, i, y = (int(v) for v in np.unravel_index(np.argmax(values), values.shape))
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
