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

import itertools
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_sum_exp
from .mechanisms import FiniteMechanism
from .probability import ENUMERATION_LIMIT, DatabaseModel, FiniteDistribution, ProductModel


@dataclass(frozen=True)
class LeakageReport:
    """PML of one outcome, with the prior's leakage capacity for context."""

    y: object
    pml: float
    argmax_label: object
    eps_max: float
    context: str


def eps_max(prior: FiniteDistribution) -> float:
    """log(1 / min prior mass): the leakage of releasing the secret unperturbed."""
    prior.require_full_support("eps_max undefined for zero-probability atom")
    return -min(prior.logp)


def pml(prior: FiniteDistribution, log_likelihoods) -> float:
    """PML at one outcome, given log P(y | x) for every x in prior order.

    Outcomes with zero marginal density leak nothing: conditioning on them
    equals no conditioning, so the value is 0.
    """
    prior.require_full_support("PML requires full-support prior")
    lls = [float(v) for v in log_likelihoods]
    if len(lls) != prior.size:
        raise ValueError("likelihood vector length mismatch")
    log_py = log_sum_exp([ll + lp for ll, lp in zip(lls, prior.logp)])
    if log_py == LOG_ZERO:
        return 0.0
    return max(lls) - log_py


def _report(prior: FiniteDistribution, lls, y, context) -> LeakageReport:
    # argmax ties broken by lowest label index
    best = max(range(len(lls)), key=lambda i: (lls[i], -i))
    return LeakageReport(y=y, pml=pml(prior, lls), argmax_label=prior.labels[best],
                         eps_max=eps_max(prior), context=context)


def pml_report(prior: FiniteDistribution, mech, y) -> LeakageReport:
    """PML of mechanism outcome y under the given prior, as a full report."""
    lls = [mech.log_likelihood(x, y) for x in prior.labels]
    return _report(prior, lls, y, "secret")


def entry_channel(model: DatabaseModel, mech, i: int, y) -> tuple:
    """(law of entry i, [log P(y | D_i = d) for each symbol d]) in one pass
    over the atoms: each atom joins the bucket of x[i], whose masses give the
    law of entry i and weight its likelihoods into the induced channel."""
    model._check_index(i)
    buckets = {d: [] for d in model.alphabet}
    for x, lp in model.atoms():
        if lp > LOG_ZERO:
            buckets[x[i]].append((lp, mech.log_likelihood(x, y)))
    law, lls = [], []
    for atoms in buckets.values():
        lcond = log_sum_exp([lp for lp, _ in atoms]) if atoms else LOG_ZERO
        law.append(lcond)
        lls.append(log_sum_exp([lp - lcond + ll for lp, ll in atoms]) if atoms else LOG_ZERO)
    return FiniteDistribution(model.alphabet, tuple(law)), lls


def pml_entry(model: DatabaseModel, mech, i: int, y) -> LeakageReport:
    """PML of database entry i at mechanism outcome y."""
    prior, lls = entry_channel(model, mech, i, y)
    return _report(prior, lls, y, f"entry-{i}")


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


#: smallest mass of a sampled prior symbol, before renormalizing
_PRIOR_FLOOR = 1e-3

#: entries of the largest array one block of priors scores (8 MB of floats)
_BLOCK_ENTRIES = 1 << 20


def _lse(v, axis):
    """log-sum-exp along `axis`, max-shifted; LOG_ZERO where every entry is."""
    top = v.max(axis=axis, keepdims=True)
    top[top == LOG_ZERO] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(v - top).sum(axis=axis)) + top.squeeze(axis)


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
                    _PRIOR_FLOOR, None)
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


def _block_pmls(log_prior, digits, channel):
    """`_entry_pmls` on one block of priors, given as log marginals."""
    size, n, k = log_prior.shape
    grid = (k,) * n
    # left to right from 0, as ProductModel.joint_logp sums the marginals
    log_mass = sum(log_prior[:, j, digits[:, j]] for j in range(n)).reshape((size,) + grid)
    channel = channel.reshape(grid + (-1,))
    out = np.empty((size, n, channel.shape[-1]))
    for i in range(n):
        # the atoms with D_i = d: index d on axis i of the (k, ..., k) atom grid
        mass = np.moveaxis(log_mass, i + 1, 1).reshape(size, k, -1)      # (P, k, A/k)
        lls = np.moveaxis(channel, i, 0).reshape(k, mass.shape[2], -1)   # (k, A/k, Y)
        law = _lse(mass, 2)                                              # log P(D_i = d)
        cond = _lse((mass - law[:, :, None])[..., None] + lls, 2)        # log P(y | D_i = d)
        log_py = _lse(law[:, :, None] + cond, 1)
        # an outcome of zero marginal density leaks nothing, as in pml
        out[:, i] = np.subtract(cond.max(axis=1), log_py, out=np.zeros_like(log_py),
                                where=log_py > LOG_ZERO)
    return out


def _entry_pmls(mech: FiniteMechanism, alphabet: tuple, probs) -> np.ndarray:
    """PML of every (prior, entry, outcome) as a (P, n, |Y|) array, for the
    product priors with marginals probs (P, n, k) over alphabet: the
    batched `pml(*entry_channel(...))`.  Atoms are taken in
    itertools.product order and read their channel rows by label."""
    n, k = probs.shape[1:]
    if k ** n > ENUMERATION_LIMIT:
        raise ValueError("enumeration cutoff exceeded")
    atoms = itertools.product(alphabet, repeat=n)
    channel = mech.logp[[mech.x_index(x) for x in atoms]]
    digits = np.array(list(itertools.product(range(k), repeat=n)))
    log_prior = np.log(probs)
    block = max(1, _BLOCK_ENTRIES // channel.size)
    return np.concatenate([_block_pmls(log_prior[start:start + block], digits, channel)
                           for start in range(0, len(probs), block)])


def theorem2_check(mech: FiniteMechanism, epsilon_dp: float, num_entries: int,
                   alphabet, prior_samples: int = 50, grid_resolution: int = 25,
                   seed: int = 0, tol: float = 1e-9,
                   grid_span=(0.01, 0.99)) -> Theorem2Report:
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
        forward_ok=best <= epsilon_dp + tol,
        reference_gap=abs(best - scalar),
    )
