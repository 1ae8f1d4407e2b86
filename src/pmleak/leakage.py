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

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_sum_exp
from .mechanisms import FiniteMechanism
from .probability import DatabaseModel, FiniteDistribution, ProductModel


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


def theorem2_check(mech: FiniteMechanism, epsilon_dp: float, num_entries: int,
                   alphabet, prior_samples: int = 50, grid_resolution: int = 25,
                   seed: int = 0, tol: float = 1e-9,
                   grid_span=(0.01, 0.99)) -> Theorem2Report:
    """Estimate sup over product priors, outcomes, entries of per-entry PML.

    The forward direction of the DP equivalence says the estimate never
    exceeds epsilon_dp for an epsilon_dp-DP mechanism.
    """
    alphabet = tuple(alphabet)
    rng = np.random.default_rng(seed)
    prior_specs = []
    for _ in range(prior_samples):
        spec = []
        for _ in range(num_entries):
            probs = rng.dirichlet(np.ones(len(alphabet)))
            probs = np.clip(probs, 1e-3, None)
            spec.append(tuple(probs / probs.sum()))
        prior_specs.append(tuple(spec))
    if len(alphabet) == 2 and grid_resolution > 0:
        for q in np.linspace(grid_span[0], grid_span[1], grid_resolution):
            prior_specs.append((((1.0 - q), float(q)),) * num_entries)

    best = -math.inf
    witness = (None, None, None)
    for spec in prior_specs:
        model = ProductModel(tuple(
            FiniteDistribution.from_probs(alphabet, p, normalize=True) for p in spec))
        for i in range(num_entries):
            for y in mech.y_labels:
                value = pml(*entry_channel(model, mech, i, y))
                if value > best:
                    best = value
                    witness = (spec, i, y)
    return Theorem2Report(
        epsilon_dp=epsilon_dp,
        max_observed_pml=best,
        witness_prior=witness[0],
        witness_entry=witness[1],
        witness_outcome=witness[2],
        forward_ok=best <= epsilon_dp + tol,
    )
