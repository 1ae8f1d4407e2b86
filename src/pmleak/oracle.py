"""Independent brute-force validators for the leakage computations.

Implements the two adversarial semantics of pointwise maximal leakage
directly (best-guess ratio of a randomized function of the secret, and
posterior-to-prior expected-gain ratio) so the closed-form value can be
checked against what an actual adversary achieves:

- every sampled gain function and guessing kernel yields a log-ratio at
  most the PML (soundness), and
- the indicator gains attain it exactly (achievability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_sum_exp
from .leakage import pml
from .mechanisms import FiniteMechanism
from .probability import FiniteDistribution


@dataclass(frozen=True, eq=False)
class GainFunction:
    """Non-negative gain table g(x, w) over finite secret and guess alphabets."""

    values: np.ndarray  # shape (|X|, |W|)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("gain table must be 2-dimensional")
        if np.any(v < 0):
            raise ValueError("gain values must be non-negative")
        if not np.any(v > 0):
            raise ValueError("degenerate gain")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False


@dataclass(frozen=True, eq=False)
class GuessKernel:
    """Conditional law of a randomized function of the secret: rows P(u | x)."""

    rows: np.ndarray  # shape (|X|, |U|), each row a distribution

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2:
            raise ValueError("kernel must be 2-dimensional")
        if np.any(r < 0):
            raise ValueError("negative kernel probability")
        if not np.allclose(r.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("kernel rows must sum to 1")
        object.__setattr__(self, "rows", r)
        r.flags.writeable = False


def indicator_gain(nx: int, target: int) -> GainFunction:
    """Singleton-guess gain rewarding exactly the target secret."""
    v = np.zeros((nx, 1))
    v[target, 0] = 1.0
    return GainFunction(v)


def posterior_probs(prior: FiniteDistribution, log_likelihoods) -> np.ndarray:
    """P(x | y) in linear domain; equals the prior when P_Y(y) = 0."""
    prior.require_full_support("PML requires full-support prior")
    joint = np.asarray(log_likelihoods, dtype=float) + np.asarray(prior.logp)
    total = log_sum_exp(joint.tolist())
    if total == LOG_ZERO:
        return prior.probs()
    return np.exp(joint - total)


def gain_ratio(prior: FiniteDistribution, log_likelihoods, gain: GainFunction) -> float:
    """log of posterior-to-prior expected gain under the best deterministic guess.

    The optimal guessing kernel concentrates on the column maximizing the
    posterior expected gain, so both expectations reduce to column maxima.
    """
    g = gain.values
    if g.shape[0] != prior.size:
        raise ValueError("gain table does not match the secret alphabet")
    post = posterior_probs(prior, log_likelihoods)
    num = float(np.max(post @ g))
    den = float(np.max(prior.probs() @ g))
    if den <= 0:
        raise ValueError("degenerate gain")
    if num <= 0:
        return LOG_ZERO
    return math.log(num) - math.log(den)


def randomized_function_ratio(prior: FiniteDistribution, log_likelihoods,
                              kernel: GuessKernel) -> float:
    """log of the posterior-to-prior best-guess probability ratio for U | X."""
    k = kernel.rows
    if k.shape[0] != prior.size:
        raise ValueError("kernel does not match the secret alphabet")
    post = posterior_probs(prior, log_likelihoods)
    p_u = prior.probs() @ k
    p_u_post = post @ k
    peak = float(np.max(p_u))
    if peak <= 0:
        raise ValueError("kernel assigns no mass")
    return math.log(float(np.max(p_u_post))) - math.log(peak)


# --- randomized adversary trials ------------------------------------------


def random_full_support_prior(rng, nx: int, floor: float = 1e-3) -> FiniteDistribution:
    probs = np.clip(rng.dirichlet(np.ones(nx)), floor, None)
    return FiniteDistribution.from_probs(tuple(range(nx)), probs, normalize=True)


def random_channel(rng, nx: int, ny: int) -> FiniteMechanism:
    rows = rng.dirichlet(np.ones(ny), size=nx)
    return FiniteMechanism.from_probs(tuple(range(nx)), tuple(range(ny)), rows)


def random_gain(rng, nx: int, nw: int) -> GainFunction:
    return GainFunction(rng.random((nx, nw)))


def random_kernel(rng, nx: int, nu: int) -> GuessKernel:
    return GuessKernel(rng.dirichlet(np.ones(nu), size=nx))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the adversary-model validation trials."""

    seed: int
    achievability_trials: int
    gain_trials: int
    kernel_trials: int
    max_achievability_gap: float
    max_gain_excess: float
    max_kernel_excess: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_achievability_gap <= self.tolerance
                and self.max_gain_excess <= self.tolerance
                and self.max_kernel_excess <= self.tolerance)


def _random_scenario(rng, max_alphabet, channel=None):
    if channel is None:
        nx = int(rng.integers(2, max_alphabet + 1))
        ny = int(rng.integers(2, max_alphabet + 1))
        channel = random_channel(rng, nx, ny)
    prior = random_full_support_prior(rng, len(channel.x_labels))
    y = channel.y_labels[int(rng.integers(len(channel.y_labels)))]
    lls = [channel.log_likelihood(x, y) for x in channel.x_labels]
    return prior, lls


def run_adversary_trials(seed: int = 2024, achievability_trials: int = 1000,
                         gain_trials: int = 10_000, kernel_trials: int = 10_000,
                         max_alphabet: int = 8, max_guesses: int = 8,
                         tolerance: float = 1e-12,
                         channel: FiniteMechanism | None = None) -> OracleReport:
    """Sampled validation of both adversarial semantics against the PML value.

    Achievability uses the indicator gains, whose maximum over target
    secrets equals the PML exactly; soundness samples arbitrary gains and
    kernels and records the worst excess over the PML (which should be
    pure floating-point noise).
    """
    if achievability_trials <= 0 or gain_trials <= 0 or kernel_trials <= 0:
        raise ValueError("empty trial set")
    rng = np.random.default_rng(seed)

    max_gap = 0.0
    for _ in range(achievability_trials):
        prior, lls = _random_scenario(rng, max_alphabet, channel)
        target = pml(prior, lls)
        best = max(gain_ratio(prior, lls, indicator_gain(prior.size, j))
                   for j in range(prior.size))
        max_gap = max(max_gap, abs(best - target))

    max_gain_excess = -math.inf
    for _ in range(gain_trials):
        prior, lls = _random_scenario(rng, max_alphabet, channel)
        target = pml(prior, lls)
        nw = int(rng.integers(1, max_guesses + 1))
        ratio = gain_ratio(prior, lls, random_gain(rng, prior.size, nw))
        max_gain_excess = max(max_gain_excess, ratio - target)

    max_kernel_excess = -math.inf
    for _ in range(kernel_trials):
        prior, lls = _random_scenario(rng, max_alphabet, channel)
        target = pml(prior, lls)
        nu = int(rng.integers(1, max_guesses + 1))
        ratio = randomized_function_ratio(prior, lls, random_kernel(rng, prior.size, nu))
        max_kernel_excess = max(max_kernel_excess, ratio - target)

    return OracleReport(
        seed=seed,
        achievability_trials=achievability_trials,
        gain_trials=gain_trials,
        kernel_trials=kernel_trials,
        max_achievability_gap=max_gap,
        max_gain_excess=max_gain_excess,
        max_kernel_excess=max_kernel_excess,
        tolerance=tolerance,
    )
