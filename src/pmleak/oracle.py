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
import numbers
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_ZERO, log_array, log_sum_exp
from .leakage import PRIOR_FLOOR, pml, pml_batch
from .mechanisms import FiniteMechanism
from .probability import NORMALIZATION_TOL, FiniteDistribution


@dataclass(frozen=True, eq=False)
class GainFunction:
    """Non-negative gain table g(x, w) over finite secret and guess alphabets."""

    values: np.ndarray  # shape (|X|, |W|)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("gain table must be 2-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("gain values must be finite")
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
        if not np.all(np.abs(r.sum(axis=1) - 1.0) <= NORMALIZATION_TOL):
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
#
# The trials run in blocks of _BLOCK.  Every array of a block is C-contiguous
# with the trial axis last, (alphabet, ..., trial), so a sum or maximum over
# secrets or guesses runs over a leading axis: elementwise passes over whole
# rows of trials, not a short reduction per trial.  A block pads every trial
# to the largest alphabet: probabilities are 0 and logs are -inf off the
# trial's own alphabet, so each sum and maximum runs over the whole padded axis.
# No padded lane reaches numpy's exp or log: they enter as 1 or 0 and are set
# back after, by arithmetic or putmask, never by a masked `where=` loop.  On
# 8,192 lanes, 37 % of them padding, a 0 or -inf lane took numpy's SIMD exp
# from 8 to 19 us and log from 11 to 27 us, and a masked log took 52 us, as
# the trial-last layout cuts its mask into short runs (2-core AVX-512 Xeon).

#: trials drawn and scored together at the default alphabets of 8
_BLOCK = 1024

#: entries of the largest padded array of a block (512 KB of floats); wider
#: alphabets get fewer trials per block, so memory does not grow with them
_BLOCK_ENTRIES = _BLOCK * 8 * 8


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
    max_reference_gap: float  # |batch - scalar| over each block's replayed trial
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_achievability_gap <= self.tolerance
                and self.max_gain_excess <= self.tolerance
                and self.max_kernel_excess <= self.tolerance
                and self.max_reference_gap <= self.tolerance)


def _first(counts, width):
    """(width, T) mask of the first counts[t] entries of each column t."""
    return np.arange(width)[:, None] < counts


def _dirichlet(rng, shape, mask, axis):
    """Uniform Dirichlet draws along `axis` over the masked entries, 0 elsewhere."""
    e = rng.standard_exponential(shape)
    e *= mask
    e /= e.sum(axis=axis, keepdims=True)
    return e


@dataclass(frozen=True)
class _Scenarios:
    """One block of trials: a prior and the likelihoods of one drawn outcome each."""

    valid: np.ndarray      # (A, T) bool: x inside the trial's alphabet
    prior: np.ndarray      # (A, T) P(x)
    lls: np.ndarray        # (A, T) log P(y | x)
    target: np.ndarray     # (T,) PML of y
    post: np.ndarray       # (A, T) P(x | y); the prior where P_Y(y) = 0

    def trial(self, t):
        """Trial t as the scalar functions take it: (prior, log-likelihoods)."""
        nx = int(self.valid[:, t].sum())
        prior = FiniteDistribution(tuple(range(nx)), tuple(np.log(self.prior[:nx, t]).tolist()))
        return prior, self.lls[:nx, t].tolist()


def _random_channels(rng, size, width):
    """(width, size) secret-alphabet masks of 2..width secrets and log P(y | x)
    at one outcome y of a channel with uniform Dirichlet rows over 2..width outcomes.

    Only the scored column is drawn: an entry of a uniform Dirichlet row over
    ny outcomes is Beta(1, ny - 1), independently over rows, so it is
    1 - (1 - U)^(1 / (ny - 1)) for one uniform U, taken in log domain."""
    valid = _first(rng.integers(2, width + 1, size=size), width)
    ny = rng.integers(2, width + 1, size=size)
    lls = rng.random((width, size))  # -expm1(log1p(-U) / (ny - 1)), in place
    np.negative(lls, out=lls)
    np.log1p(lls, out=lls)
    lls /= ny - 1
    np.expm1(lls, out=lls)
    np.negative(lls, out=lls)
    with np.errstate(divide="ignore"):  # log 0 = LOG_ZERO
        np.log(lls, out=lls)
    np.putmask(lls, ~valid, LOG_ZERO)
    probability = lls <= 0
    if not probability.all():
        x, t = np.argwhere(~probability)[0]
        raise ValueError(f"channel entry for {int(x)!r} is exp({lls[x, t]:.6g}), "
                         "not a probability")
    return valid, lls


def _draw_scenarios(rng, size, max_alphabet, channel) -> _Scenarios:
    """`size` trials: a random channel (or the given one), a floored uniform
    Dirichlet prior and a uniform outcome each, scored for their PML."""
    if channel is None:
        valid, lls = _random_channels(rng, size, max_alphabet)
    else:
        valid = np.ones((len(channel.x_labels), size), dtype=bool)
        lls = channel.logp.take(rng.integers(len(channel.y_labels), size=size), axis=1)
    pad = ~valid
    prior = _dirichlet(rng, valid.shape, valid, 0)
    np.maximum(prior, PRIOR_FLOOR, out=prior)
    prior *= valid
    prior /= prior.sum(axis=0)
    if not ((prior > 0) | pad).all():
        raise ValueError("PML requires full-support prior")

    # a padded lane enters log as 1 and leaves it as log 1: lls is LOG_ZERO
    # there, so the joint is too; it enters exp as 0 and leaves it as 0
    log_prior = np.log(prior + pad)
    pad = pad if pad.any() else None
    target, log_py = pml_batch(log_prior, lls, 0, pad)
    post = np.add(lls, log_prior, out=log_prior)
    with np.errstate(invalid="ignore"):  # -inf - -inf where P_Y(y) = 0
        post -= log_py
    if pad is not None:
        np.putmask(post, pad, 0.0)
    np.exp(post, out=post)
    post *= valid
    dead = log_py == LOG_ZERO
    if dead.any():
        post[:, dead] = prior[:, dead]
    return _Scenarios(valid, prior, lls, target, post)


def _draw_gains(rng, valid, max_guesses):
    """Uniform gain tables (A, W, T) over each trial's secrets and 1..max_guesses guesses."""
    width, size = valid.shape
    nw = rng.integers(1, max_guesses + 1, size=size)
    mask = valid[:, None, :] & _first(nw, max_guesses)
    g = rng.random((width, max_guesses, size))
    g *= mask
    if np.any(g < 0):
        raise ValueError("gain values must be non-negative")
    if not np.all(np.any(g > 0, axis=(0, 1))):
        raise ValueError("degenerate gain")
    return g, nw


def _draw_kernels(rng, valid, max_guesses):
    """Uniform Dirichlet kernel rows P(u | x), (A, U, T), over 1..max_guesses features."""
    width, size = valid.shape
    nu = rng.integers(1, max_guesses + 1, size=size)
    k = _dirichlet(rng, (width, max_guesses, size), _first(nu, max_guesses), 1)
    if np.any(k < 0):
        raise ValueError("negative kernel probability")
    if not ((np.abs(k.sum(axis=1) - 1.0) <= NORMALIZATION_TOL) | ~valid).all():
        raise ValueError("kernel rows must sum to 1")
    return k, nu


def _indicator_ratios(s: _Scenarios) -> np.ndarray:
    """Best indicator gain per trial: log max_j P(j | y) / P(j)."""
    # a padded lane is 0 / 1
    return np.log(np.divide(s.post, s.prior + ~s.valid).max(axis=0))


def _gain_ratios(s: _Scenarios, g) -> np.ndarray:
    """`gain_ratio` per trial: best posterior over best prior expected gain."""
    num = np.einsum("at,awt->wt", s.post, g).max(axis=0)
    den = np.einsum("at,awt->wt", s.prior, g).max(axis=0)
    if not np.all(den > 0):
        raise ValueError("degenerate gain")
    return log_array(num) - np.log(den)


def _kernel_ratios(s: _Scenarios, k) -> np.ndarray:
    """`randomized_function_ratio` per trial: best-guess posterior over prior."""
    peak = np.einsum("at,aut->ut", s.prior, k).max(axis=0)
    if not np.all(peak > 0):
        raise ValueError("kernel assigns no mass")
    return np.log(np.einsum("at,aut->ut", s.post, k).max(axis=0)) - np.log(peak)


def _gap(batch, scalar) -> float:
    """|batch - scalar|, 0 where both are the same infinity."""
    return 0.0 if batch == scalar else abs(float(batch) - scalar)


# Adversaries: (rng, block, its first trial's prior and lls, max_guesses) ->
# (log-ratio per trial, the scalar function's log-ratio on that first trial).

def _indicators(rng, s: _Scenarios, prior, lls, max_guesses):
    # the best indicator is at the largest posterior-to-prior ratio, so the
    # replay scores only the secret each of the scalar and the batch ranks first
    targets = {int(np.argmax(posterior_probs(prior, lls) / prior.probs())),
               int(np.argmax(s.post[:prior.size, 0] / s.prior[:prior.size, 0]))}
    scalar = max(gain_ratio(prior, lls, indicator_gain(prior.size, j)) for j in targets)
    return _indicator_ratios(s), scalar


def _gains(rng, s: _Scenarios, prior, lls, max_guesses):
    g, nw = _draw_gains(rng, s.valid, max_guesses)
    return _gain_ratios(s, g), gain_ratio(prior, lls, GainFunction(g[:prior.size, :nw[0], 0]))


def _kernels(rng, s: _Scenarios, prior, lls, max_guesses):
    k, nu = _draw_kernels(rng, s.valid, max_guesses)
    return _kernel_ratios(s, k), randomized_function_ratio(
        prior, lls, GuessKernel(k[:prior.size, :nu[0], 0]))


def _block(rng, size, adversary, max_alphabet, max_guesses, channel):
    """Largest and smallest log-ratio minus PML over `size` new trials, and the
    largest |batch - scalar| of the PML and the ratio on the first of them,
    the scalar PML from `leakage.pml`."""
    s = _draw_scenarios(rng, size, max_alphabet, channel)
    prior, lls = s.trial(0)
    ratios, scalar = adversary(rng, s, prior, lls, max_guesses)
    excess = ratios - s.target
    gap = max(_gap(s.target[0], pml(prior, lls)), _gap(ratios[0], scalar))
    return float(excess.max()), float(excess.min()), gap


def _phase(rng, trials, block, *args):
    """`_block` over `trials` trials, `block` at a time, folded."""
    highs, lows, gaps = zip(*(_block(rng, min(block, trials - start), *args)
                              for start in range(0, trials, block)))
    return max(highs), min(lows), max(gaps)


def run_adversary_trials(seed: int = 2024, achievability_trials: int = 1000,
                         gain_trials: int = 10_000, kernel_trials: int = 10_000,
                         max_alphabet: int = 8, max_guesses: int = 8,
                         tolerance: float = 1e-12,
                         channel: FiniteMechanism | None = None) -> OracleReport:
    """Sampled validation of both adversarial semantics against the PML value.

    Achievability uses the indicator gains, whose maximum over target
    secrets equals the PML exactly; soundness samples arbitrary gains and
    kernels and records the worst excess over the PML (which should be
    pure floating-point noise).  Trials are drawn and scored a block at a
    time; each block's first trial is replayed through `leakage.pml` and the
    scalar ratio functions above, and the worst disagreement is reported.
    """
    if achievability_trials <= 0 or gain_trials <= 0 or kernel_trials <= 0:
        raise ValueError("empty trial set")
    if not 0.0 <= tolerance < math.inf:  # NaN fails too
        raise ValueError("tolerance must be finite and at least 0")
    for name, size, least in (("max_alphabet", max_alphabet, 2), ("max_guesses", max_guesses, 1)):
        if not isinstance(size, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {size!r}")
        if size < least:
            raise ValueError(f"{name} must be at least {least}, not {size!r}")
    # random-channel blocks keep A * max(A, max_guesses) entries: the block size
    # fixes which draws each trial takes, so it is part of what a seed reports
    if channel is None:
        entries = max_alphabet * max(max_alphabet, max_guesses)
    else:
        entries = len(channel.x_labels) * max_guesses
    block = min(_BLOCK, max(1, _BLOCK_ENTRIES // entries))
    rng = np.random.default_rng(seed)
    sizes = (max_alphabet, max_guesses, channel)
    high, low, indicator_gap = _phase(rng, achievability_trials, block, _indicators, *sizes)
    max_gain_excess, _, gain_gap = _phase(rng, gain_trials, block, _gains, *sizes)
    max_kernel_excess, _, kernel_gap = _phase(rng, kernel_trials, block, _kernels, *sizes)
    return OracleReport(
        seed=seed,
        achievability_trials=achievability_trials,
        gain_trials=gain_trials,
        kernel_trials=kernel_trials,
        max_achievability_gap=max(high, -low),
        max_gain_excess=max_gain_excess,
        max_kernel_excess=max_kernel_excess,
        max_reference_gap=max(indicator_gap, gain_gap, kernel_gap),
        tolerance=tolerance,
    )
