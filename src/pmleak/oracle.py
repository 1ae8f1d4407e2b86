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

from .logdomain import _LOWEST, LOG_ZERO, log_array, log_sum_exp
from .leakage import _BLOCK_ENTRIES, PRIOR_FLOOR, _require_integers, pml
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
        if not np.isfinite(v).all():
            raise ValueError("gain values must be finite")
        if (v < 0).any():
            raise ValueError("gain values must be non-negative")
        if not (v > 0).any():
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
        if (r < 0).any():
            raise ValueError("negative kernel probability")
        if not (np.abs(r.sum(axis=1) - 1.0) <= NORMALIZATION_TOL).all():
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
    num = float((post @ g).max())
    den = float((prior.probs() @ g).max())
    if den <= 0:
        raise ValueError("degenerate gain")
    if num <= 0:
        return LOG_ZERO
    return math.log(num) - math.log(den)


def randomized_function_ratio(prior: FiniteDistribution, log_likelihoods,
                              kernel: GuessKernel) -> float:
    """log of the posterior-to-prior best-guess probability ratio for U | X:
    the gain ratio of g(x, u) = P(u | x)."""
    if kernel.rows.shape[0] != prior.size:
        raise ValueError("kernel does not match the secret alphabet")
    return gain_ratio(prior, log_likelihoods, GainFunction(kernel.rows))


# --- randomized adversary trials ------------------------------------------
#
# The trials run in groups of one secret count nx, and each group in chunks
# of at most 2 * _BLOCK trials.  Every array of a chunk is C-contiguous with
# the trial axis last, (nx, ..., trial), so a sum or maximum over secrets or
# guesses runs over a leading axis: elementwise passes over whole rows of
# trials, not a short reduction per trial.  A random-channel phase first
# draws how many of its trials take each count 2..max_alphabet, in one
# multinomial: the trials are iid and a phase only folds maxima and minima,
# so this is the law of one count drawn per trial, and no secret lane is
# padding.  A fixed channel is one group.  The guess counts 1..max_guesses
# of a chunk's gains or kernels are drawn the same way, one multinomial a
# chunk, and its trials take them largest first, so guess slot j is live on
# a prefix of the trials: only those lanes are drawn, into a table of 0s,
# which no exp or log takes.  A chunk is scored in linear domain, so a trial
# takes one log, that of its PML, and a kernel's row sums are folded into the
# (nx, T) prior and posterior.  Trials 0, _BLOCK, 2 * _BLOCK, ... of each chunk
# are replayed through the scalar functions above, from the log of the drawn
# entries or the fixed channel's own log table.

#: one trial in every _BLOCK of a chunk is replayed; a chunk holds at most 2 * _BLOCK
_BLOCK = 1024


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
    max_reference_gap: float  # |batch - scalar| over each chunk's replayed trial
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_achievability_gap <= self.tolerance
                and self.max_gain_excess <= self.tolerance
                and self.max_kernel_excess <= self.tolerance
                and self.max_reference_gap <= self.tolerance)


def _chunk(nx, max_guesses):
    """Trials per chunk at nx secrets, at most 2 * _BLOCK: it fixes each trial's draws,
    and so what a seed reports.  Its largest (nx, guesses, trial) array holds at most
    _BLOCK_ENTRIES floats, so wider alphabets get fewer trials and memory does not
    grow with them."""
    return min(2 * _BLOCK, max(1, _BLOCK_ENTRIES // (nx * max_guesses)))


@dataclass(frozen=True)
class _Scenarios:
    """A chunk of trials over nx secrets: a prior and one outcome's likelihoods each."""

    prior: np.ndarray      # (nx, T) P(x)
    lik: np.ndarray        # (nx, T) P(y | x); a fixed channel's over its column maximum
    target: np.ndarray     # (T,) PML of y
    post: np.ndarray       # (nx, T) P(x | y); the prior where P_Y(y) = 0
    logp: np.ndarray       # a fixed channel's (nx, ny) log P(y | x); (nx, 0) for random ones
    outcome: np.ndarray    # (T,) each trial's column of logp; empty for random channels

    def trial(self, t):
        """Trial t as the scalar functions take it: (prior, log-likelihoods)."""
        log_prior = np.log(self.prior[:, t])
        lls = self.logp[:, self.outcome[t]] if self.outcome.size else log_array(self.lik[:, t])
        return (FiniteDistribution(tuple(range(len(log_prior))), tuple(log_prior.tolist())),
                lls.tolist())


def _random_channels(rng, nx, size, width):
    """(nx, size) P(y | x) at one outcome y of a channel with uniform
    Dirichlet rows over 2..width outcomes, one channel per trial.

    Only the scored column is drawn: an entry of a uniform Dirichlet row over
    ny outcomes is Beta(1, ny - 1), independently over rows, so it is
    1 - (1 - U)^(1 / (ny - 1)) for one uniform U."""
    ny = rng.integers(2, width + 1, size=size)
    lik = rng.random((nx, size))  # -expm1(log1p(-U) / (ny - 1)), in place
    np.negative(lik, out=lik)
    np.log1p(lik, out=lik)
    lik /= ny - 1
    np.expm1(lik, out=lik)
    np.negative(lik, out=lik)
    probability = (lik >= 0) & (lik <= 1)  # NaN fails
    if not probability.all():
        x, t = np.argwhere(~probability)[0]
        raise ValueError(f"channel entry for {int(x)!r} is {lik[x, t]:.6g}, not a probability")
    return lik


def _draw_scenarios(rng, nx, size, max_alphabet, channel) -> _Scenarios:
    """`size` trials over nx secrets: a random channel (or the given one), a
    floored uniform Dirichlet prior and a uniform outcome each, scored for their PML."""
    if channel is None:
        lik = _random_channels(rng, nx, size, max_alphabet)
        logp, outcome = np.empty((nx, 0)), np.empty(0, dtype=int)
    else:  # a zero column shifts by a finite top, so its entries stay 0
        logp = channel.logp
        table = np.exp(logp - logp.max(axis=0, initial=_LOWEST))
        outcome = rng.integers(len(channel.y_labels), size=size)
        lik = table.take(outcome, axis=1)
    prior = rng.standard_exponential(lik.shape)  # uniform Dirichlet over the secrets
    prior /= prior.sum(axis=0)
    np.maximum(prior, PRIOR_FLOOR, out=prior)
    prior /= prior.sum(axis=0)
    if not (prior > 0).all():
        raise ValueError("PML requires full-support prior")

    post = prior * lik
    py = post.sum(axis=0)  # P_Y(y), a fixed channel's over its column maximum
    live = py > 0
    ratio = np.divide(lik.max(axis=0), py, out=np.ones_like(py), where=live)
    target = np.maximum(np.log(ratio, out=ratio), 0.0, out=ratio)  # PML 0 where P_Y(y) = 0
    with np.errstate(invalid="ignore"):  # 0 / 0 where P_Y(y) = 0
        post /= py
    if not live.all():
        post[:, ~live] = prior[:, ~live]
    return _Scenarios(prior, lik, target, post, logp, outcome)


def _guess_lanes(rng, shape, max_guesses, draw):
    """(nx, max_guesses, T) table of 0s with `draw`'s values in each trial's live
    guess lanes, and each trial's guess count, uniform on 1..max_guesses.

    One multinomial draws how many trials take each count, and the trials take
    them largest first, so slot j is live on the trials [0, live[j]).  Each
    slot is drawn into one reused buffer, so no second table is allocated."""
    nx, size = shape
    counts = rng.multinomial(size, [1 / max_guesses] * max_guesses)[::-1]  # largest first
    table = np.zeros((nx, max_guesses, size))
    buffer = np.empty(nx * size)
    for j, live in enumerate(np.cumsum(counts)[::-1].tolist()):
        lanes = buffer[:nx * live].reshape(nx, live)
        draw(out=lanes)
        table[:, j, :live] = lanes
    return table, np.repeat(np.arange(max_guesses, 0, -1), counts)


def _draw_gains(rng, shape, max_guesses):
    """Uniform gain tables (nx, W, T) over 1..max_guesses guesses, for (nx, T) scenarios."""
    g, nw = _guess_lanes(rng, shape, max_guesses, rng.random)
    if (g < 0).any():
        raise ValueError("gain values must be non-negative")
    if not (g > 0).any(axis=(0, 1)).all():
        raise ValueError("degenerate gain")
    return g, nw


def _draw_kernels(rng, shape, max_guesses):
    """Uniform Dirichlet kernel rows P(u | x) over 1..max_guesses features: weights
    (nx, U, T) over each row's sum (nx, T), which is positive and finite exactly
    where the rows would pass `GuessKernel`'s sum-to-1 check."""
    k, nu = _guess_lanes(rng, shape, max_guesses, rng.standard_exponential)
    if (k < 0).any():
        raise ValueError("negative kernel probability")
    sums = k.sum(axis=1)
    if not ((sums > 0) & (sums < math.inf)).all():  # NaN fails too
        raise ValueError("kernel rows must sum to 1")
    return k, sums, nu


def _indicator_ratios(s: _Scenarios) -> np.ndarray:
    """Best indicator gain per trial: log max_j P(j | y) / P(j)."""
    return np.log((s.post / s.prior).max(axis=0))


def _gain_ratios(s: _Scenarios, g, sums=None) -> np.ndarray:
    """`gain_ratio` per trial: best posterior over best prior expected gain.  Kernel
    weights pass their (nx, T) row sums, which divide the posterior, then the prior."""
    num, den = (np.einsum("at,awt->wt", p if sums is None else p / sums, g).max(axis=0)
                for p in (s.post, s.prior))
    if not (den > 0).all():
        raise ValueError("degenerate gain")
    return log_array(num) - np.log(den)


def _gap(batch, scalar) -> float:
    """|batch - scalar|, 0 where both are the same infinity."""
    return 0.0 if batch == scalar else abs(float(batch) - scalar)


# Adversaries: (rng, chunk, max_guesses) -> (log-ratio per trial, the scalar
# function's log-ratio on trial t as (t, prior, lls) -> float).

def _indicators(rng, s: _Scenarios, max_guesses):
    def scalar(t, prior, lls):
        # the best indicator is at the largest posterior-to-prior ratio, so the
        # replay scores only the secret each of the scalar and the batch ranks first
        targets = {int((posterior_probs(prior, lls) / prior.probs()).argmax()),
                   int((s.post[:, t] / s.prior[:, t]).argmax())}
        return max(gain_ratio(prior, lls, indicator_gain(prior.size, j)) for j in targets)
    return _indicator_ratios(s), scalar


def _gains(rng, s: _Scenarios, max_guesses):
    g, nw = _draw_gains(rng, s.prior.shape, max_guesses)
    return _gain_ratios(s, g), lambda t, prior, lls: gain_ratio(
        prior, lls, GainFunction(g[:, :nw[t], t]))


def _kernels(rng, s: _Scenarios, max_guesses):
    k, sums, nu = _draw_kernels(rng, s.prior.shape, max_guesses)
    return _gain_ratios(s, k, sums), lambda t, prior, lls: randomized_function_ratio(
        prior, lls, GuessKernel(k[:, :nu[t], t] / sums[:, t, None]))


def _block(rng, nx, size, adversary, max_alphabet, max_guesses, channel):
    """Largest and smallest log-ratio minus PML over `size` new trials of nx
    secrets, and the largest |batch - scalar| of the PML and the ratio on
    trials 0, _BLOCK, 2 * _BLOCK, ... of them, the scalar PML from `leakage.pml`."""
    s = _draw_scenarios(rng, nx, size, max_alphabet, channel)
    ratios, scalar = adversary(rng, s, max_guesses)
    gap = 0.0
    for t in range(0, size, _BLOCK):
        prior, lls = s.trial(t)
        gap = max(gap, _gap(s.target[t], pml(prior, lls)), _gap(ratios[t], scalar(t, prior, lls)))
    excess = ratios - s.target
    return float(excess.max()), float(excess.min()), gap


def _phase(rng, trials, adversary, max_alphabet, max_guesses, channel):
    """`_block` over `trials` trials, a chunk at a time, folded."""
    if channel is None:  # how many of the trials take each count 2..max_alphabet
        p = [1 / (max_alphabet - 1)] * (max_alphabet - 1)
        groups = enumerate(rng.multinomial(trials, p).tolist(), 2)
    else:
        groups = [(len(channel.x_labels), trials)]
    folds = []
    for nx, count in groups:
        step = _chunk(nx, max_guesses)
        folds += [_block(rng, nx, min(step, count - start), adversary, max_alphabet,
                         max_guesses, channel) for start in range(0, count, step)]
    highs, lows, gaps = zip(*folds)
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
    pure floating-point noise).  Trials are drawn and scored a chunk of one
    secret count at a time; one trial in every _BLOCK of each chunk is
    replayed through `leakage.pml` and the scalar ratio functions above, and
    the worst disagreement is reported.
    """
    _require_integers(seed=seed, achievability_trials=achievability_trials,
                      gain_trials=gain_trials, kernel_trials=kernel_trials,
                      max_alphabet=max_alphabet, max_guesses=max_guesses)
    if achievability_trials <= 0 or gain_trials <= 0 or kernel_trials <= 0:
        raise ValueError("empty trial set")
    if not 0.0 <= tolerance < math.inf:  # NaN fails too
        raise ValueError("tolerance must be finite and at least 0")
    for name, size, least in (("seed", seed, 0), ("max_alphabet", max_alphabet, 2),
                              ("max_guesses", max_guesses, 1)):
        if size < least:
            raise ValueError(f"{name} must be at least {least}, not {size!r}")
    rng = np.random.default_rng(seed)
    sizes = (max_alphabet, max_guesses, channel)
    high, low, indicator_gap = _phase(rng, achievability_trials, _indicators, *sizes)
    max_gain_excess, _, gain_gap = _phase(rng, gain_trials, _gains, *sizes)
    max_kernel_excess, _, kernel_gap = _phase(rng, kernel_trials, _kernels, *sizes)
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
