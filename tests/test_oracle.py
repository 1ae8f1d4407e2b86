import json
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from pmleak import leakage, oracle
from pmleak.leakage import pml, pml_entry
from pmleak.mechanisms import FiniteMechanism
from pmleak.oracle import (GainFunction, GuessKernel, gain_ratio,
                           indicator_gain, randomized_function_ratio,
                           run_adversary_trials)
from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism, pml_d1
from pmleak.probability import (ExplicitJointModel, FiniteDistribution,
                                ProductModel)
from support import GOLDEN, load_script, traced_peak

# The seed-2024 reports and the block digests by numpy loops, as
# tests/golden/oracle_pins.json pins them (scripts/make_oracle_golden.py
# writes it and recomputes it here).
# A change that moves any of them lists the move in CHANGES.md.
PINS = json.loads((GOLDEN / "oracle_pins.json").read_text())
make_oracle_golden = load_script("make_oracle_golden")


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


def scenario(seed=0, nx=4, ny=5):
    rng = np.random.default_rng(seed)
    prior = random_full_support_prior(rng, nx)
    mech = random_channel(rng, nx, ny)
    y = mech.y_labels[2]
    lls = [mech.log_likelihood(x, y) for x in mech.x_labels]
    return prior, lls


class TestGainRatio:
    def test_constant_gain_ratio_one(self):
        prior, lls = scenario()
        g = GainFunction(np.full((4, 3), 2.5))
        assert gain_ratio(prior, lls, g) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_gain_is_posterior_prior_ratio(self):
        prior, lls = scenario()
        from pmleak.oracle import posterior_probs
        post = posterior_probs(prior, lls)
        for j in range(prior.size):
            want = math.log(post[j]) - prior.logp[j]
            got = gain_ratio(prior, lls, indicator_gain(prior.size, j))
            assert got == pytest.approx(want, abs=1e-12)

    def test_indicator_achievability(self):
        for seed in range(50):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            best = max(gain_ratio(prior, lls, indicator_gain(prior.size, j))
                       for j in range(prior.size))
            assert abs(best - target) <= 1e-12

    def test_random_gains_never_exceed_pml(self):
        rng = np.random.default_rng(42)
        for seed in range(200):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            g = random_gain(rng, prior.size, int(rng.integers(1, 7)))
            assert gain_ratio(prior, lls, g) <= target + 1e-12

    def test_all_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="degenerate gain"):
            GainFunction(np.zeros((3, 2)))

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GainFunction(np.array([[1.0, -0.1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, bad):
        with pytest.raises(ValueError, match="gain values must be finite"):
            GainFunction(np.array([[bad], [1.0]]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GainFunction(np.ones(3)), "^gain table must be 2-dimensional$",
                 id="gain-1d"),
    pytest.param(lambda: GuessKernel(np.full(2, 0.5)), "^kernel must be 2-dimensional$",
                 id="kernel-1d"),
    pytest.param(lambda: GuessKernel(np.array([[1.5, -0.5]])),
                 "^negative kernel probability$", id="kernel-negative-cell"),
    pytest.param(lambda: gain_ratio(*scenario(), GainFunction(np.ones((3, 2)))),
                 "^gain table does not match the secret alphabet$", id="gain-secret-count"),
    pytest.param(lambda: randomized_function_ratio(*scenario(), GuessKernel(np.eye(3))),
                 "^kernel does not match the secret alphabet$", id="kernel-secret-count"),
    # prior @ g = 1e-300 * 1e-300 underflows to 0
    pytest.param(lambda: gain_ratio(FiniteDistribution.from_probs((0, 1), (1e-300, 1.0)),
                                    [0.0, 0.0], GainFunction(np.array([[1e-300], [0.0]]))),
                 "^degenerate gain$", id="gain-underflowing-prior-mass"),
])
def test_malformed_adversary_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestRandomizedFunctionRatio:
    def test_independent_feature_leaks_nothing(self):
        prior, lls = scenario()
        k = GuessKernel(np.tile([0.3, 0.7], (4, 1)))
        assert randomized_function_ratio(prior, lls, k) == pytest.approx(0.0, abs=1e-14)

    def test_identity_feature_under_uniform_prior(self):
        nx = 4
        prior = FiniteDistribution.uniform(tuple(range(nx)))
        rng = np.random.default_rng(1)
        mech = random_channel(rng, nx, 3)
        y = mech.y_labels[0]
        lls = [mech.log_likelihood(x, y) for x in mech.x_labels]
        k = GuessKernel(np.eye(nx))
        # for uniform priors the identity feature attains the pml
        assert randomized_function_ratio(prior, lls, k) == pytest.approx(
            pml(prior, lls), abs=1e-12)

    def test_random_kernels_never_exceed_pml(self):
        rng = np.random.default_rng(7)
        for seed in range(200):
            prior, lls = scenario(seed)
            target = pml(prior, lls)
            k = random_kernel(rng, prior.size, int(rng.integers(1, 7)))
            assert randomized_function_ratio(prior, lls, k) <= target + 1e-12

    def test_bits_of_the_best_guess_ratio(self):
        # log max(post k) - log max(prior k), as the ratio was once written
        # out; it is now the gain ratio of g(x, u) = P(u | x)
        rng = np.random.default_rng(11)
        for seed in range(300):
            nx = int(rng.integers(2, 9))
            prior, lls = scenario(seed, nx=nx, ny=int(rng.integers(3, 7)))
            k = random_kernel(rng, nx, int(rng.integers(1, 9)))
            post = oracle.posterior_probs(prior, lls)
            want = (math.log(float((post @ k.rows).max()))
                    - math.log(float((prior.probs() @ k.rows).max())))
            assert randomized_function_ratio(prior, lls, k).hex() == want.hex()

    def test_kernel_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GuessKernel(np.array([[0.5, 0.4]]))

    def test_kernel_row_tolerance_is_absolute(self):
        # no relative slack on top of |row sum - 1| <= 1e-9
        for row in ([0.5, 0.5 + 1e-6], [0.5, 0.500009]):
            with pytest.raises(ValueError, match="sum to 1"):
                GuessKernel(np.array([row]))
        GuessKernel(np.array([[0.5, 0.5 + 5e-10]]))


class TestEnumerateJoint:
    def test_correlated_model_atom_count_and_mass(self):
        joint = ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5))
        atoms = list(joint.atoms())
        assert len(atoms) == 16
        assert math.fsum(math.exp(lp) for _, lp in atoms) == pytest.approx(1.0)

    def test_product_atom_mass(self):
        model = ProductModel((FiniteDistribution.from_probs((0, 1), (0.7, 0.3)),) * 3)
        joint = ExplicitJointModel.from_model(model)
        assert math.exp(joint.log_masses(np.array([[1, 1, 0]]))[0]) == pytest.approx(0.063)

    def test_conditional_all_ones_mass(self):
        # P(tail all ones | D_1 = 1) = eta
        joint = ExplicitJointModel.from_model(CorrelatedBinaryModel(3, 0.25, 0.5))
        assert math.exp(joint.log_masses(np.array([[1, 1, 1, 1]]))[0]) / 0.75 == pytest.approx(0.5)

    def test_cutoff(self):
        with pytest.raises(ValueError, match="enumeration cutoff exceeded"):
            ExplicitJointModel.from_model(CorrelatedBinaryModel(20, 0.25, 0.5))

    def test_consistency_with_structured_queries(self):
        model = CorrelatedBinaryModel(6, 0.3, 0.4)
        joint = ExplicitJointModel.from_model(model)
        mech = calibrated_mechanism(model, 1.0)
        for y in (-0.7, -0.1):
            assert pml_entry(joint, mech, 0, y).pml == pytest.approx(
                pml_d1(model, 1.0, y), abs=1e-9)


class TestTrials:
    def test_small_run_passes(self):
        report = run_adversary_trials(seed=5, achievability_trials=50,
                                      gain_trials=200, kernel_trials=200)
        assert report.passed
        assert report.max_achievability_gap <= 1e-12

    def test_empty_trial_set_rejected(self):
        with pytest.raises(ValueError, match="empty trial set"):
            run_adversary_trials(gain_trials=0)

    @pytest.mark.parametrize("sizes, message", [
        (dict(max_alphabet=1), "max_alphabet must be at least 2"),
        (dict(max_guesses=0), "max_guesses must be at least 1"),
        (dict(max_alphabet=2.5), "max_alphabet must be an integer"),
        (dict(max_guesses=1.5), "max_guesses must be an integer"),
        (dict(max_guesses=True), "max_guesses must be an integer"),
    ], ids=["max-alphabet", "max-guesses", "max-alphabet-fraction", "max-guesses-fraction",
            "max-guesses-bool"])
    def test_alphabet_sizes_validated(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            run_adversary_trials(achievability_trials=1, gain_trials=1, kernel_trials=1,
                                 **sizes)

    @pytest.mark.parametrize("name, count", [
        ("achievability_trials", 1.5), ("achievability_trials", math.nan),
        ("gain_trials", 2.0), ("kernel_trials", True),
    ], ids=["fraction", "nan", "whole-float", "bool"])
    def test_trial_counts_validated(self, name, count):
        counts = dict(achievability_trials=1, gain_trials=1, kernel_trials=1)
        counts[name] = count
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {count!r}$"):
            run_adversary_trials(**counts)

    @pytest.mark.parametrize("seed, message", [
        (None, "seed must be an integer, not None"), (True, "seed must be an integer, not True"),
        (2.5, "seed must be an integer, not 2.5"), (-1, "seed must be at least 0, not -1"),
    ], ids=["none", "bool", "fraction", "negative"])
    def test_seed_validated(self, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_adversary_trials(seed=seed, achievability_trials=1, gain_trials=1,
                                 kernel_trials=1)

    def test_deterministic_under_seed(self):
        a = run_adversary_trials(seed=9, achievability_trials=20,
                                 gain_trials=50, kernel_trials=50)
        b = run_adversary_trials(seed=9, achievability_trials=20,
                                 gain_trials=50, kernel_trials=50)
        assert a == b


ZERO_MASS_CHANNEL = make_oracle_golden.ZERO_MASS_CHANNEL


class TestBatch:
    """The chunk path against the scalar functions it replaces."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nx, channel", make_oracle_golden.BLOCKS.values(),
                             ids=["random-2", "random-5", "random-8", "zero-mass-channel"])
    def test_block_matches_scalar_reference(self, nx, channel):
        rng = np.random.default_rng(11)
        s = oracle._draw_scenarios(rng, nx, oracle._BLOCK, 8, channel)
        g, nw = oracle._draw_gains(rng, s.prior.shape, 8)
        k, sums, nu = oracle._draw_kernels(rng, s.prior.shape, 8)
        # dense over the secrets, the trial axis last and contiguous, so each
        # reduction runs over rows
        for drawn in (s.prior, s.lik, s.post, g, k, sums):
            assert drawn.shape[0] == nx and drawn.shape[-1] == oracle._BLOCK
            assert drawn.flags.c_contiguous
        # the trials take their guess counts largest first, and every count
        # 1..8 is among the checked trials, for gains and kernels alike
        checked = range(0, oracle._BLOCK, 4)
        for counts in (nw, nu):
            assert (np.diff(counts) <= 0).all() and set(counts[checked]) == set(range(1, 9))
        best = oracle._indicator_ratios(s)
        gains = oracle._gain_ratios(s, g)
        kernels = oracle._gain_ratios(s, k, sums)
        for t in checked:
            prior = FiniteDistribution.from_probs(range(nx), s.prior[:, t])
            lls = s.trial(t)[1]
            assert s.target[t] == pytest.approx(pml(prior, lls), abs=1e-13)
            indicator = max(gain_ratio(prior, lls, indicator_gain(nx, j)) for j in range(nx))
            assert best[t] == pytest.approx(indicator, abs=1e-13)
            assert not g[:, nw[t]:, t].any() and not k[:, nu[t]:, t].any()
            gain = GainFunction(g[:, :nw[t], t])
            assert gains[t] == pytest.approx(gain_ratio(prior, lls, gain), abs=1e-13)
            kernel = GuessKernel(k[:, :nu[t], t] / sums[:, t, None])
            assert kernels[t] == pytest.approx(
                randomized_function_ratio(prior, lls, kernel), abs=1e-13)
        if channel is not None:  # the zero-mass outcome leaks nothing
            dead = s.outcome == 2
            assert dead.any() and not s.lik[:, dead].any() and np.all(s.target[dead] == 0.0)
            assert np.array_equal(s.post[:, dead], s.prior[:, dead])

    @pytest.mark.parametrize("nx, channel", make_oracle_golden.BLOCKS.values(),
                             ids=["random-2", "random-5", "random-8", "zero-mass-channel"])
    def test_kernel_weights_over_their_sums_are_a_gain(self, nx, channel):
        # the batch scores kernels as gains: dividing the prior and posterior by
        # the row sums is dividing the (nx, U, T) weights by them
        rng = np.random.default_rng(11)
        s = oracle._draw_scenarios(rng, nx, oracle._BLOCK, 8, channel)
        oracle._draw_gains(rng, s.prior.shape, 8)
        k, sums, _ = oracle._draw_kernels(rng, s.prior.shape, 8)
        folded = oracle._gain_ratios(s, k, sums)
        assert np.abs(folded - oracle._gain_ratios(s, k / sums[:, None, :])).max() <= 4e-15

    def test_indicator_replay_scores_two_secrets(self, monkeypatch):
        # replaying every indicator gain would cost O(nx^2) per chunk
        rng = np.random.default_rng(5)
        nx = 4000
        channel = FiniteMechanism.from_probs(range(nx), (0, 1), rng.dirichlet((1, 1), size=nx))
        calls = []
        score = oracle.gain_ratio
        monkeypatch.setattr(oracle, "gain_ratio", lambda *a: calls.append(a) or score(*a))
        high, low, gap = oracle._block(rng, nx, 1, oracle._indicators, 8, 8, channel)
        assert 1 <= len(calls) <= 2
        assert max(high, -low, gap) <= 1e-12

    @pytest.mark.parametrize("nx", [2, 4, 5, 8])
    @pytest.mark.parametrize("adversary", [oracle._gains, oracle._kernels],
                             ids=["gains", "kernels"])
    def test_three_dimensional_blocks_stay_small(self, adversary, nx):
        # a second (nx, W, T) table alone would take _BLOCK_ENTRIES floats at
        # nx = 4, 5 and 8; at nx = 2 the chunk is capped at 2 * _BLOCK trials
        rng = np.random.default_rng(0)
        with traced_peak() as peak:
            oracle._block(rng, nx, oracle._chunk(nx, 8), adversary, 8, 8, None)
        assert peak.bytes < 2 * leakage._BLOCK_ENTRIES * np.dtype(float).itemsize

    @staticmethod
    def record_chunks(monkeypatch):
        """[(adversary, nx, size)] of every chunk a run scores, in order."""
        chunks = []
        block = oracle._block

        def recording(rng, nx, size, adversary, *args):
            chunks.append((adversary, nx, size))
            return block(rng, nx, size, adversary, *args)

        monkeypatch.setattr(oracle, "_block", recording)
        return chunks

    @staticmethod
    def record_replays(monkeypatch):
        """[t] of every trial a run replays through the scalar functions, in order."""
        replayed = []
        trial = oracle._Scenarios.trial
        monkeypatch.setattr(oracle._Scenarios, "trial",
                            lambda s, t: replayed.append(t) or trial(s, t))
        return replayed

    def test_counts_off_the_block_size_run_exactly(self, monkeypatch):
        counts = dict(achievability_trials=1, gain_trials=2047, kernel_trials=2049)
        chunks = self.record_chunks(monkeypatch)
        report = run_adversary_trials(seed=3, channel=ZERO_MASS_CHANNEL, **counts)
        assert oracle._BLOCK == 1024 and oracle._chunk(3, 8) == 2048
        assert [size for _, _, size in chunks] == [1, 2047, 2048, 1]
        assert report.passed
        chunks.clear()
        report = run_adversary_trials(seed=3, **counts)
        assert report.passed
        for adversary, trials in zip((oracle._indicators, oracle._gains, oracle._kernels),
                                     counts.values()):
            phase = [(nx, size) for a, nx, size in chunks if a is adversary]
            assert sum(size for _, size in phase) == trials
            assert all(2 <= nx <= 8 and 1 <= size <= oracle._chunk(nx, 8) for nx, size in phase)

    def test_secret_counts_are_uniform(self, monkeypatch):
        # one multinomial per phase draws the same law as one count per trial:
        # uniform on 2..max_alphabet, which an off-by-one in the range breaks
        chunks = self.record_chunks(monkeypatch)
        run_adversary_trials(seed=4, achievability_trials=10_000, gain_trials=30_000,
                             kernel_trials=30_000, max_alphabet=8)
        counts = np.zeros(9, dtype=int)
        for _, nx, size in chunks:
            counts[nx] += size
        assert counts[:2].sum() == 0 and counts.sum() == 70_000
        statistic = stats.chisquare(counts[2:]).statistic
        assert statistic < stats.chi2.ppf(0.99, 6)

    def test_guess_counts_are_uniform(self, monkeypatch):
        # one multinomial per chunk draws the same law as one count per trial:
        # uniform on 1..max_guesses, which an off-by-one in the range breaks
        tallies = []
        for name in ("_draw_gains", "_draw_kernels"):
            tally = np.zeros(9, dtype=int)
            tallies.append(tally)

            def recording(rng, shape, max_guesses, draw=getattr(oracle, name), tally=tally):
                *tables, counts = draw(rng, shape, max_guesses)
                tally += np.bincount(counts, minlength=9)
                return *tables, counts

            monkeypatch.setattr(oracle, name, recording)
        run_adversary_trials(seed=4, achievability_trials=1, gain_trials=30_000,
                             kernel_trials=30_000, max_guesses=8)
        for tally in tallies:
            assert tally[0] == 0 and tally.sum() == 30_000
            assert stats.chisquare(tally[1:]).statistic < stats.chi2.ppf(0.99, 7)

    @pytest.mark.parametrize("size", [1, oracle._BLOCK, oracle._BLOCK + 1, 2 * oracle._BLOCK])
    @pytest.mark.parametrize("adversary, scorer", [
        (oracle._indicators, "gain_ratio"), (oracle._gains, "gain_ratio"),
        (oracle._kernels, "randomized_function_ratio")], ids=["indicators", "gains", "kernels"])
    def test_chunks_replay_one_trial_per_block(self, monkeypatch, adversary, scorer, size):
        # trials 0, _BLOCK, ... of a chunk: ceil(size / _BLOCK) replays
        replayed, calls = self.record_replays(monkeypatch), []
        score = getattr(oracle, scorer)
        monkeypatch.setattr(oracle, scorer, lambda *a: calls.append(a) or score(*a))
        rng = np.random.default_rng(2)
        high, low, gap = oracle._block(rng, 2, size, adversary, 8, 8, None)
        assert replayed == list(range(0, size, oracle._BLOCK))
        assert len(replayed) == -(-size // oracle._BLOCK) <= len(calls) <= 2 * len(replayed)
        assert max(high, gap) <= 1e-12

    def test_default_call_replays_a_trial_per_block_of_each_group(self, monkeypatch):
        # at least one replay per _BLOCK trials of a secret count, as many as
        # chunks of at most _BLOCK trials would replay: 7 + 14 + 14 at the
        # default counts
        replayed = self.record_replays(monkeypatch)
        chunks = self.record_chunks(monkeypatch)
        assert run_adversary_trials(seed=2024).passed
        groups = {}
        for adversary, nx, size in chunks:
            groups[adversary, nx] = groups.get((adversary, nx), 0) + size
        assert len(replayed) == sum(-(-size // oracle._BLOCK) for _, _, size in chunks)
        assert len(replayed) >= sum(-(-count // oracle._BLOCK) for count in groups.values()) >= 35

    def test_wide_channel_takes_smaller_blocks(self, monkeypatch):
        # 256 secrets x 8 guesses: 32 trials keep a chunk at _BLOCK_ENTRIES
        chunks = self.record_chunks(monkeypatch)
        rows = np.random.default_rng(0).dirichlet(np.ones(2), size=256)
        channel = FiniteMechanism.from_probs(range(256), (0, 1), rows)
        report = run_adversary_trials(seed=3, achievability_trials=40, gain_trials=32,
                                      kernel_trials=1, channel=channel)
        assert [size for _, _, size in chunks] == [32, 8, 32, 1]
        assert report.passed

    def test_reference_gap_catches_a_wrong_scalar_pml(self, monkeypatch):
        counts = dict(achievability_trials=10, gain_trials=10, kernel_trials=10)
        report = run_adversary_trials(seed=5, **counts)
        assert 0.0 <= report.max_reference_gap <= 1e-13 and report.passed
        monkeypatch.setattr(oracle, "pml", lambda prior, lls: pml(prior, lls) + 1e-9)
        report = run_adversary_trials(seed=5, **counts)
        assert report.max_reference_gap == pytest.approx(1e-9, rel=1e-3)
        assert not report.passed


# outcome 2's column lies wholly below e^-690: a log-domain sum of log P(x) +
# log P(y | x) rounds at ulp(690), about 1e-13
TINY_COLUMN_CHANNEL = FiniteMechanism.from_probs((0, 1, 2), (0, 1, 2), [
    [0.5, 0.5 - 1e-300, 1e-300], [0.5, 0.5 - 1e-305, 1e-305], [0.9, 0.1 - 1e-302, 1e-302]])


def reference_pml(prior, lls):
    """log max P(y | x) / P(y) in 50-digit mpmath, each float input taken as exact."""
    with mpmath.workdps(50):
        lls = [mpmath.mpf(float(v)) for v in lls]
        log_py = mpmath.log(mpmath.fsum(mpmath.mpf(float(p)) * mpmath.exp(v)
                                        for p, v in zip(prior, lls)))
        return max(lls) - log_py


def test_tiny_column_keeps_its_last_bits():
    # a fixed channel is scored from exp(log P(y | x) - its column maximum)
    rng = np.random.default_rng(11)
    s = oracle._draw_scenarios(rng, 3, oracle._BLOCK, 8, TINY_COLUMN_CHANNEL)
    assert set(s.outcome.tolist()) == {0, 1, 2}
    for t in range(oracle._BLOCK):
        lls = TINY_COLUMN_CHANNEL.logp[:, s.outcome[t]]
        assert abs(s.target[t] - float(reference_pml(s.prior[:, t], lls))) <= 2e-15
        # the replay reads the channel's own log table, not the shifted one
        assert s.trial(t)[1] == lls.tolist()


class _StubGenerator:
    """A seeded generator whose draws of the named kinds are one constant."""

    def __init__(self, **fills):
        self._rng = np.random.default_rng(0)
        self._fills = fills

    def __getattr__(self, name):
        if name not in self._fills:
            return getattr(self._rng, name)
        fill = self._fills[name]

        def draw(size=None, out=None):
            if out is None:
                return np.full(size, fill)
            out[...] = fill
            return out
        return draw


#: (secrets, trials)
SHAPE = (3, 4)


@pytest.mark.parametrize("draw, fills, message", [
    (lambda rng: oracle._draw_scenarios(rng, 3, 4, 3, None),
     {"random": 2.0}, "channel entry for 0 is nan, not a probability"),
    (lambda rng: oracle._draw_scenarios(rng, 3, 4, 2, None),
     {"random": -1.0}, "channel entry for 0 is -1, not a probability"),
    (lambda rng: oracle._draw_scenarios(rng, 3, 4, 3, ZERO_MASS_CHANNEL),
     {"standard_exponential": 0.0}, "full-support prior"),
    (lambda rng: oracle._draw_gains(rng, SHAPE, 3), {"random": -0.5}, "non-negative"),
    (lambda rng: oracle._draw_gains(rng, SHAPE, 3), {"random": 0.0}, "degenerate gain"),
    (lambda rng: oracle._draw_kernels(rng, SHAPE, 3),
     {"standard_exponential": 0.0}, "kernel rows must sum to 1"),
    (lambda rng: oracle._draw_kernels(rng, SHAPE, 3),
     {"standard_exponential": math.inf}, "kernel rows must sum to 1"),
    (lambda rng: oracle._draw_kernels(rng, SHAPE, 3),
     {"standard_exponential": math.nan}, "kernel rows must sum to 1"),
    (lambda rng: oracle._draw_kernels(rng, SHAPE, 3),
     {"standard_exponential": -1.0}, "negative kernel probability"),
], ids=["channel-row-mass", "channel-entry-negative", "prior-support", "negative-gain",
        "zero-gain", "kernel-rows", "kernel-rows-infinite", "kernel-rows-nan",
        "kernel-negative"])
def test_block_draws_are_validated(draw, fills, message):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        draw(_StubGenerator(**fills))


def full_channel_entries(rng, trials, width):
    """P(y | x) over each trial's 2..width secrets, read off a full channel with
    uniform Dirichlet rows over 2..width outcomes at a uniform outcome y: the
    law `_random_channels` draws one column of, here in trial order."""
    nx = rng.integers(2, width + 1, size=trials)
    ny = rng.integers(2, width + 1, size=trials)
    column = np.empty((trials, width))
    for k in range(2, width + 1):
        group = np.flatnonzero(ny == k)
        rows = rng.dirichlet(np.ones(k), size=(len(group), width))
        column[group] = rows[np.arange(len(group)), :, rng.integers(0, k, size=len(group))]
    return column[np.arange(width) < nx[:, None]]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, points, side="right") / len(a)
                               - np.searchsorted(b, points, side="right") / len(b))))


class TestRandomChannels:
    """The one-column draw against the full-channel sampler it replaces."""

    def test_entries_follow_the_full_channel_law(self):
        # drawn as a phase draws them: a group of trials at each secret count
        n = 10 ** 6
        rng = np.random.default_rng(1)
        drawn = np.concatenate([
            oracle._random_channels(rng, nx, count, 8).ravel()
            for nx, count in enumerate(rng.multinomial(210_000, [1 / 7] * 7), 2)])
        reference = full_channel_entries(np.random.default_rng(2), 210_000, 8)
        assert len(drawn) >= n and len(reference) >= n
        assert np.all((drawn >= 0) & (drawn <= 1))
        # 1 % critical value of the two-sample test, n entries a side
        critical = math.sqrt(-math.log(0.01 / 2) / 2) * math.sqrt(2 / n)
        assert ks_distance(drawn[:n], reference[:n]) < critical

    def test_no_full_channel_is_allocated(self):
        rng = np.random.default_rng(0)
        with traced_peak() as peak:
            oracle._draw_scenarios(rng, 8, oracle._BLOCK, 8, None)
        assert peak.bytes < oracle._BLOCK * 8 * 8 * np.dtype(float).itemsize


def pinned(loops):
    """The pins recorded for a set of numpy loops; a skip where there are none."""
    if loops not in PINS["loops"]:
        pytest.skip(f"no pins recorded for numpy loops {loops}")
    return PINS["loops"][loops]


def test_pins_cover_every_run():
    for pins in PINS["loops"].values():
        assert pins["reports"].keys() == make_oracle_golden.REPORT_RUNS.keys()
        assert pins["blocks"].keys() == make_oracle_golden.BLOCKS.keys()


def test_loop_sets_agree_to_rounding():
    # the loops round some lanes apart; a report moves by no more than that
    reports = [pins["reports"] for pins in PINS["loops"].values()]
    for name in make_oracle_golden.REPORT_RUNS:
        for field, value in reports[0][name].items():
            for other in reports[1:]:
                if isinstance(value, str):
                    assert math.isclose(float.fromhex(value), float.fromhex(other[name][field]),
                                        rel_tol=0.0, abs_tol=1e-15), (name, field)
                else:
                    assert value == other[name][field], (name, field)


def test_generator_lists_the_pins_that_move():
    old = PINS["loops"]
    assert make_oracle_golden.differences(old, old) == []
    loops = next(iter(old))
    new = json.loads(json.dumps(old))
    new[loops]["reports"]["default-counts"]["max_gain_excess"] = "0x0.0p+0"
    del new[loops]["blocks"]["zero-mass-channel"]["gains"]
    new["other loops"] = {"reports": {}, "blocks": {"zero-mass-channel": {"gains": "ab"}}}
    was_gain = old[loops]["reports"]["default-counts"]["max_gain_excess"]
    was_digest = old[loops]["blocks"]["zero-mass-channel"]["gains"]
    assert sorted(make_oracle_golden.differences(old, new)) == sorted([
        f"{loops} | reports | default-counts | max_gain_excess: {was_gain} -> 0x0.0p+0",
        f"{loops} | blocks | zero-mass-channel | gains: {was_digest} -> -",
        "other loops | blocks | zero-mass-channel | gains: - -> ab"])


@pytest.mark.parametrize("name", make_oracle_golden.REPORT_RUNS)
def test_seed_2024_reports_are_pinned(name):
    fields, passed = make_oracle_golden.report(name)
    assert passed and fields == pinned(make_oracle_golden.numpy_loops())["reports"][name]


def test_block_bits_are_pinned():
    here = make_oracle_golden.pins()
    assert here["blocks"] == pinned(here["loops"])["blocks"]


@pytest.fixture(scope="module")
def without_avx512():
    """The seed-2024 reports, the numpy loops and the block digests, from a
    child process that has numpy's AVX-512 loops switched off."""
    return make_oracle_golden.child_pins()


def test_seed_2024_reports_without_avx512_loops(without_avx512):
    # numpy's float64 exp, log1p and expm1 take other loops in a process
    # that has the AVX-512 ones switched off; each report passes on either
    assert without_avx512["reports"] == {
        name: [want, True] for name, want in pinned(without_avx512["loops"])["reports"].items()}


def test_block_bits_without_avx512_loops(without_avx512):
    assert without_avx512["blocks"] == pinned(without_avx512["loops"])["blocks"]
