import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import estimate, linalg, pt_model, kappa_model
from nhmetro.dynamics import evolve, outcome_probability
from nhmetro.errors import AllTrialsFailed, NotBracketed, Unconverged
from nhmetro.estimate import (SCAN_POINTS, mle_invert, run_trials, sample_shots,
                              trial_generators)

from conftest import BRACKETS, MLE_SEED
from reference import trial_rng


def probability(model, theta, t, psi0, A):
    """p(theta): the probability of the outcome of the projector A."""
    return outcome_probability(evolve(model, theta, t, psi0).phi_out, A)


class TestSampleShots:
    def test_degenerate_probabilities(self):
        rng = trial_rng(0, 0)
        assert sample_shots(0.0, 1000, rng) == 0
        assert sample_shots(1.0, 1000, rng) == 1000

    def test_concentration(self):
        p, n = 0.9104, 10 ** 6
        x = sample_shots(p, n, trial_rng(123, 0))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(x / n - p) < 5 * sigma

    def test_documented_prng_vectors(self):
        # frozen draws for the documented seeding scheme (PCG64 via
        # default_rng([seed, trial])); any change to the scheme breaks
        # golden CSV reproducibility and must fail here
        first, second = trial_generators(42, 2)
        assert first.binomial(2000, 0.5) == 974
        assert second.binomial(2000, 0.5) == 982
        assert next(trial_generators(7, 2)).binomial(100, 0.25) == 26
        assert trial_rng(42, 0).binomial(2000, 0.5) == 974
        assert trial_rng(42, 1).binomial(2000, 0.5) == 982
        assert trial_rng(7, 0).binomial(100, 0.25) == 26


def assert_numpy_streams(seed, trials):
    """Every trial generator starts in the state of NumPy's own."""
    generators = list(trial_generators(seed, trials))
    assert len(generators) == trials
    for k, rng in enumerate(generators):
        assert rng.bit_generator.state == trial_rng(seed, k).bit_generator.state, k


class TestTrialGenerators:
    """`trial_generators` hashes the seed words of all trials in one array
    step; each stream must be NumPy's default_rng([seed, k]) bit for bit."""

    # one and two entropy words, four (the pool), five (longer than the
    # pool, so the extra-entropy loop runs) and six
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**130 + 11])
    def test_every_trial_is_numpys_stream(self, seed):
        assert_numpy_streams(seed, 1000)

    # seeds in [0, 2**140), drawn word count first, so that seeds of four or
    # five words (entropy longer than the pool) are as common as short ones
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(1, 5).flatmap(lambda words: st.integers(
               2**(32 * words - 32) if words > 1 else 0, min(2**(32 * words), 2**140) - 1)),
           trials=st.integers(2, 3000))
    def test_any_seed_gives_numpys_streams(self, seed, trials):
        assert_numpy_streams(seed, trials)

    def test_invalid_seed_or_trial_count(self):
        with pytest.raises(ValueError):
            next(trial_generators(-1, 2))
        with pytest.raises(ValueError):
            next(trial_generators(0, 2**32 + 1))

    def test_run_trials_hashes_no_seed_sequence(self, ket0, proj0, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-trial SeedSequence was built")

        draws = []

        def counting_sample_shots(p, n, rng):
            draws.append(rng)
            return sample_shots(p, n, rng)

        m = pt_model(1.0, math.pi / 4, "s")
        p = probability(m, 1.0, math.pi / 4, ket0, proj0)
        expected = run_trials(m, math.pi / 4, ket0, proj0, p, 500, 30, 99, (0.7, 1.3))
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        monkeypatch.setattr(estimate, "sample_shots", counting_sample_shots)
        run = run_trials(m, math.pi / 4, ket0, proj0, p, 500, 30, 99, (0.7, 1.3))
        # one draw per trial, each from its own generator
        assert len(draws) == len({id(rng) for rng in draws}) == 30
        assert np.array_equal(run.estimates, expected.estimates)


class TestMleInvert:
    def test_exact_recovery(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 4
        p = probability(m, 1.0, t, ket0, proj0)
        inversion = mle_invert(m, t, ket0, proj0, [p], (0.7, 1.3))
        assert inversion.monotone
        assert abs(inversion.estimates[0] - 1.0) < 1e-9

    def test_roots_on_the_scan_grid_are_exact(self, ket0, proj0):
        # p(s) falls on the bracket, so p(hi) has no sign change before it
        # and is caught by the check of the last grid point
        m = pt_model(1.0, math.pi / 4, "s")
        t, lo, hi = math.pi / 4, 0.7, 1.3
        grid = np.linspace(lo, hi, SCAN_POINTS)
        frequencies = [probability(m, th, t, ket0, proj0) for th in (grid[5], grid[-1])]
        estimates = mle_invert(m, t, ket0, proj0, frequencies, (lo, hi)).estimates
        assert estimates.tolist() == [grid[5], grid[-1]]

    def test_no_root_outside_range(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        # p never reaches 1 on this bracket
        estimates = mle_invert(m, math.pi / 4, ket0, proj0, [1.0], (0.9, 1.1)).estimates
        assert estimates.shape == (1,) and np.isnan(estimates[0])

    def test_empty_bracket(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        with pytest.raises(NotBracketed):
            mle_invert(m, 1.0, ket0, proj0, [0.5], (1.2, 0.8))
        with pytest.raises(NotBracketed):
            run_trials(m, 1.0, ket0, proj0, 0.5, 10, 2, 0, (1.2, 0.8))


class TestRunTrials:
    def test_reproducible(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        args = (m, math.pi / 4, ket0, proj0, probability(m, 1.0, math.pi / 4, ket0, proj0),
                500, 20, 99, (0.7, 1.3))
        a, b = run_trials(*args), run_trials(*args)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.precision == b.precision

    def test_error_bar_formulas(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        p = probability(m, 1.0, math.pi / 4, ket0, proj0)
        run = run_trials(m, math.pi / 4, ket0, proj0, p, 500, 2, 5, (0.7, 1.3))
        assert run.precision_err == run.precision / math.sqrt(2)
        run = run_trials(m, math.pi / 4, ket0, proj0, p, 500, 50, 5, (0.7, 1.3))
        assert run.precision_err == run.precision / math.sqrt(2 * 49)

    def test_error_bar_counts_solved_trials(self, ket0, proj0):
        # sigma rests on the m solved trials, and so does its error bar; one
        # solved trial has no spread, so both read inf
        m, t = pt_model(1.0, math.pi / 4, "s"), math.pi / 8
        p = probability(m, 1.0, t, ket0, proj0)
        run = run_trials(m, t, ket0, proj0, p, 2000, 12, 20260823, (0.97, 1.03))
        assert run.failed_trials == 4
        assert run.precision_err == run.precision / math.sqrt(2 * 7)
        run = run_trials(m, t, ket0, proj0, p, 2000, 12, 20260825, (0.999, 1.001))
        assert run.failed_trials == 11
        assert run.precision == run.precision_err == math.inf

    def test_golden_precision_pt_s(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = 10 * math.pi / 8
        run = run_trials(m, t, ket0, proj0, probability(m, 1.0, t, ket0, proj0), 2000, 1000,
                         MLE_SEED, BRACKETS["pt-s"][9])
        assert abs(run.precision - 13.3574) / 13.3574 < 0.08

    def test_golden_precision_kappa(self, ket0, proj0):
        m = kappa_model(2.0)
        t = 3 * math.pi / 6
        run = run_trials(m, t, ket0, proj0, probability(m, 2.0, t, ket0, proj0), 1100, 1000,
                         MLE_SEED, BRACKETS["kappa"][2])
        assert abs(run.precision - 1.3985) / 1.3985 < 0.08

    def test_sigma_shrinks_with_n(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 2
        p, bracket = probability(m, 1.0, t, ket0, proj0), BRACKETS["pt-s"][3]
        s1 = run_trials(m, t, ket0, proj0, p, 1000, 1000, 11, bracket).estimates.std(ddof=1)
        s2 = run_trials(m, t, ket0, proj0, p, 2000, 1000, 11, bracket).estimates.std(ddof=1)
        assert abs(s1 / s2 - math.sqrt(2)) < 0.1 * math.sqrt(2)

    def test_all_trials_failed(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        # bracket far from the truth: p never reaches the sampled frequencies
        with pytest.raises(AllTrialsFailed):
            run_trials(m, math.pi, ket0, proj0, probability(m, 1.0, math.pi, ket0, proj0),
                       2000, 5, 3, (2.9, 3.0))


def single_shot_inversions(model, t, psi0, A, p, n, trials, seed, bracket):
    """Estimates, their trial numbers and the failure count from one
    `mle_invert` call per trial."""
    estimates, solved, failed = [], [], 0
    for k in range(trials):
        x = sample_shots(p, n, trial_rng(seed, k))
        est = mle_invert(model, t, psi0, A, [x / n], bracket).estimates[0]
        if np.isnan(est):
            failed += 1
        else:
            estimates.append(est)
            solved.append(k)
    return np.array(estimates), solved, failed


class TestSharedScan:
    """`run_trials` inverts all shots in one batched `mle_invert` call; each
    estimate must equal the bits of inverting its shot alone."""

    PT_S = pt_model(1.0, math.pi / 4, "s")

    def run_args(self, theta, t, psi0, A, *rest):
        """run_trials arguments that sample p(theta) of PT_S."""
        return (self.PT_S, t, psi0, A, probability(self.PT_S, theta, t, psi0, A), *rest)

    def test_estimates_match_unscanned_inversions(self, ket0, proj0):
        args = self.run_args(1.0, 10 * math.pi / 8, ket0, proj0, 2000, 150, MLE_SEED,
                             BRACKETS["pt-s"][9])
        run = run_trials(*args)
        estimates, _, failed = single_shot_inversions(*args)
        assert np.array_equal(run.estimates, estimates)
        assert run.failed_trials == failed == 0
        assert not run.non_monotone_scan

    def test_failed_trials_match_unscanned_inversions(self, ket0, proj0):
        # the bracket covers only about +-0.6 sigma of the shot frequency,
        # so many shot counts have no root inside it
        args = self.run_args(1.0, math.pi / 4, ket0, proj0, 2000, 120, 5, (0.98, 1.02))
        run = run_trials(*args)
        estimates, solved, failed = single_shot_inversions(*args)
        assert 0 < run.failed_trials < 120
        assert run.failed_trials == failed
        assert np.array_equal(run.estimates, estimates)
        assert run.solved_trials.tolist() == solved

    def test_evolve_calls_per_run(self, ket0, proj0, monkeypatch):
        calls = []

        def counting_evolve(*args):
            calls.append(args[1])
            return evolve(*args)

        t, n, trials = 10 * math.pi / 8, 2000, 1000
        p = probability(self.PT_S, 1.0, t, ket0, proj0)
        monkeypatch.setattr(estimate, "evolve", counting_evolve)
        run = run_trials(self.PT_S, t, ket0, proj0, p, n, trials, MLE_SEED, BRACKETS["pt-s"][9])
        distinct = {sample_shots(p, n, trial_rng(MLE_SEED, k)) for k in range(trials)}
        assert run.failed_trials == 0
        # the caller's p is sampled as given: one batched scan, then one
        # batched call per polish round over every shot count still open
        assert 2 <= len(calls) <= 1 + 12
        assert len(calls[0]) == SCAN_POINTS
        assert len(calls[1]) == len(distinct)

    def test_non_monotone_bracket_is_flagged(self, ket0, proj0):
        # at t = pi/2, p(s) falls to 0 at s = 2.121 and climbs back to 0.80 at
        # s = 2.6: every shot frequency near p(1.8) = 0.129 has a root on each side
        args = self.run_args(1.8, math.pi / 2, ket0, proj0, 2000, 60, 3, (1.5, 2.6))
        run = run_trials(*args)
        assert run.non_monotone_scan
        estimates, _, failed = single_shot_inversions(*args)
        assert np.array_equal(run.estimates, estimates)
        assert run.failed_trials == failed
        # the first root is the one left of the minimum, next to the truth
        assert np.all(run.estimates < 2.121)
        assert abs(run.mean - 1.8) < 0.01

    def test_monotone_part_is_not_flagged(self, ket0, proj0):
        run = run_trials(*self.run_args(1.8, math.pi / 2, ket0, proj0, 2000, 10, 3, (1.5, 2.0)))
        assert not run.non_monotone_scan

    @pytest.mark.parametrize("theta, t, bracket", [
        (1.0, 10 * math.pi / 8, BRACKETS["pt-s"][9]),
        (1.0, math.pi / 4, (0.98, 1.02)),
        (1.8, math.pi / 2, (1.5, 2.6)),
    ], ids=["monotone", "failing", "non-monotone"])
    def test_batched_inversion_matches_single_shots(self, ket0, proj0, theta, t, bracket):
        p = probability(self.PT_S, theta, t, ket0, proj0)
        frequencies = [sample_shots(p, 2000, trial_rng(3, k)) / 2000 for k in range(40)]
        batched = mle_invert(self.PT_S, t, ket0, proj0, frequencies, bracket).estimates
        single = [mle_invert(self.PT_S, t, ket0, proj0, [q], bracket).estimates[0]
                  for q in frequencies]
        assert batched.shape == (40,)
        assert np.array_equal(batched, single, equal_nan=True)

    def test_unconverged_polish_raises(self, ket0, proj0, monkeypatch):
        monkeypatch.setattr(estimate, "MAX_ROOT_ITER", 1)
        p = probability(self.PT_S, 1.0, math.pi / 4, ket0, proj0)
        x = round(2000 * p)
        with pytest.raises(Unconverged):
            mle_invert(self.PT_S, math.pi / 4, ket0, proj0, [x / 2000], (0.62, 1.38))
