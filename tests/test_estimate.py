import math

import numpy as np
import pytest

from nhmetro import estimate, linalg, pt_model, kappa_model
from nhmetro.dynamics import evolve, survival_probability
from nhmetro.errors import AllTrialsFailed, NotBracketed, Unconverged
from nhmetro.estimate import (SCAN_POINTS, ShotRecord, mle_invert, run_trials,
                              sample_shots, trial_rng)

from conftest import BRACKETS, MLE_SEED


class TestSampleShots:
    def test_degenerate_probabilities(self):
        rng = trial_rng(0, 0)
        assert sample_shots(0.0, 1000, rng).x == 0
        assert sample_shots(1.0, 1000, rng).x == 1000

    def test_concentration(self):
        p, n = 0.9104, 10 ** 6
        shot = sample_shots(p, n, trial_rng(123, 0))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(shot.p_hat - p) < 5 * sigma

    def test_documented_prng_vectors(self):
        # frozen draws for the documented seeding scheme (PCG64 via
        # default_rng([seed, trial])); any change to the scheme breaks
        # golden CSV reproducibility and must fail here
        assert trial_rng(42, 0).binomial(2000, 0.5) == 974
        assert trial_rng(42, 1).binomial(2000, 0.5) == 982
        assert trial_rng(7, 0).binomial(100, 0.25) == 26

    def test_shot_record_validation(self):
        with pytest.raises(ValueError):
            ShotRecord(n=10, x=11, p_hat=1.1)


class TestMleInvert:
    def test_exact_recovery(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 4
        p = survival_probability(evolve(m, 1.0, t, ket0), proj0)
        shot = ShotRecord(n=1, x=0, p_hat=p)  # p_hat carries the exact value
        inversion = mle_invert(m, t, ket0, proj0, [shot], (0.7, 1.3))
        assert inversion.monotone
        assert abs(inversion.estimates[0] - 1.0) < 1e-9

    def test_roots_on_the_scan_grid_are_exact(self, ket0, proj0):
        # p(s) falls on the bracket, so p(hi) has no sign change before it
        # and is caught by the check of the last grid point
        m = pt_model(1.0, math.pi / 4, "s")
        t, lo, hi = math.pi / 4, 0.7, 1.3
        grid = np.linspace(lo, hi, SCAN_POINTS)
        shots = [ShotRecord(n=1, x=0, p_hat=survival_probability(evolve(m, th, t, ket0), proj0))
                 for th in (grid[5], grid[-1])]
        estimates = mle_invert(m, t, ket0, proj0, shots, (lo, hi)).estimates
        assert estimates.tolist() == [grid[5], grid[-1]]

    def test_no_root_outside_range(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        shot = ShotRecord(n=10, x=10, p_hat=1.0)  # p never reaches 1 on this bracket
        estimates = mle_invert(m, math.pi / 4, ket0, proj0, [shot], (0.9, 1.1)).estimates
        assert estimates.shape == (1,) and np.isnan(estimates[0])

    def test_empty_bracket(self, ket0, proj0):
        shot = ShotRecord(n=10, x=5, p_hat=0.5)
        m = pt_model(1.0, math.pi / 4, "s")
        with pytest.raises(NotBracketed):
            mle_invert(m, 1.0, ket0, proj0, [shot], (1.2, 0.8))
        with pytest.raises(NotBracketed):
            run_trials(m, 1.0, 1.0, ket0, proj0, 10, 2, 0, (1.2, 0.8))


class TestRunTrials:
    def test_reproducible(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        a = run_trials(m, 1.0, math.pi / 4, ket0, proj0, 500, 20, 99, (0.7, 1.3))
        b = run_trials(m, 1.0, math.pi / 4, ket0, proj0, 500, 20, 99, (0.7, 1.3))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.sigma == b.sigma

    def test_error_bar_formulas(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        run = run_trials(m, 1.0, math.pi / 4, ket0, proj0, 500, 2, 5, (0.7, 1.3))
        assert run.sigma_err == run.sigma / math.sqrt(2)
        assert run.precision_err == run.precision / math.sqrt(2)
        run = run_trials(m, 1.0, math.pi / 4, ket0, proj0, 500, 50, 5, (0.7, 1.3))
        spread = math.sqrt(2 * 49)
        assert run.sigma_err == run.sigma / spread
        assert run.precision_err == run.precision / spread

    def test_golden_precision_pt_s(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = 10 * math.pi / 8
        run = run_trials(m, 1.0, t, ket0, proj0, 2000, 1000, MLE_SEED,
                         BRACKETS["pt-s"][9])
        assert abs(run.precision - 13.3574) / 13.3574 < 0.08

    def test_golden_precision_kappa(self, ket0, proj0):
        m = kappa_model(2.0)
        t = 3 * math.pi / 6
        run = run_trials(m, 2.0, t, ket0, proj0, 1100, 1000, MLE_SEED,
                         BRACKETS["kappa"][2])
        assert abs(run.precision - 1.3985) / 1.3985 < 0.08

    def test_sigma_shrinks_with_n(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 2
        bracket = BRACKETS["pt-s"][3]
        s1 = run_trials(m, 1.0, t, ket0, proj0, 1000, 1000, 11, bracket).sigma
        s2 = run_trials(m, 1.0, t, ket0, proj0, 2000, 1000, 11, bracket).sigma
        assert abs(s1 / s2 - math.sqrt(2)) < 0.1 * math.sqrt(2)

    def test_all_trials_failed(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        # bracket far from the truth: p never reaches the sampled frequencies
        with pytest.raises(AllTrialsFailed):
            run_trials(m, 1.0, math.pi, ket0, proj0, 2000, 5, 3, (2.9, 3.0))


def single_shot_inversions(model, theta_true, t, psi0, A, n, trials, seed, bracket):
    """Estimates and failure count from one `mle_invert` call per shot."""
    p = survival_probability(evolve(model, theta_true, t, psi0), A)
    estimates, failed = [], 0
    for k in range(trials):
        shot = sample_shots(p, n, trial_rng(seed, k))
        est = mle_invert(model, t, psi0, A, [shot], bracket).estimates[0]
        if np.isnan(est):
            failed += 1
        else:
            estimates.append(est)
    return np.array(estimates), failed


class TestSharedScan:
    """`run_trials` inverts all shots in one batched `mle_invert` call; each
    estimate must equal the bits of inverting its shot alone."""

    PT_S = pt_model(1.0, math.pi / 4, "s")

    def test_estimates_match_unscanned_inversions(self, ket0, proj0):
        args = (self.PT_S, 1.0, 10 * math.pi / 8, ket0, proj0, 2000, 150, MLE_SEED,
                BRACKETS["pt-s"][9])
        run = run_trials(*args)
        estimates, failed = single_shot_inversions(*args)
        assert np.array_equal(run.estimates, estimates)
        assert run.failed_trials == failed == 0
        assert not run.non_monotone_scan

    def test_failed_trials_match_unscanned_inversions(self, ket0, proj0):
        # the bracket covers only about +-0.6 sigma of the shot frequency,
        # so many shot counts have no root inside it
        args = (self.PT_S, 1.0, math.pi / 4, ket0, proj0, 2000, 120, 5, (0.98, 1.02))
        run = run_trials(*args)
        estimates, failed = single_shot_inversions(*args)
        assert 0 < run.failed_trials < 120
        assert run.failed_trials == failed
        assert np.array_equal(run.estimates, estimates)

    def test_evolve_calls_per_run(self, ket0, proj0, monkeypatch):
        calls = []

        def counting_evolve(*args):
            calls.append(args[1])
            return evolve(*args)

        monkeypatch.setattr(estimate, "evolve", counting_evolve)
        t, n, trials = 10 * math.pi / 8, 2000, 1000
        run = run_trials(self.PT_S, 1.0, t, ket0, proj0, n, trials, MLE_SEED,
                         BRACKETS["pt-s"][9])
        p = survival_probability(evolve(self.PT_S, 1.0, t, ket0), proj0)
        distinct = {sample_shots(p, n, trial_rng(MLE_SEED, k)).x for k in range(trials)}
        assert run.failed_trials == 0
        # one p(theta_true), one batched scan, then one batched call per
        # polish round over every shot count still open
        assert 3 <= len(calls) <= 2 + 12
        assert len(calls[1]) == SCAN_POINTS
        assert len(calls[2]) == len(distinct)

    def test_non_monotone_bracket_is_flagged(self, ket0, proj0):
        # at t = pi/2, p(s) falls to 0 at s = 2.121 and climbs back to 0.80 at
        # s = 2.6: every shot frequency near p(1.8) = 0.129 has a root on each side
        args = (self.PT_S, 1.8, math.pi / 2, ket0, proj0, 2000, 60, 3, (1.5, 2.6))
        run = run_trials(*args)
        assert run.non_monotone_scan
        estimates, failed = single_shot_inversions(*args)
        assert np.array_equal(run.estimates, estimates)
        assert run.failed_trials == failed
        # the first root is the one left of the minimum, next to the truth
        assert np.all(run.estimates < 2.121)
        assert abs(run.mean - 1.8) < 0.01

    def test_monotone_part_is_not_flagged(self, ket0, proj0):
        run = run_trials(self.PT_S, 1.8, math.pi / 2, ket0, proj0, 2000, 10, 3, (1.5, 2.0))
        assert not run.non_monotone_scan

    @pytest.mark.parametrize("theta, t, bracket", [
        (1.0, 10 * math.pi / 8, BRACKETS["pt-s"][9]),
        (1.0, math.pi / 4, (0.98, 1.02)),
        (1.8, math.pi / 2, (1.5, 2.6)),
    ], ids=["monotone", "failing", "non-monotone"])
    def test_batched_inversion_matches_single_shots(self, ket0, proj0, theta, t, bracket):
        p = survival_probability(evolve(self.PT_S, theta, t, ket0), proj0)
        shots = [sample_shots(p, 2000, trial_rng(3, k)) for k in range(40)]
        batched = mle_invert(self.PT_S, t, ket0, proj0, shots, bracket).estimates
        single = [mle_invert(self.PT_S, t, ket0, proj0, [shot], bracket).estimates[0]
                  for shot in shots]
        assert batched.shape == (40,)
        assert np.array_equal(batched, single, equal_nan=True)

    def test_unconverged_polish_raises(self, ket0, proj0, monkeypatch):
        monkeypatch.setattr(estimate, "MAX_ROOT_ITER", 1)
        p = survival_probability(evolve(self.PT_S, 1.0, math.pi / 4, ket0), proj0)
        x = round(2000 * p)
        shot = ShotRecord(n=2000, x=x, p_hat=x / 2000)
        with pytest.raises(Unconverged):
            mle_invert(self.PT_S, math.pi / 4, ket0, proj0, [shot], (0.62, 1.38))
