"""Monte-Carlo shot simulation and binomial maximum-likelihood inversion.

For a two-outcome projective measurement the likelihood depends on the
parameter only through the outcome probability p(theta), so the MLE reduces
to solving p(theta) = x/n inside a caller-supplied bracket.

PRNG: NumPy PCG64. Trial k of a run draws from
``numpy.random.default_rng([seed, k])``, i.e. PCG64 seeded through
``SeedSequence((seed, k))``; runs are bit-reproducible given (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import check_projector, evolve, outcome_probability
from .errors import AllTrialsFailed, NoRoot, NotBracketed
from .models import HamiltonianModel

SCAN_POINTS = 64
ROOT_FTOL = 1e-12
ROOT_XTOL = 1e-12
MAX_ROOT_ITER = 200


@dataclass(frozen=True)
class ShotRecord:
    n: int
    x: int
    p_hat: float

    def __post_init__(self):
        if not 0 <= self.x <= self.n:
            raise ValueError(f"shot count x={self.x} outside [0, n={self.n}]")


@dataclass(frozen=True)
class EstimationRun:
    trials: int
    estimates: np.ndarray
    mean: float
    sigma: float
    sigma_err: float
    precision: float
    precision_err: float
    failed_trials: int
    # p(theta) is not strictly monotone on the bracket's scan grid, so the
    # inversion may have taken the first of several roots.
    non_monotone_scan: bool


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator: PCG64 seeded by SeedSequence((seed, trial))."""
    return np.random.default_rng([seed, trial])


def sample_shots(p: float, n: int, rng: np.random.Generator) -> ShotRecord:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    x = int(rng.binomial(n, p))
    return ShotRecord(n=n, x=x, p_hat=x / n)


@dataclass(frozen=True)
class BracketScan:
    """p(theta) on the uniform scan grid of one bracket.

    p(theta) does not depend on the shot count, so one scan serves every
    inversion at a sweep point. `p[i]` is `p_of(grid[i])`.
    """

    grid: np.ndarray
    p: list
    p_of: Callable[[float], float]

    @property
    def monotone(self) -> bool:
        """True when p strictly increases or strictly decreases on the grid."""
        steps = np.diff(self.p)
        return bool((steps > 0).all() or (steps < 0).all())


def _probability_fn(model, t, psi0, A):
    """p(theta); A must already have passed `check_projector`."""
    def p_of(theta):
        return outcome_probability(evolve(model, theta, t, psi0).phi_out, A)

    return p_of


def _bounds(bracket) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise NotBracketed(f"empty bracket ({lo}, {hi})")
    return lo, hi


def _scan(p_of, lo: float, hi: float, scan_points: int) -> BracketScan:
    grid = np.linspace(lo, hi, scan_points)
    return BracketScan(grid=grid, p=[p_of(th) for th in grid], p_of=p_of)


def _polish_root(f, a, b, fa, fb):
    """Bracketed root solve alternating secant and bisection steps."""
    for it in range(MAX_ROOT_ITER):
        if fb != fa and it % 2 == 0:
            x = b - fb * (b - a) / (fb - fa)
            if not a < x < b:
                x = 0.5 * (a + b)
        else:
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) < ROOT_FTOL or (b - a) < ROOT_XTOL:
            return x
        if (fa < 0) != (fx < 0):
            b, fb = x, fx
        else:
            a, fa = x, fx
    return 0.5 * (a + b)


def mle_invert(model: HamiltonianModel, t: float, psi0, A, shot: ShotRecord,
               bracket, scan_points: int = SCAN_POINTS,
               scan: BracketScan | None = None) -> float:
    """Solve p(theta) = x/n for theta inside the bracket.

    The bracket is scanned on a uniform grid for a sign change of
    p(theta) - x/n; the enclosing interval is then polished to 1e-12. All
    roots inside the bracket tie in likelihood (the likelihood depends on
    theta only through p), so the first one is returned.

    `scan` is the bracket's precomputed scan (as `run_trials` builds it for
    the same model, t, psi0, validated A and bracket); without it the scan
    is evaluated here. Either way the result is the same to the bit.
    """
    lo, hi = _bounds(bracket)
    if scan is None:
        scan = _scan(_probability_fn(model, t, psi0, check_projector(A)), lo, hi, scan_points)
    grid, p_of = scan.grid, scan.p_of
    target = shot.p_hat
    vals = [p - target for p in scan.p]
    for i in range(len(grid) - 1):
        if abs(vals[i]) < ROOT_FTOL:
            return float(grid[i])
        if (vals[i] < 0) != (vals[i + 1] < 0):
            return float(_polish_root(lambda th: p_of(th) - target,
                                      grid[i], grid[i + 1], vals[i], vals[i + 1]))
    if abs(vals[-1]) < ROOT_FTOL:
        return float(grid[-1])
    raise NoRoot(f"p(theta) never crosses x/n = {target} on the bracket ({lo}, {hi})")


def run_trials(model: HamiltonianModel, theta_true: float, t: float, psi0, A,
               n: int, trials: int, seed: int, bracket) -> EstimationRun:
    """Repeat (sample n shots, invert the MLE) `trials` times and summarize.

    Failed inversions (NoRoot) are counted and excluded from the statistics,
    never silently dropped. The estimator for a given shot count x is
    deterministic, so inversions are memoized on x. The projector is
    validated and the bracket scanned once per call; every inversion reuses
    that scan, which gives the same estimates as scanning per inversion.
    """
    if n < 1 or trials < 2:
        raise ValueError(f"need n >= 1 and trials >= 2, got n={n}, trials={trials}")
    p_of = _probability_fn(model, t, psi0, check_projector(A))
    p = p_of(theta_true)
    shots = [sample_shots(p, n, trial_rng(seed, k)) for k in range(trials)]
    scan = _scan(p_of, *_bounds(bracket), SCAN_POINTS)

    cache: dict[int, float | None] = {}
    estimates = []
    failed = 0
    for shot in shots:
        if shot.x not in cache:
            try:
                cache[shot.x] = mle_invert(model, t, psi0, A, shot, bracket, scan=scan)
            except NoRoot:
                cache[shot.x] = None
        est = cache[shot.x]
        if est is None:
            failed += 1
        else:
            estimates.append(est)
    if not estimates:
        raise AllTrialsFailed(f"all {trials} trials failed MLE inversion")

    estimates = np.array(estimates)
    mean = float(estimates.mean())
    sigma = float(estimates.std(ddof=1)) if len(estimates) > 1 else 0.0
    spread = np.sqrt(2.0 * (trials - 1))
    precision = 1.0 / (sigma * np.sqrt(n)) if sigma > 0 else np.inf
    return EstimationRun(
        trials=trials,
        estimates=estimates,
        mean=mean,
        sigma=sigma,
        sigma_err=sigma / spread,
        precision=precision,
        precision_err=precision / spread,
        failed_trials=failed,
        non_monotone_scan=not scan.monotone,
    )
