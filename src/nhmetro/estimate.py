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

import numpy as np

from .dynamics import check_projector, evolve, outcome_probability, survival_probability
from .errors import AllTrialsFailed, NotBracketed, Unconverged
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
class Inversion:
    """MLE estimates for a sequence of shots on one bracket.

    `estimates[i]` belongs to the i-th shot and is NaN when p(theta) never
    reaches its x/n on the bracket. `monotone` is False when p(theta) is not
    strictly monotone on the scan grid, so an estimate may be the first of
    several roots.
    """

    estimates: np.ndarray
    monotone: bool


def _bounds(bracket) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise NotBracketed(f"empty bracket ({lo}, {hi})")
    return lo, hi


def _probabilities(model, thetas, t, psi0, A) -> np.ndarray:
    """p at each theta from one batched `evolve`; A must be validated."""
    return np.array([outcome_probability(phi, A)
                     for phi in evolve(model, thetas, t, psi0).phi_out])


def mle_invert(model: HamiltonianModel, t: float, psi0, A, shots, bracket) -> Inversion:
    """Solve p(theta) = x/n inside the bracket for every shot at once.

    The likelihood depends on theta only through p, so every root inside
    the bracket ties and the first one is taken. Each distinct x/n goes
    through the same steps:

    - scan: the first grid point where |p - x/n| < ROOT_FTOL is the
      estimate; the first sign change of p - x/n between neighbours is
      polished; with neither there is no root (NaN);
    - polish: secant steps (bisection when they leave the interval)
      alternate with bisection until |p - x/n| < ROOT_FTOL or the interval
      is narrower than ROOT_XTOL. An x/n still open after MAX_ROOT_ITER
      rounds raises Unconverged.

    The scan grid is one `evolve` call, and each polish round is one call
    over every x/n still open.
    """
    lo, hi = _bounds(bracket)
    A = check_projector(A)
    targets, inverse = np.unique([shot.p_hat for shot in shots], return_inverse=True)
    grid = np.linspace(lo, hi, SCAN_POINTS)
    p = _probabilities(model, grid, t, psi0, A)
    steps = np.diff(p)
    monotone = bool((steps > 0).all() or (steps < 0).all())

    vals = p[None, :] - targets[:, None]
    hit = np.abs(vals) < ROOT_FTOL
    event = hit[:, :-1] | ((vals[:, :-1] < 0) != (vals[:, 1:] < 0))
    first = np.argmax(event, axis=1)
    found = event.any(axis=1)
    roots = np.full(len(targets), np.nan)
    on_grid = found & hit[np.arange(len(targets)), first]
    roots[on_grid] = grid[first[on_grid]]
    roots[~found & hit[:, -1]] = grid[-1]

    todo = np.flatnonzero(found & ~on_grid)
    i = first[todo]
    a, b = grid[i], grid[i + 1]
    fa, fb = vals[todo, i], vals[todo, i + 1]
    for it in range(MAX_ROOT_ITER):
        if not len(todo):
            break
        x = 0.5 * (a + b)
        if it % 2 == 0:
            # fa and fb lie on opposite sides of 0, so fb != fa
            xs = b - fb * (b - a) / (fb - fa)
            x = np.where((a < xs) & (xs < b), xs, x)
        fx = _probabilities(model, x, t, psi0, A) - targets[todo]
        done = (np.abs(fx) < ROOT_FTOL) | ((b - a) < ROOT_XTOL)
        roots[todo[done]] = x[done]
        left = (fa < 0) != (fx < 0)
        b, fb = np.where(left, x, b), np.where(left, fx, fb)
        a, fa = np.where(left, a, x), np.where(left, fa, fx)
        keep = ~done
        todo, a, b, fa, fb = todo[keep], a[keep], b[keep], fa[keep], fb[keep]
    if len(todo):
        raise Unconverged(f"{len(todo)} shot frequencies still unresolved after "
                          f"{MAX_ROOT_ITER} polish rounds on ({lo}, {hi})")
    return Inversion(estimates=roots[inverse], monotone=monotone)


def run_trials(model: HamiltonianModel, theta_true: float, t: float, psi0, A,
               n: int, trials: int, seed: int, bracket) -> EstimationRun:
    """Repeat (sample n shots, invert the MLE) `trials` times and summarize.

    Failed inversions (no root on the bracket) are counted and excluded
    from the statistics, never silently dropped. All shots go through one
    `mle_invert` call, which solves each distinct x/n once.
    """
    if n < 1 or trials < 2:
        raise ValueError(f"need n >= 1 and trials >= 2, got n={n}, trials={trials}")
    p = survival_probability(evolve(model, theta_true, t, psi0), A)
    shots = [sample_shots(p, n, trial_rng(seed, k)) for k in range(trials)]
    inversion = mle_invert(model, t, psi0, A, shots, bracket)
    solved = ~np.isnan(inversion.estimates)
    estimates = inversion.estimates[solved]
    failed = trials - int(solved.sum())
    if not len(estimates):
        raise AllTrialsFailed(f"all {trials} trials failed MLE inversion")

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
        non_monotone_scan=not inversion.monotone,
    )
