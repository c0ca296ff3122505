"""Monte-Carlo shot simulation and binomial maximum-likelihood inversion.

For a two-outcome projective measurement the likelihood depends on the
parameter only through the outcome probability p(theta), so the MLE reduces
to solving p(theta) = x/n inside a caller-supplied bracket.

PRNG: NumPy PCG64. Trial k of a run draws from
``numpy.random.default_rng([seed, k])``, i.e. PCG64 seeded through
``SeedSequence([seed, k])``; runs are bit-reproducible given (config, seed).
`trial_generators` derives the PCG64 seed words of all trials of a run in
one uint32 array step: the seed_seq hashing of NumPy's `SeedSequence`
(O'Neill, "PCG", HMC-CS-2014-0905), vectorised over k, so each trial's
generator is built without hashing its own `SeedSequence`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import check_projector, evolve, outcome_probability
from .errors import AllTrialsFailed, NotBracketed, Unconverged
from .models import HamiltonianModel

SCAN_POINTS = 64
ROOT_FTOL = 1e-12
ROOT_XTOL = 1e-12
MAX_ROOT_ITER = 200


@dataclass(frozen=True)
class EstimationRun:
    estimates: np.ndarray
    # k of the trial generator behind each estimate; failed trials have none
    solved_trials: np.ndarray
    mean: float
    precision: float
    precision_err: float
    failed_trials: int
    # p(theta) is not strictly monotone on the bracket's scan grid, so the
    # inversion may have taken the first of several roots.
    non_monotone_scan: bool


# NumPy's SeedSequence: a pool of 4 uint32 words, the entropy hash (A), the
# pool mix (L, R) and the output hash (B).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays: each call XORs the running
    hash constant in, steps the constant by `mult` and multiplies by it."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_words(seed: int, trials: int) -> np.ndarray:
    """(trials, 4) uint64: row k is SeedSequence([seed, k]).generate_state(4,
    np.uint64). The entropy is the 32-bit words of seed, low first, then k;
    uint32 arithmetic wraps as SeedSequence's does."""
    if seed < 0 or trials > 2**32:
        raise ValueError(f"need seed >= 0 and trials <= 2**32, got {seed}, {trials}")
    entropy = [np.full(trials, seed >> shift & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(trials, dtype=np.uint32))
    entropy += [np.zeros(trials, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    # entropy longer than the pool (seeds >= 2**96) is mixed into every word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a(word))
    # eight output words, the pool twice over, paired low word first into uint64
    hash_b = _hasher(_INIT_B, _MULT_B)
    state = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


@functools.cache
def _seed_words_type() -> type:
    """The NumPy ISeedSequence that hands PCG64 one trial's precomputed seed
    words for the one request it makes, generate_state(4, np.uint64). Built
    on first use: touching np.random at import would load numpy.random into
    every command."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def trial_generators(seed: int, trials: int):
    """Yield the generator of each trial k = 0..trials-1: PCG64 seeded by
    SeedSequence([seed, k]), bit for bit ``numpy.random.default_rng([seed, k])``.
    The seed words of all trials come from one array step."""
    seed_words = _seed_words_type()
    for words in _seed_words(seed, trials):
        yield np.random.Generator(np.random.PCG64(seed_words(words)))


def sample_shots(p: float, n: int, rng: np.random.Generator) -> int:
    """The number x of the n shots that give the outcome of probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    return int(rng.binomial(n, p))


@dataclass(frozen=True)
class Inversion:
    """MLE estimates for an array of observed frequencies on one bracket.

    `estimates[i]` belongs to the i-th frequency and is NaN when p(theta) never
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


def mle_invert(model: HamiltonianModel, t: float, psi0, A, frequencies, bracket) -> Inversion:
    """Solve p(theta) = x/n inside the bracket for every frequency x/n at once.

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
    targets, inverse = np.unique(frequencies, return_inverse=True)
    grid = np.linspace(lo, hi, SCAN_POINTS)
    p = outcome_probability(evolve(model, grid, t, psi0).phi_out, A)
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
        fx = outcome_probability(evolve(model, x, t, psi0).phi_out, A) - targets[todo]
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


def run_trials(model: HamiltonianModel, t: float, psi0, A, p: float,
               n: int, trials: int, seed: int, bracket) -> EstimationRun:
    """Repeat (sample n shots of the outcome of probability p, invert the
    MLE) `trials` times and summarize; p is the caller's p(theta_true).

    Failed inversions (no root on the bracket) are counted and excluded
    from the statistics, never silently dropped. All shots go through one
    `mle_invert` call, which solves each distinct x/n once.
    """
    if n < 1 or trials < 2:
        raise ValueError(f"need n >= 1 and trials >= 2, got n={n}, trials={trials}")
    frequencies = [sample_shots(p, n, rng) / n for rng in trial_generators(seed, trials)]
    inversion = mle_invert(model, t, psi0, A, frequencies, bracket)
    solved = np.flatnonzero(~np.isnan(inversion.estimates))
    estimates = inversion.estimates[solved]
    failed = trials - len(solved)
    if not len(estimates):
        raise AllTrialsFailed(f"all {trials} trials failed MLE inversion")

    mean = float(estimates.mean())
    sigma = float(estimates.std(ddof=1)) if len(estimates) > 1 else 0.0
    precision = 1.0 / (sigma * np.sqrt(n)) if sigma > 0 else np.inf
    return EstimationRun(
        estimates=estimates,
        solved_trials=solved,
        mean=mean,
        precision=precision,
        precision_err=precision / np.sqrt(2.0 * (trials - 1)),
        failed_trials=failed,
        non_monotone_scan=not inversion.monotone,
    )
