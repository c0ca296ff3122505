"""Non-unitary evolution, output-state normalization, and outcome statistics.

An outcome probability is `outcome_probability(evolve(...).phi_out, A)` for a
projector A that passed `check_projector` once. `evolve` takes one point, a
1-D array of theta or of t, or a stack of probes at one (theta, t);
`check_normalized`, `fix_phase`, `expectation` and `outcome_probability` take
one state (n,) or a stack (..., n). np.hypot and np.vecdot round as abs() and
np.vdot of one state, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IllConditioned, NotNormalized, NotProjector, OutOfRange
from .models import HamiltonianModel, hamiltonian

NORMALIZATION_TOL = 1e-12
PROJECTOR_TOL = 1e-10
PHASE_EPS = 1e-12
# Bound on e = t ||H||_F eps, the rounding error of the phases an evolution
# over time t accumulates. Against 60-digit references of the same float64 H
# and H_tot (pt, kappa and ep_demo up to 1e-11 from its EP, t to 1e13), the
# dilated state and success_prob erred by at most 1.8 e relative (every
# dilation energy has |E| <= 0.71 ||H||_F, so one bound serves both routes),
# and the closed-form output state by at most 10 e, 336 e next to the EP,
# which fidelity sees squared. At e = 1e-10 success_prob is right to 2e-10
# (a margin of 5 on 1e-9) and fidelity read 1 to within 8.2e-14.
PHASE_ERROR_TOL = 1e-10


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first amplitude above PHASE_EPS in magnitude real-positive
    (deterministic gauge) in each vector; a vector without one is unchanged."""
    v = np.asarray(v, dtype=complex)
    first = (np.hypot(v.real, v.imag) > PHASE_EPS).argmax(axis=-1, keepdims=True)
    a = np.take_along_axis(v, first, -1)
    m = np.hypot(a.real, a.imag)
    # the floor only keeps a vector without such an amplitude from dividing by 0
    return np.where(m > PHASE_EPS, v * (a.conj() / np.maximum(m, PHASE_EPS)), v)


def check_normalized(v) -> np.ndarray:
    """v, one vector (n,) or a stack (..., n), each of unit norm within
    NORMALIZATION_TOL; the error names the first one that is not (a nan
    vector passes, and turns what it feeds nan)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0:
        raise ValueError("expected a vector or a stack of vectors, got a scalar")
    deviation = np.ravel(abs(np.vecdot(v, v).real - 1.0))
    off = deviation[deviation >= NORMALIZATION_TOL]
    if off.size:
        raise NotNormalized(f"vector norm^2 deviates from 1 by {off[0]:.3e}")
    return v


@dataclass(frozen=True)
class EvolutionResult:
    """Output of a non-unitary evolution step.

    phi_out is the normalized, phase-fixed U |psi0>; K is the squared norm of
    the raw output U |psi0> (the trace of the unnormalized output density
    matrix). For an array of theta, of t or of probes both fields gain a
    leading axis over it and K is an array.
    """

    phi_out: np.ndarray
    K: float | np.ndarray


def evolve(model: HamiltonianModel, theta, t, psi0) -> EvolutionResult:
    """Evolve psi0 for time t at one theta, at each theta of a 1-D array, or
    at one theta for each t of a 1-D array (not both arrays at once); psi0
    is one probe (2,), or a stack (P, 2) when theta and t are both scalars.

    A stacked result equals the per-point results bit for bit: one
    `hamiltonian` call builds H for every theta (each the bits of a single
    call), each generator -i t H is rounded as for one point, the stack goes
    through one `mat_exp` call (a probe stack shares one exponential), and
    `normalized_output` takes K and the phase fix in one array step.
    """
    psi0 = check_normalized(psi0)
    if np.ndim(theta) != 0 and np.ndim(t) != 0:
        raise ValueError("evolve takes an array of theta or an array of t, not both")
    if psi0.ndim > 1 and (np.ndim(theta) != 0 or np.ndim(t) != 0):
        raise ValueError("evolve takes a stack of probes at one theta and one t only")
    times = np.asarray(t, dtype=float)
    if (times < 0).any():
        raise OutOfRange(f"evolution time must be nonnegative, got {times.min()}")
    generator = (-1j * times)[..., None, None] * hamiltonian(model, theta)
    return normalized_output((linalg.mat_exp(generator) @ psi0[..., None])[..., 0])


def normalized_output(raw: np.ndarray) -> EvolutionResult:
    """The EvolutionResult of raw = U |psi0>, one output vector (2,) or a
    stack (..., 2): K and the phase fix are one array step over every vector."""
    K = np.vecdot(raw, raw).real
    return EvolutionResult(phi_out=fix_phase(raw / np.sqrt(K)[..., None]), K=K)


def phase_failures(H: np.ndarray, t) -> tuple:
    """Per t of a 1-D array, IllConditioned where e = t ||H||_F eps exceeds
    PHASE_ERROR_TOL, else None."""
    bound = np.linalg.norm(H) * np.finfo(float).eps
    return tuple(None if e <= PHASE_ERROR_TOL else IllConditioned(
        f"the phase error bound t ||H||_F eps = {e:.3g} exceeds {PHASE_ERROR_TOL:g}")
        for e in (np.asarray(t, dtype=float) * bound).tolist())


def check_projector(A) -> np.ndarray:
    """Validate a rank-1 Hermitian projector."""
    A = linalg.as_matrix(A)
    if linalg.herm_residual(A) > PROJECTOR_TOL:
        raise NotProjector(f"not Hermitian within {PROJECTOR_TOL:g}")
    if np.linalg.norm(A @ A - A) > PROJECTOR_TOL:
        raise NotProjector(f"not idempotent within {PROJECTOR_TOL:g}")
    if abs(np.trace(A).real - 1.0) > PROJECTOR_TOL:
        raise NotProjector("not rank-1 (trace != 1)")
    return A


def expectation(phi: np.ndarray, A: np.ndarray) -> float | np.ndarray:
    """<phi|A|phi> of each state for Hermitian A; the imaginary residue is discarded."""
    return np.vecdot(phi, (A @ phi[..., None])[..., 0]).real


def outcome_probability(phi: np.ndarray, A: np.ndarray) -> float | np.ndarray:
    """<phi|A|phi> of each state for a projector A that already passed
    `check_projector` (callers that evaluate many states validate A once).

    Rounding can put p just outside [0, 1]; within NORMALIZATION_TOL it is
    clamped. Further out phi is not a normalized state, which raises
    NotNormalized instead of being clamped away.
    """
    p = expectation(phi, A)
    outside = np.ravel(p)[~np.ravel((-NORMALIZATION_TOL <= p) & (p <= 1 + NORMALIZATION_TOL))]
    if outside.size:
        raise NotNormalized(f"outcome probability {float(outside[0])!r} lies outside [0, 1]")
    return np.clip(p, 0.0, 1.0)
