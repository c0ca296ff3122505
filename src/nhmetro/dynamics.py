"""Non-unitary evolution, output-state normalization, and outcome statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotNormalized, NotProjector, OutOfRange
from .models import HamiltonianModel, hamiltonian

NORMALIZATION_TOL = 1e-12
PROJECTOR_TOL = 1e-10
PHASE_EPS = 1e-12


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first nonzero amplitude real-positive (deterministic gauge)."""
    v = linalg.as_vector(v)
    for a in v:
        if abs(a) > PHASE_EPS:
            return v * (a.conjugate() / abs(a))
    return v


def check_normalized(v, tol=NORMALIZATION_TOL) -> np.ndarray:
    v = linalg.as_vector(v)
    if abs(np.vdot(v, v).real - 1.0) >= tol:
        raise NotNormalized(f"vector norm^2 deviates from 1 by {abs(np.vdot(v, v).real - 1.0):.3e}")
    return v


@dataclass(frozen=True)
class EvolutionResult:
    """Output of a non-unitary evolution step.

    psi_out_raw is the unnormalized U |psi0>; phi_out is normalized and
    phase-fixed; K is the squared norm of the raw output (the trace of the
    unnormalized output density matrix). For an array of theta every field
    gains a leading axis over theta and K is an array.
    """

    U: np.ndarray
    psi_out_raw: np.ndarray
    phi_out: np.ndarray
    K: float | np.ndarray


def evolve(model: HamiltonianModel, theta, t: float, psi0) -> EvolutionResult:
    """Evolve psi0 for time t at one theta, or at each theta of a 1-D array.

    A stacked result equals the per-theta results bit for bit: H is built
    per theta, the stack goes through one `mat_exp` call, and K and the
    phase fix stay per vector.
    """
    psi0 = check_normalized(psi0)
    if t < 0:
        raise OutOfRange(f"evolution time must be nonnegative, got {t}")
    if np.ndim(theta) == 0:
        H = hamiltonian(model, theta)
    else:
        H = np.array([hamiltonian(model, th) for th in theta])
    U = linalg.mat_exp(-1j * t * H)
    raw = U @ psi0
    if raw.ndim == 1:
        K = float(np.vdot(raw, raw).real)
        return EvolutionResult(U=U, psi_out_raw=raw, phi_out=fix_phase(raw / np.sqrt(K)), K=K)
    K = np.array([np.vdot(r, r).real for r in raw])
    phi = np.array([fix_phase(r / np.sqrt(k)) for r, k in zip(raw, K)])
    return EvolutionResult(U=U, psi_out_raw=raw, phi_out=phi, K=K)


def check_projector(A, tol=PROJECTOR_TOL) -> np.ndarray:
    """Validate a rank-1 Hermitian projector."""
    A = linalg.as_matrix(A)
    if linalg.herm_residual(A) > tol:
        raise NotProjector(f"not Hermitian within {tol:g}")
    if np.linalg.norm(A @ A - A) > tol:
        raise NotProjector(f"not idempotent within {tol:g}")
    if abs(np.trace(A).real - 1.0) > tol:
        raise NotProjector("not rank-1 (trace != 1)")
    return A


def expectation(phi: np.ndarray, A: np.ndarray) -> float:
    """<phi|A|phi> for Hermitian A; the imaginary residue is discarded."""
    return float(np.vdot(phi, A @ phi).real)


def outcome_probability(phi: np.ndarray, A: np.ndarray) -> float:
    """<phi|A|phi> for a projector A that already passed `check_projector`
    (callers that evaluate many states validate A once).

    Rounding can put p just outside [0, 1]; within NORMALIZATION_TOL it is
    clamped. Further out phi is not a normalized state, which raises
    NotNormalized instead of being clamped away.
    """
    p = expectation(phi, A)
    if not -NORMALIZATION_TOL <= p <= 1.0 + NORMALIZATION_TOL:
        raise NotNormalized(f"outcome probability {p!r} lies outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


def survival_probability(res: EvolutionResult, A) -> float:
    """Probability of the outcome associated with the rank-1 projector A."""
    return outcome_probability(res.phi_out, check_projector(A))
