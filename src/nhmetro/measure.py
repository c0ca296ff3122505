"""Observables, error-propagation precision, and the optimality condition.

The quantum Cramer-Rao bound is saturated exactly when the measurement
residual |f> - i c |g> vanishes with a real c, where |f> and |g> are the
centered generator and observable applied to the output state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import evolve, expectation
from .errors import Degenerate, NotHermitian, ZeroG
from .fisher import generator_closed_form
# Unused here; perfbench/tests/test_tracer.py checks the tracer rebinds this import site.
from .fisher import generator_quadrature  # noqa: F401
from .models import HamiltonianModel

HERMITICITY_TOL = 1e-10
DEGENERATE_TOL = 1e-12
ZERO_G_TOL = 1e-12


def centered_generator_state(model: HamiltonianModel, theta: float, t: float, phi):
    """f = (h - <h>) phi on the normalized output state phi, with the
    closed-form generator h at (theta, t); F = 4<f|f> (fisher.qfi_centered)."""
    hphi = generator_closed_form(model, theta, t) @ phi
    return hphi - np.vdot(phi, hphi) * phi


@dataclass(frozen=True)
class Observable:
    A: np.ndarray
    label: str = ""

    def __post_init__(self):
        A = linalg.as_matrix(self.A)
        if linalg.herm_residual(A) >= HERMITICITY_TOL * max(1.0, float(np.linalg.norm(A))):
            raise NotHermitian(f"observable {self.label!r} is not Hermitian")
        object.__setattr__(self, "A", A)


@dataclass(frozen=True)
class OptimalityReport:
    """residual = ||f - i Re(c) g|| / ||f|| where c is the complex
    least-squares fit. The saturation condition demands a real proportionality
    constant, so the residual is taken against the best real one; the full
    complex fit is reported for diagnosing how the condition fails."""

    residual: float
    c: complex
    c_imag_fraction: float


def error_propagation_precision(model: HamiltonianModel, theta: float, t: float,
                                psi0, A: Observable) -> float:
    """Single-shot precision 1/(Delta theta) from the error-propagation formula,
    with d<A>/dtheta as a central difference."""
    eps = 1e-5 * max(1.0, abs(theta))
    states = evolve(model, np.array([theta + eps, theta - eps, theta]), t, psi0).phi_out
    plus, minus, mean = expectation(states, A.A)
    slope = (plus - minus) / (2 * eps)
    if abs(slope) <= DEGENERATE_TOL:
        raise Degenerate(f"d<A>/dtheta = {slope:.3e} at theta = {theta}")
    var = expectation(states[2], A.A @ A.A) - mean ** 2
    if var <= DEGENERATE_TOL ** 2:
        raise Degenerate("observable has vanishing variance on the output state")
    return abs(slope) / np.sqrt(var)


def optimality_residual(phi, f, A: Observable) -> OptimalityReport:
    """Least-squares fit of |f> = i c |g> on the normalized output state phi,
    with f = (h - <h>) phi from centered_generator_state."""
    g = A.A @ phi - expectation(phi, A.A) * phi
    g_norm2 = float(np.vdot(g, g).real)
    if g_norm2 <= ZERO_G_TOL ** 2:
        raise ZeroG("observable acts trivially on the output state")
    c = -1j * np.vdot(g, f) / g_norm2
    f_norm = float(np.linalg.norm(f))
    if f_norm == 0.0:
        return OptimalityReport(residual=0.0, c=0j, c_imag_fraction=0.0)
    residual = float(np.linalg.norm(f - 1j * c.real * g)) / f_norm
    c_imag_fraction = abs(c.imag) / abs(c) if abs(c) > 0 else 0.0
    return OptimalityReport(residual=residual, c=complex(c), c_imag_fraction=c_imag_fraction)


def sld_operator(model: HamiltonianModel, theta: float, t: float, psi0) -> np.ndarray:
    """Symmetric logarithmic derivative 2 d(rho)/dtheta of the pure output state.

    Exact: d|phi> = -i f + (i beta) |phi> with f = (h - <h>) phi and a real
    beta that drops out of d(rho), so L = 2i(|phi><f| - |f><phi|); then
    Tr(rho L^2) = 4||f||^2 = F.
    """
    phi = evolve(model, theta, t, psi0).phi_out
    f = centered_generator_state(model, theta, t, phi)
    return 2j * (np.outer(phi, f.conj()) - np.outer(f, phi.conj()))
