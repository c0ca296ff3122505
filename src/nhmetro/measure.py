"""Observables, error-propagation precision, and the optimality condition;
phi and f = (h - <h>) phi come from `fisher.qfi_record`.

The quantum Cramer-Rao bound is saturated exactly when the measurement
residual |f> - i c |g> vanishes with a real c, where |f> and |g> are the
centered generator and observable applied to the output state.

Each function takes one point or a stack of points: probes at one t, or
times with one probe. A point where the measurement carries no information
is nan in the stacked result rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import evolve, expectation
from .errors import NotHermitian, ZeroG
from .fisher import centered_state
# Unused here; perfbench/tests/test_tracer.py checks the tracer rebinds this import site.
from .fisher import generator_quadrature  # noqa: F401
from .models import HamiltonianModel

HERMITICITY_TOL = 1e-10
DEGENERATE_TOL = 1e-12


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
    complex fit is reported for diagnosing how the condition fails. Over a
    stack each field is an array; a point where the observable acts
    trivially (ZeroG) is nan in all three, with its ZeroG in `failures`
    (None for the others)."""

    residual: float | np.ndarray
    c: complex | np.ndarray
    c_imag_fraction: float | np.ndarray
    failures: tuple


def error_propagation_precision(model: HamiltonianModel, theta: float, t, psi0, phi,
                                A: Observable):
    """Single-shot precision 1/(Delta theta) from the error-propagation formula,
    with d<A>/dtheta as a central difference and Var A = ||g||^2, g = (A - <A>)
    phi, at each point of psi0 and its output state phi at theta (the caller's;
    only theta +- eps are evolved). nan only where the slope or ||g|| (A acts
    trivially: the ZeroG of optimality_residual) is at most DEGENERATE_TOL."""
    eps = 1e-5 * max(1.0, abs(theta))
    plus = expectation(evolve(model, theta + eps, t, psi0).phi_out, A.A)
    minus = expectation(evolve(model, theta - eps, t, psi0).phi_out, A.A)
    slope = (plus - minus) / (2 * eps)
    g = centered_state(A.A, phi)
    var = np.vecdot(g, g).real
    degenerate = (abs(slope) <= DEGENERATE_TOL) | (var <= DEGENERATE_TOL ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(degenerate, np.nan, abs(slope) / np.sqrt(var))[()]


def optimality_residual(phi, f, A: Observable) -> OptimalityReport:
    """Least-squares fit of |f> = i c |g> on each normalized output state
    phi, with f = (h - <h>) phi from fisher.qfi_record and g = (A - <A>) phi."""
    g = centered_state(A.A, phi)
    g_norm2 = np.vecdot(g, g).real
    zero_g = g_norm2 <= DEGENERATE_TOL ** 2
    f_norm = linalg.norms(f)
    # a near-zero g can overflow c; its row is flagged ZeroG
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = -1j * np.vecdot(g, f) / g_norm2
        residual = linalg.norms(f - 1j * c.real[..., None] * g) / f_norm
        c_abs = np.hypot(c.real, c.imag)
        c_imag_fraction = np.where(c_abs > 0, abs(c.imag) / c_abs, 0.0)

    def fit(value, at_zero_f):
        # f = 0 fits exactly with c = 0; a trivial observable fits nothing
        return np.where(zero_g, np.nan, np.where(f_norm == 0.0, at_zero_f, value))[()]

    failures = tuple(ZeroG("observable acts trivially on the output state") if z else None
                     for z in np.ravel(zero_g))
    return OptimalityReport(residual=fit(residual, 0.0), c=fit(c, 0j),
                            c_imag_fraction=fit(c_imag_fraction, 0.0), failures=failures)

