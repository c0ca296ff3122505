"""Quantum Fisher information for non-unitary dynamics.

The local generator h = i (dU/dtheta) U^-1 is computed by two independent
routes (a time-ordered quadrature and a finite difference of the evolution
operator), the QFI by three (generalized variance of h, derivative of the
normalized state, and closed forms for the catalog families).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import check_normalized, evolve
from .errors import ImaginaryResidue, UnsupportedFamily, UnsupportedProbe, ZeroScalar
from .models import HamiltonianModel, d_hamiltonian, hamiltonian

DEFAULT_QUAD_ORDER = 64
QUAD_CONVERGENCE_TOL = 1e-10
MAX_QUAD_ORDER = 1024
IMAG_RESIDUE_TOL = 1e-10


def _fd_step(theta: float, step) -> float:
    if step is not None:
        if step <= 0:
            raise ValueError(f"finite-difference step must be positive, got {step}")
        return float(step)
    return 1e-5 * max(1.0, abs(theta))


def generator_quadrature(model: HamiltonianModel, theta: float, t: float,
                         quad_order: int = DEFAULT_QUAD_ORDER, adaptive: bool = True) -> np.ndarray:
    """h as the integral of exp(-i mu H) dH exp(i mu H) over mu in [0, t].

    Gauss-Legendre on [0, t]; with adaptive=True the node count doubles until
    two successive results agree to 1e-10 (capped at 1024 nodes).
    """
    if quad_order < 2:
        raise ValueError(f"quad_order must be >= 2, got {quad_order}")
    H = hamiltonian(model, theta)
    dH = d_hamiltonian(model, theta)
    if t == 0:
        return np.zeros_like(H)

    def integral(order):
        x, w = np.polynomial.legendre.leggauss(order)
        mu = 0.5 * t * (x + 1.0)
        wt = 0.5 * t * w
        acc = np.zeros_like(H)
        for m, ww in zip(mu, wt):
            acc = acc + ww * (linalg.mat_exp(-1j * m * H) @ dH @ linalg.mat_exp(1j * m * H))
        return acc

    h = integral(quad_order)
    order = quad_order
    while adaptive and order < MAX_QUAD_ORDER:
        order *= 2
        h_next = integral(order)
        if np.linalg.norm(h_next - h) < QUAD_CONVERGENCE_TOL:
            return h_next
        h = h_next
    return h


def generator_fd(model: HamiltonianModel, theta: float, t: float, step=None) -> np.ndarray:
    """h = i (dU/dtheta) U^-1 with dU by central finite difference."""
    eps = _fd_step(theta, step)
    U_plus = linalg.mat_exp(-1j * t * hamiltonian(model, theta + eps))
    U_minus = linalg.mat_exp(-1j * t * hamiltonian(model, theta - eps))
    dU = (U_plus - U_minus) / (2 * eps)
    U = linalg.mat_exp(-1j * t * hamiltonian(model, theta))
    return 1j * dU @ linalg.mat_inverse(U)


def qfi_generator(h, phi) -> float:
    """Generalized variance form: 4(<h^dag h> - <h^dag><h>) over a normalized state."""
    h = linalg.as_matrix(h)
    phi = check_normalized(phi)
    hphi = h @ phi
    mean = np.vdot(phi, hphi)
    value = 4 * (np.vdot(hphi, hphi) - mean.conjugate() * mean)
    if not abs(value.imag) < IMAG_RESIDUE_TOL:
        raise ImaginaryResidue(f"QFI imaginary residue {value.imag:.3e}")
    return float(value.real)


def _normalized_output(model, theta, t, psi0, scalar=None) -> np.ndarray:
    """U psi0 / ||U psi0|| without any phase fixing (gauge-safe for derivatives)."""
    v = linalg.mat_exp(-1j * t * hamiltonian(model, theta)) @ psi0
    if scalar is not None:
        c = complex(scalar(theta))
        if c == 0:
            raise ZeroScalar(f"scalar vanishes at theta = {theta}")
        v = c * v
    return v / np.linalg.norm(v)


def qfi_state_derivative(model: HamiltonianModel, theta: float, t: float, psi0,
                         step=None, scalar=None) -> float:
    """QFI from 4(<dphi|dphi> - |<dphi|phi>|^2) with a finite-difference |dphi>.

    The derivative is taken on the analytically normalized state (no phase
    fixing): the phase-fixed gauge is not differentiable in theta.
    """
    psi0 = check_normalized(psi0)
    eps = _fd_step(theta, step)
    phi = _normalized_output(model, theta, t, psi0, scalar)
    dphi = (_normalized_output(model, theta + eps, t, psi0, scalar)
            - _normalized_output(model, theta - eps, t, psi0, scalar)) / (2 * eps)
    value = 4 * (np.vdot(dphi, dphi).real - abs(np.vdot(dphi, phi)) ** 2)
    return float(value)


KET0_TOL = 1e-12


def _require_ket0(psi0):
    psi0 = check_normalized(psi0)
    if abs(psi0[0] - 1.0) > KET0_TOL or np.linalg.norm(psi0[1:]) > KET0_TOL:
        raise UnsupportedProbe("closed-form QFI expressions require the probe |0>")


def qfi_closed_form(model: HamiltonianModel, theta: float, t: float, psi0=None) -> float:
    """The catalog families' analytic QFI, valid for the probe |0> only."""
    if psi0 is not None:
        _require_ket0(psi0)
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        if model.estimated_param == "s":
            num = 4 * t * t * math.cos(alpha) ** 4
            den = (-1 + math.sin(alpha) * math.sin(alpha - 2 * s * t * math.cos(alpha))) ** 2
            return num / den
        sec = 1.0 / math.cos(alpha)
        x = alpha - 2 * s * t * math.cos(alpha)
        num = 1 - sec * math.cos(x) + 2 * s * t * math.sin(alpha)
        den = sec - math.sin(x) * math.tan(alpha)
        return (num / den) ** 2
    if model.family == "kappa":
        kappa = model.bound_params(theta)["kappa"]
        rk = math.sqrt(kappa)
        x = t * rk
        num = (-2 * x + math.sin(2 * x)) ** 2
        den = 4 * kappa * (kappa * math.cos(x) ** 2 + math.sin(x) ** 2) ** 2
        return num / den
    raise UnsupportedFamily(f"no closed-form QFI for family {model.family!r}")


@dataclass(frozen=True)
class QFIRecord:
    """QFI bundle at one (theta, t) point: generator, F, K, I = K F, the
    generator's eigenvalue gap, and the normalized output state F is taken on."""

    theta: float
    t: float
    h: np.ndarray
    phi_out: np.ndarray
    F: float
    K: float
    I: float
    gap: float


def qfi_record(model: HamiltonianModel, theta: float, t: float, psi0,
               quad_order: int = DEFAULT_QUAD_ORDER) -> QFIRecord:
    res = evolve(model, theta, t, psi0)
    h = generator_quadrature(model, theta, t, quad_order)
    F = qfi_generator(h, res.phi_out)
    gap = linalg.eig_decompose(h).gap
    return QFIRecord(theta=theta, t=t, h=h, phi_out=res.phi_out, F=F, K=res.K,
                     I=res.K * F, gap=gap)


def scaled_info(rec: QFIRecord) -> float:
    """Information per input resource: the QFI scaled by the survival weight K."""
    return rec.K * rec.F


def gauge_invariance_check(model: HamiltonianModel, theta: float, t: float, psi0,
                           scalar) -> float:
    """Relative QFI deviation when U is multiplied by scalar(theta)."""
    base = qfi_state_derivative(model, theta, t, psi0)
    scaled = qfi_state_derivative(model, theta, t, psi0, scalar=scalar)
    return abs(scaled - base) / max(abs(base), 1e-300)
