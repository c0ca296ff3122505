"""Embedding of a 2x2 non-Hermitian evolution in a two-qubit Hermitian system.

The embedding rests on a Hermitian positive metric eta with
eta H = H^dag eta. With c = sum_i 1/lambda_i(eta) and zeta = c eta - I, the
four-dimensional Hermitian generator I (x) H_s + sigma_y (x) V reproduces the
non-unitary dynamics on the ancilla-|0> block; post-selecting that block
recovers the non-Hermitian output state. The ancilla is the FIRST tensor
factor throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import check_normalized, fix_phase
from .errors import NoPositiveSolution, ZetaNotPositive

REAL_SPECTRUM_TOL = 1e-8
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class DilationSystem:
    H: np.ndarray
    eta: np.ndarray
    c: float
    zeta: np.ndarray
    z_half: np.ndarray
    H_s: np.ndarray
    V: np.ndarray
    H_tot: np.ndarray


def solve_eta(H) -> np.ndarray:
    """Positive-definite Hermitian metric with eta H = H^dag eta, unit trace.

    With H = V diag(lambda) V^-1 and a real spectrum, eta = (V V^dag)^-1
    intertwines H and H^dag and is positive definite (Mostafazadeh,
    J. Math. Phys. 43, 205 (2002)). The columns of V are the unit-norm right
    eigenvectors. A complex spectrum (broken regime) or a defective H (the
    EP) has no such metric and raises NoPositiveSolution.
    """
    H = linalg.as_matrix(H)
    if H.shape != (2, 2):
        raise ValueError("solve_eta handles 2x2 Hamiltonians only")
    ed = linalg.eig_decompose(H)
    lam = ed.eigenvalues
    if np.max(np.abs(lam.imag)) > REAL_SPECTRUM_TOL * max(1.0, float(np.linalg.norm(H))):
        raise NoPositiveSolution("Hamiltonian spectrum is not real (broken regime)")
    if ed.defective:
        raise NoPositiveSolution("Hamiltonian is defective (exceptional point)")
    V = ed.right_eigenvectors / np.linalg.norm(ed.right_eigenvectors, axis=0)
    eta = np.linalg.inv(V @ linalg.dagger(V))
    eta = eta / np.trace(eta).real
    return (eta + linalg.dagger(eta)) / 2


def build_dilation(H) -> DilationSystem:
    """Assemble the two-qubit Hermitian system reproducing exp(-i H t)."""
    H = linalg.as_matrix(H)
    eta = solve_eta(H)
    lam = np.linalg.eigvalsh(eta)
    c = float(np.sum(1.0 / lam))
    zeta = c * eta - np.eye(2)
    if np.linalg.eigvalsh(zeta).min() <= POSITIVITY_TOL:
        raise ZetaNotPositive("c*eta - I is not positive definite")
    z_half = linalg.herm_funct(zeta, "sqrt")
    z_mhalf = linalg.herm_funct(zeta, "inv_sqrt")
    # (zeta^1/2 + zeta^-1/2)^-1 evaluated spectrally for conditioning.
    w, v = np.linalg.eigh(zeta)
    s_inv = (v * (1.0 / (np.sqrt(w) + 1.0 / np.sqrt(w)))) @ linalg.dagger(v)
    H_s = (H @ z_mhalf + z_half @ H) @ s_inv
    V = 1j * (H - z_half @ H @ z_mhalf) @ s_inv
    H_s = (H_s + linalg.dagger(H_s)) / 2
    V = (V + linalg.dagger(V)) / 2
    H_tot = np.kron(np.eye(2), H_s) + np.kron(linalg.SIGMA_Y, V)
    return DilationSystem(H=H, eta=eta, c=c, zeta=zeta, z_half=z_half, H_s=H_s, V=V,
                          H_tot=H_tot)


def evolve_dilated(sys: DilationSystem, psi0, t: float):
    """Evolve |0>(x)psi0 + |1>(x)zeta^(1/2) psi0 under H_tot and post-select.

    Returns (Psi_tot, recovered, success_prob): the full unnormalized
    two-qubit state, the renormalized ancilla-|0> block, and the
    post-selection probability.
    """
    psi0 = check_normalized(psi0)
    Psi0 = np.concatenate([psi0, sys.z_half @ psi0])
    Psi_t = linalg.mat_exp(-1j * t * sys.H_tot) @ Psi0
    block0 = Psi_t[:2]
    total = float(np.vdot(Psi_t, Psi_t).real)
    success_prob = float(np.vdot(block0, block0).real) / total
    recovered = fix_phase(block0 / np.linalg.norm(block0))
    return Psi_t, recovered, success_prob
