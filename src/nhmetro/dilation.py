"""Embedding of a 2x2 non-Hermitian evolution in a two-qubit Hermitian system.

The embedding rests on a Hermitian positive metric eta with
eta H = H^dag eta. With c = sum_i 1/lambda_i(eta) and zeta = c eta - I, the
four-dimensional Hermitian generator I (x) H_s + sigma_y (x) V reproduces the
non-unitary dynamics on the ancilla-|0> block; post-selecting that block
recovers the non-Hermitian output state. The ancilla is the FIRST tensor
factor throughout. H_tot is diagonalised once per system, so evolving to
any number of times costs one phase multiply per time.
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
    # H_tot = modes @ diag(energies) @ modes^dag
    energies: np.ndarray
    modes: np.ndarray


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
    return _hermitian(eta / np.trace(eta).real)


def _hermitian(a: np.ndarray) -> np.ndarray:
    return (a + linalg.dagger(a)) / 2


def build_dilation(H) -> DilationSystem:
    """Assemble the two-qubit Hermitian system reproducing exp(-i H t)."""
    H = linalg.as_matrix(H)
    eta = solve_eta(H)
    lam = np.linalg.eigvalsh(eta)
    c = float(np.sum(1.0 / lam))
    zeta = c * eta - np.eye(2)
    # One diagonalization gives zeta^(+-1/2) and (zeta^1/2 + zeta^-1/2)^-1,
    # the latter evaluated spectrally for conditioning.
    w, v = np.linalg.eigh(zeta)
    if w.min() <= POSITIVITY_TOL:
        raise ZetaNotPositive("c*eta - I is not positive definite")
    root = np.sqrt(w)
    z_half = _hermitian((v * root) @ linalg.dagger(v))
    z_mhalf = _hermitian((v * (1.0 / root)) @ linalg.dagger(v))
    s_inv = (v * (1.0 / (root + 1.0 / root))) @ linalg.dagger(v)
    H_s = _hermitian((H @ z_mhalf + z_half @ H) @ s_inv)
    V = _hermitian(1j * (H - z_half @ H @ z_mhalf) @ s_inv)
    H_tot = np.kron(np.eye(2), H_s) + np.kron(linalg.SIGMA_Y, V)
    energies, modes = np.linalg.eigh(H_tot)
    return DilationSystem(H=H, eta=eta, c=c, zeta=zeta, z_half=z_half, H_s=H_s, V=V,
                          H_tot=H_tot, energies=energies, modes=modes)


def evolve_dilated(sys: DilationSystem, psi0, t):
    """Evolve |0>(x)psi0 + |1>(x)zeta^(1/2) psi0 under H_tot and post-select.

    Psi(t) = W (exp(-i E t) * W^dag Psi0) with H_tot = W diag(E) W^dag.
    Returns (Psi_tot, recovered, success_prob): the full unnormalized
    two-qubit state, the renormalized, phase-fixed ancilla-|0> block, and the
    post-selection probability. For a 1-D array of t every field gains a
    leading axis over t.
    """
    psi0 = check_normalized(psi0)
    Psi0 = np.concatenate([psi0, sys.z_half @ psi0])
    amplitudes = linalg.dagger(sys.modes) @ Psi0
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), sys.energies))
    # An elementwise product summed per row, not a matmul, so a stack of t
    # gives each state exactly the bits of a scalar call.
    Psi_t = np.sum(sys.modes * (phases * amplitudes)[..., None, :], axis=-1)
    block0 = Psi_t[..., :2]
    weight0 = np.sum(np.abs(block0) ** 2, axis=-1)
    success_prob = weight0 / np.sum(np.abs(Psi_t) ** 2, axis=-1)
    if Psi_t.ndim == 1:
        return Psi_t, fix_phase(block0 / np.sqrt(weight0)), float(success_prob)
    recovered = np.array([fix_phase(b / np.sqrt(w)) for b, w in zip(block0, weight0)])
    return Psi_t, recovered, success_prob
