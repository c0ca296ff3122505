"""Embedding of a 2x2 non-Hermitian evolution in a two-qubit Hermitian system.

The embedding rests on a Hermitian positive metric eta with
eta H = H^dag eta. With c = sum_i 1/lambda_i(eta) and zeta = c eta - I, the
four-dimensional Hermitian generator I (x) H_s + sigma_y (x) V reproduces the
non-unitary dynamics on the ancilla-|0> block; post-selecting that block
recovers the non-Hermitian output state (Guenther & Samsonov, PRL 101,
230404 (2008)). The ancilla is the FIRST tensor factor throughout. eta, c
and zeta^(+-1/2) are closed forms, so H_tot is diagonalised once with eigh,
the only eigensolver here, and each time costs one phase multiply.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import check_normalized, fix_phase
from .errors import NoPositiveSolution

REAL_SPECTRUM_TOL = 1e-8
# |w^2| <= EP_TOL ||B||^2 is the exceptional point. On random near-EP B the
# computed G lost positive definiteness only at |w^2| <= 2.8e-16 ||B||^2.
EP_TOL = 1e-14


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


def _metric(H):
    """(G, w^2) with G = w^2 I + B^dag B for H = cI + B, B^2 = w^2 I; raises
    NoPositiveSolution in the broken regime and at the EP.

    eta = G / tr G is the unit-trace metric with eta H = H^dag eta:
    G B = w^2 (B + B^dag) = B^dag G for real w^2, and G is positive definite
    for w^2 > 0 (Mostafazadeh, J. Math. Phys. 43, 205 (2002)). H = cI gives
    G = I, w^2 = 1/2, which keeps eta = I/2, c = 4 and zeta = I exact."""
    H = linalg.as_matrix(H)
    if H.shape != (2, 2):
        raise ValueError("the metric is built for 2x2 Hamiltonians only")
    tol = REAL_SPECTRUM_TOL * max(1.0, float(np.linalg.norm(H)))
    mean = 0.5 * (H[0, 0] + H[1, 1])
    if abs(mean.imag) > tol:
        raise NoPositiveSolution("Hamiltonian spectrum is not real (broken regime)")
    B = H - mean * np.eye(2)
    if not B.any():
        return np.eye(2, dtype=complex), 0.5
    w2 = B[0, 0] * B[0, 0] + B[0, 1] * B[1, 0]
    if abs(w2) <= EP_TOL * float(np.linalg.norm(B)) ** 2:
        raise NoPositiveSolution("Hamiltonian is defective (exceptional point)")
    if w2.real < 0 or abs(cmath.sqrt(w2).imag) > tol:
        raise NoPositiveSolution("Hamiltonian spectrum is not real (broken regime)")
    return _hermitian(w2.real * np.eye(2) + linalg.dagger(B) @ B), w2.real


def _hermitian(a: np.ndarray) -> np.ndarray:
    return (a + linalg.dagger(a)) / 2


def build_dilation(H) -> DilationSystem:
    """Assemble the two-qubit Hermitian system reproducing exp(-i H t).

    det G = w^2 tr G gives c = tr G / w^2, zeta = B^dag B / w^2 with
    det zeta = 1, zeta^(1/2) = G / r and zeta^(-1/2) = (tr G I - G) / r with
    r = sqrt(w^2 tr G), and the scalar (zeta^(1/2) + zeta^(-1/2))^-1 = w^2 / r.
    """
    G, w2 = _metric(H)
    H = linalg.as_matrix(H)
    tr = np.trace(G).real
    root = math.sqrt(w2 * tr)
    z_half, z_mhalf = G / root, (tr * np.eye(2) - G) / root
    s_inv = w2 / root
    H_s = _hermitian((H @ z_mhalf + z_half @ H) * s_inv)
    V = _hermitian(1j * (H - z_half @ H @ z_mhalf) * s_inv)
    H_tot = np.kron(np.eye(2), H_s) + np.kron(linalg.SIGMA_Y, V)
    # an H whose metric overflows leaves NaN here, on which eigh fails untyped
    linalg.check_finite(H_tot, "dilation Hamiltonian")
    energies, modes = np.linalg.eigh(H_tot)
    return DilationSystem(H=H, eta=G / tr, c=tr / w2, zeta=G / w2 - np.eye(2),
                          z_half=z_half, H_s=H_s, V=V, H_tot=H_tot,
                          energies=energies, modes=modes)


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
    return Psi_t, fix_phase(block0 / np.sqrt(weight0)[..., None]), success_prob
