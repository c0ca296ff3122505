"""Small dense complex linear algebra for 2x2 and 4x4 matrices.

Everything downstream (evolution operators, generators, metrics, dilations)
routes through the handful of primitives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotHermitian, NotPositive, Singular

# Eigenvector-matrix condition number beyond which a matrix is flagged
# defective; EP-adjacent matrices must not silently produce garbage
# inverse-eigenvector products.
DEFECTIVE_COND_THRESHOLD = 1e8

TAYLOR_ORDER = 13
SCALING_TARGET_NORM = 0.5

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def herm_residual(a: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part."""
    a = as_matrix(a)
    return float(np.linalg.norm(a - dagger(a)))


def check_finite(a, context="matrix"):
    if not np.all(np.isfinite(np.asarray(a).view(float))):
        raise NonFinite(f"{context} contains NaN/Inf entries")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted by (real, imag) ascending, with matching columns."""

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    defective: bool

    @property
    def gap(self) -> float:
        """|lambda_max - lambda_min| for two-level spectra, else the spread."""
        lam = self.eigenvalues
        return float(abs(lam[-1] - lam[0]))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a truncated series.

    The input is scaled so its Frobenius norm is <= 0.5 before summing the
    order-13 Taylor series; the truncation error is then far below double
    rounding for the dimensions handled here (<= 4).
    """
    a = as_matrix(a)
    check_finite(a, "mat_exp input")
    norm = float(np.linalg.norm(a))
    squarings = 0
    if norm > SCALING_TARGET_NORM:
        squarings = int(np.ceil(np.log2(norm / SCALING_TARGET_NORM)))
    b = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    term = eye.copy()
    out = eye.copy()
    for k in range(1, TAYLOR_ORDER + 1):
        term = term @ b / k
        out += term
    for stage in range(squarings):
        out = out @ out
        if not np.all(np.isfinite(out.view(float))):
            raise NonFinite(f"overflow in mat_exp at squaring stage {stage + 1}/{squarings}")
    return out


def eig_decompose(a) -> EigenDecomposition:
    """Eigendecomposition with a defectiveness flag.

    Never raises on defective input; the flag tells downstream code not to
    trust V^-1 products.
    """
    a = as_matrix(a)
    check_finite(a, "eig_decompose input")
    lam, vec = np.linalg.eig(a)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    vec = vec[:, order]
    cond = float(np.linalg.cond(vec))
    return EigenDecomposition(lam, vec, defective=not cond < DEFECTIVE_COND_THRESHOLD)


SPECTRAL_FUNCTIONS = {
    "sqrt": np.sqrt,
    "inv_sqrt": lambda w: 1.0 / np.sqrt(w),
    "inverse": lambda w: 1.0 / w,
}

HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-12


def herm_funct(a, f: str) -> np.ndarray:
    """Apply a spectral function (sqrt | inv_sqrt | inverse) to a Hermitian matrix."""
    a = as_matrix(a)
    check_finite(a, "herm_funct input")
    if f not in SPECTRAL_FUNCTIONS:
        raise ValueError(f"unknown spectral function {f!r}")
    scale = max(float(np.linalg.norm(a)), 1.0)
    if herm_residual(a) > HERMITICITY_TOL * scale:
        raise NotHermitian(f"herm_funct input has anti-Hermitian part {herm_residual(a):.3e}")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    if w.min() <= POSITIVITY_TOL:
        raise NotPositive(f"eigenvalue {w.min():.3e} below positivity threshold")
    fw = SPECTRAL_FUNCTIONS[f](w)
    out = (v * fw) @ dagger(v)
    return (out + dagger(out)) / 2


def mat_inverse(a) -> np.ndarray:
    a = as_matrix(a)
    check_finite(a, "mat_inverse input")
    det = complex(np.linalg.det(a))
    norm = float(np.linalg.norm(a))
    if abs(det) <= 1e-14 * norm ** a.shape[0]:
        raise Singular(f"matrix is singular within tolerance, |det| = {abs(det):.3e}")
    return np.linalg.inv(a)


def basis_state(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v) -> np.ndarray:
    v = as_vector(v)
    return np.outer(v, v.conj())
