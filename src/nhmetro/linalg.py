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
    if not np.isfinite(a).all():
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


def _squarings(a: np.ndarray) -> int:
    """Halvings that bring the Frobenius norm of `a` to <= SCALING_TARGET_NORM."""
    norm = float(np.linalg.norm(a))
    if norm > SCALING_TARGET_NORM:
        return int(np.ceil(np.log2(norm / SCALING_TARGET_NORM)))
    return 0


def _taylor(b: np.ndarray) -> np.ndarray:
    """Order-TAYLOR_ORDER Taylor series of exp(b) for a matrix or a stack."""
    term = np.eye(b.shape[-1], dtype=complex)
    if b.ndim == 3:
        term = np.broadcast_to(term, b.shape)
    out = term.copy()
    for k in range(1, TAYLOR_ORDER + 1):
        term = term @ b / k
        out += term
    return out


def mat_exp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a truncated series.

    The input is scaled so its Frobenius norm is <= 0.5 before summing the
    order-13 Taylor series; the truncation error is then far below double
    rounding for the dimensions handled here (<= 4).

    `a` is one matrix or a stack of shape (N, d, d). Each matrix of a stack
    keeps its own squaring count and gets exactly the bits of a single call.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 3:
        return _mat_exp_stack(a)
    a = as_matrix(a)
    check_finite(a, "mat_exp input")
    squarings = _squarings(a)
    out = _taylor(a / (2.0 ** squarings))
    for stage in range(squarings):
        out = out @ out
        if not np.isfinite(out).all():
            raise NonFinite(f"overflow in mat_exp at squaring stage {stage + 1}/{squarings}")
    return out


def _mat_exp_stack(a: np.ndarray) -> np.ndarray:
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    check_finite(a, "mat_exp input")
    squarings = np.array([_squarings(m) for m in a], dtype=int)
    out = _taylor(a / (2.0 ** squarings)[:, None, None])
    for stage in range(squarings.max(initial=0)):
        todo = np.flatnonzero(squarings > stage)
        squared = out[todo] @ out[todo]
        finite = np.isfinite(squared).all(axis=(1, 2))
        if not finite.all():
            total = squarings[todo[np.argmin(finite)]]
            raise NonFinite(f"overflow in mat_exp at squaring stage {stage + 1}/{total}")
        out[todo] = squared
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
