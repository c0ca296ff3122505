"""Small dense complex linear algebra for 2x2 and 4x4 matrices.

Everything downstream (evolution operators, generators, metrics, dilations)
routes through the handful of primitives here.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

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


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector of `v` (..., n), summed as np.linalg.norm
    sums one vector, so each gets its bits."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _squarings(a: np.ndarray) -> np.ndarray:
    """Halvings that bring the Frobenius norm of each matrix of `a` (..., d, d)
    to <= SCALING_TARGET_NORM; raises NonFinite when a norm overflows."""
    norm = norms(a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],)))
    if not np.isfinite(norm).all():
        raise NonFinite("the Frobenius norm of a finite mat_exp input overflows")
    return np.ceil(np.log2(np.maximum(norm, SCALING_TARGET_NORM) / SCALING_TARGET_NORM)).astype(int)


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
    # Kept for speed: one 2x2 takes 66-75 us here and 100-147 us as a stack of
    # one (timeit, 2-CPU Xeon VM). Its callers: cmd_estimate's p0 evolve, once
    # per sweep point; cmd_optimal's three evolves per probe-sweep config; the
    # test-only generator_quadrature, twice per node.
    a = as_matrix(a)
    check_finite(a, "mat_exp input")
    squarings = int(_squarings(a))
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
    squarings = _squarings(a)
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


def basis_state(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v) -> np.ndarray:
    v = as_vector(v)
    return np.outer(v, v.conj())
