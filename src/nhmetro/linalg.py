"""Small dense complex linear algebra for 2x2 and 4x4 matrices.

Everything downstream (evolution operators, generators, metrics, dilations)
routes through the handful of primitives here.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

TAYLOR_ORDER = 13
SCALING_TARGET_NORM = 0.5
# Below this |w^2 t^2|, cos(wt) and sin(wt)/(wt) are summed from their series
# to the (w^2 t^2)^2 term, so w = 0 (a nilpotent B, or H = cI) needs no
# branch; the first dropped terms are below 1e-15/720 < 1.4e-18.
PROPAGATOR_SERIES_THRESHOLD = 1e-5

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
    term = out = np.eye(b.shape[-1], dtype=complex)
    for k in range(1, TAYLOR_ORDER + 1):
        term = term @ b / k
        out = out + term
    return out


def mat_exp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a truncated series.

    The input is scaled so its Frobenius norm is <= 0.5 before summing the
    order-13 Taylor series; the truncation error is then far below double
    rounding for the dimensions handled here (<= 4).

    `a` is one matrix (d, d) or a stack (N, d, d), and both run this one body.
    Each matrix of a stack keeps its own squaring count and gets exactly the
    bits of a single call. A stage that every matrix still needs squares the
    whole array; other stages square only the matrices that need it.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    check_finite(a, "mat_exp input")
    squarings = _squarings(a)
    out = _taylor(a / (2.0 ** squarings)[..., None, None])
    for stage in range(squarings.max(initial=0)):
        todo = squarings > stage
        if todo.all():
            out = squared = out @ out
        else:
            squared = out[todo] @ out[todo]
            out[todo] = squared
        finite = np.isfinite(squared).all(axis=(-2, -1))
        if not finite.all():
            total = squarings[todo][np.argmin(finite)]
            raise NonFinite(f"overflow in mat_exp at squaring stage {stage + 1}/{total}")
    return out


def traceless_split(H: np.ndarray) -> tuple:
    """(c, B, w^2) of a 2x2 H = cI + B with B traceless, so B^2 = w^2 I."""
    c = 0.5 * (H[0, 0] + H[1, 1])
    B = H - c * np.eye(2)
    return c, B, B[0, 0] * B[0, 0] + B[0, 1] * B[1, 0]


def propagator(H, t) -> np.ndarray:
    """exp(-i t H) of a 2x2 H for one t (2, 2) or each t of a 1-D array (N, 2, 2).

    With H = cI + B and B^2 = w^2 I, exp(-i t H) = e^(-ict) (C I - i S B) with
    C = cos(wt) and S = sin(wt)/w (Bernstein & So, IEEE TAC 38, 1228 (1993)).
    C and S are entire in w^2, and below PROPAGATOR_SERIES_THRESHOLD in
    |w^2 t^2| they are summed from their series: the exceptional point
    (w = 0) and the broken regime (imaginary w) need no branch. Every t gets
    the bits of a single call.
    """
    H = as_matrix(H)
    if H.shape != (2, 2):
        raise ValueError("the closed-form propagator is for 2x2 Hamiltonians only")
    c, B, w2 = traceless_split(H)
    times = np.asarray(t, dtype=float)
    u = -w2 * times * times
    series = abs(u) < PROPAGATOR_SERIES_THRESHOLD
    w = np.sqrt(complex(w2))
    # w is 0 only where every t takes the series: the division never uses it
    C = np.where(series, 1 + u * (1 / 2 + u / 24), np.cos(w * times))
    S = np.where(series, times * (1 + u * (1 / 6 + u / 120)), np.sin(w * times) / (w or 1.0))
    phase = np.exp(-1j * c * times)[..., None, None]
    return phase * (C[..., None, None] * np.eye(2) - 1j * S[..., None, None] * B)


def basis_state(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v) -> np.ndarray:
    v = as_vector(v)
    return np.outer(v, v.conj())
