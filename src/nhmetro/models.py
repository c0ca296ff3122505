"""Catalog of parametric non-Hermitian Hamiltonians with analytic derivatives.

Each family gives H(theta) and dH/dtheta; the closed-form evolution operators
that the tests use as independent references live in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, UnsupportedFamily

# Parameters of each catalog family, in config order; a family with one
# parameter always estimates it.
PARAMS = {"pt": ("s", "alpha"), "kappa": ("kappa",), "ep_demo": ("alpha",)}


@dataclass(frozen=True)
class HamiltonianModel:
    family: str
    params: dict = field(default_factory=dict)
    estimated_param: str = ""

    def bound_params(self, theta: float) -> dict:
        p = dict(self.params)
        p[self.estimated_param] = theta
        return p

    @property
    def true_value(self) -> float:
        return float(self.params[self.estimated_param])


def pt_model(s: float, alpha: float, estimate: str = "s") -> HamiltonianModel:
    if estimate not in ("s", "alpha"):
        raise OutOfRange(f"pt family estimates 's' or 'alpha', not {estimate!r}")
    return HamiltonianModel("pt", {"s": float(s), "alpha": float(alpha)}, estimate)


def kappa_model(kappa: float) -> HamiltonianModel:
    return HamiltonianModel("kappa", {"kappa": float(kappa)}, "kappa")


def ep_demo_model(alpha: float) -> HamiltonianModel:
    return HamiltonianModel("ep_demo", {"alpha": float(alpha)}, "alpha")


def affine_model(H0, H1, theta: float) -> HamiltonianModel:
    """H(theta) = H0 + theta H1, with any 2x2 H0 and H1, estimating theta.
    H0 = H(t0) - t0 dH(t0) and H1 = dH(t0) reproduce any family at t0. H0
    and H1 are kept as nested tuples of complex, so two models compare."""
    H0, H1 = (tuple(map(tuple, np.array(M, dtype=complex).tolist())) for M in (H0, H1))
    return HamiltonianModel("affine", {"theta": float(theta), "H0": H0, "H1": H1}, "theta")


def _check_range(*checks):
    """Raise OutOfRange at the first point where a check fails, with the
    message of the first check that fails there. Each check is (bad, value,
    message); bad and value are one point's bool and float, or arrays over
    the points (a fixed parameter's float broadcasts)."""
    bad = checks[0][0]
    for check in checks[1:]:
        bad = bad | check[0]
    if not np.count_nonzero(bad):
        return
    i = np.argmax(bad)
    for check_bad, value, message in checks:
        if np.broadcast_to(check_bad, np.shape(bad)).flat[i]:
            raise OutOfRange(message.format(float(np.broadcast_to(value, np.shape(bad)).flat[i])))


def _check_pt(s, alpha):
    # s = 0 is tolerated as the trivial zero Hamiltonian.
    _check_range((np.less(s, 0), s, "pt family requires s >= 0, got {}"),
                 (np.logical_not((0 < alpha) & (alpha < math.pi / 2)), alpha,
                  "pt family requires 0 < alpha < pi/2, got {}"))


def _check_kappa(kappa):
    _check_range((np.less_equal(kappa, 0) | np.equal(kappa, 1), kappa,
                  "kappa family requires kappa > 0 and kappa != 1, got {}"))


def _check_ep_demo(alpha):
    # cos(2 alpha) > 0 keeps the spectrum real (unbroken regime).
    _check_range((np.logical_not((0 < alpha) & (alpha < math.pi / 4)), alpha,
                  "ep_demo family requires 0 < alpha < pi/4, got {}"))


def hamiltonian(model: HamiltonianModel, theta) -> np.ndarray:
    """H(theta) for one theta (2, 2) or for each theta of a 1-D array (N, 2, 2).

    Each matrix of a stack equals the single call bit for bit. The range
    check, the trig (np.sin, np.cos), the matrix assembly, the pt product
    s * (...) and the affine H0 + theta H1 are one array step. A range error
    names the first theta out of range, in the text of the single call.
    """
    thetas = np.asarray(theta, dtype=float)
    if model.family == "affine":
        H0, H1 = (np.asarray(model.params[k], dtype=complex) for k in ("H0", "H1"))
        return H0 + thetas[..., None, None] * H1
    if model.family not in PARAMS:
        raise UnsupportedFamily(f"unknown family {model.family!r}")
    p = model.bound_params(thetas)
    H = np.zeros(thetas.shape + (2, 2), dtype=complex)
    if model.family == "kappa":
        _check_kappa(p["kappa"])
        H[..., 0, 1] = p["kappa"]
        H[..., 1, 0] = 1.0
        return H
    if model.family == "pt":
        _check_pt(p["s"], p["alpha"])
    else:
        _check_ep_demo(p["alpha"])
    sin = np.sin(p["alpha"])
    H[..., 0, 0].imag = sin
    H[..., 1, 1].imag = -sin
    if model.family == "ep_demo":
        H[..., 0, 1] = H[..., 1, 0] = np.cos(p["alpha"])
        return H
    H[..., 0, 1] = H[..., 1, 0] = 1.0
    # a complex product, rounded as the scalar s times a complex matrix
    return np.asarray(p["s"])[..., None, None] * H


def d_hamiltonian(model: HamiltonianModel, theta: float) -> np.ndarray:
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        _check_pt(s, alpha)
        if model.estimated_param == "s":
            return np.array([[1j * math.sin(alpha), 1.0], [1.0, -1j * math.sin(alpha)]])
        return np.array([[1j * s * math.cos(alpha), 0.0], [0.0, -1j * s * math.cos(alpha)]])
    if model.family == "kappa":
        _check_kappa(model.bound_params(theta)["kappa"])
        return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    if model.family == "ep_demo":
        alpha = model.bound_params(theta)["alpha"]
        _check_ep_demo(alpha)
        c, s = math.cos(alpha), math.sin(alpha)
        return np.array([[1j * c, -s], [-s, -1j * c]])
    if model.family == "affine":
        return np.asarray(model.params["H1"], dtype=complex)
    raise UnsupportedFamily(f"unknown family {model.family!r}")

