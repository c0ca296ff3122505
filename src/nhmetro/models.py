"""Catalog of parametric non-Hermitian Hamiltonians with analytic derivatives.

Each family gives H(theta) and dH/dtheta; the closed-form evolution operators
that the tests use as independent references live in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    h_func: Optional[Callable[[float], np.ndarray]] = None
    d_func: Optional[Callable[[float], np.ndarray]] = None

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


def custom_model(h_func, d_func, params=None, estimated_param="theta") -> HamiltonianModel:
    """Custom family; the caller supplies analytic H(theta) and dH/dtheta."""
    return HamiltonianModel("custom", dict(params or {}), estimated_param, h_func, d_func)


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

    Each matrix of a stack equals the single call bit for bit. Only a custom
    h_func runs per theta; the range check, the trig (np.sin, np.cos), the
    matrix assembly and the pt product s * (...) are one array step. A range
    error names the first theta out of range, in the text of the single call.
    """
    thetas = np.asarray(theta, dtype=float)
    if model.family == "custom":
        H = [np.asarray(model.h_func(th), dtype=complex) for th in thetas.ravel().tolist()]
        return np.array(H, dtype=complex).reshape(thetas.shape + (2, 2))
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
    if model.family == "custom":
        return np.asarray(model.d_func(theta), dtype=complex)
    raise UnsupportedFamily(f"unknown family {model.family!r}")

