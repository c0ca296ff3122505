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


def _check_pt(s: float, alpha: float):
    # s = 0 is tolerated as the trivial zero Hamiltonian.
    if s < 0:
        raise OutOfRange(f"pt family requires s >= 0, got {s}")
    if not 0 < alpha < math.pi / 2:
        raise OutOfRange(f"pt family requires 0 < alpha < pi/2, got {alpha}")


def _check_kappa(kappa: float):
    if kappa <= 0 or kappa == 1:
        raise OutOfRange(f"kappa family requires kappa > 0 and kappa != 1, got {kappa}")


def _check_ep_demo(alpha: float):
    # cos(2 alpha) > 0 keeps the spectrum real (unbroken regime).
    if not 0 < alpha < math.pi / 4:
        raise OutOfRange(f"ep_demo family requires 0 < alpha < pi/4, got {alpha}")


def hamiltonian(model: HamiltonianModel, theta: float) -> np.ndarray:
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        _check_pt(s, alpha)
        return s * np.array([[1j * math.sin(alpha), 1.0], [1.0, -1j * math.sin(alpha)]])
    if model.family == "kappa":
        kappa = model.bound_params(theta)["kappa"]
        _check_kappa(kappa)
        return np.array([[0.0, kappa], [1.0, 0.0]], dtype=complex)
    if model.family == "ep_demo":
        alpha = model.bound_params(theta)["alpha"]
        _check_ep_demo(alpha)
        c, s = math.cos(alpha), math.sin(alpha)
        return np.array([[1j * s, c], [c, -1j * s]])
    if model.family == "custom":
        return np.asarray(model.h_func(theta), dtype=complex)
    raise UnsupportedFamily(f"unknown family {model.family!r}")


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

