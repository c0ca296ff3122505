"""Closed-form and per-vector references that only the tests use."""

import cmath
import math

import numpy as np

from nhmetro.dynamics import PHASE_EPS, check_normalized
from nhmetro.errors import Unconverged, UnsupportedFamily
from nhmetro.fisher import (INITIAL_QUAD_ORDER, MAX_QUAD_ORDER, QUAD_CONVERGENCE_TOL,
                            centered_state, qfi_centered)
from nhmetro.linalg import SCALING_TARGET_NORM, as_matrix, mat_exp
from nhmetro.models import HamiltonianModel, d_hamiltonian, hamiltonian


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """NumPy's own generator of trial k: PCG64 seeded by SeedSequence([seed, k])."""
    return np.random.default_rng([seed, trial])


def h_eigen_oracle(model: HamiltonianModel, theta: float, t: float):
    """Closed-form eigenvalue pair of the local generator at (theta, t).

    The pair is unordered (the sign convention of the source expressions is
    ambiguous); compare |lambda_+ - lambda_-| rather than individual signs.
    The radicand may be negative at small t, in which case the eigenvalues
    are purely imaginary; the complex square root handles both regimes.
    """
    csqrt = np.lib.scimath.sqrt
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        if model.estimated_param != "alpha":
            raise UnsupportedFamily("pt generator eigenvalues are only available for estimate 'alpha'")
        sec = 1.0 / math.cos(alpha)
        radicand = 4 * math.cos(2 * s * t * math.cos(alpha)) - 4 + s * s * t * t * (1 - math.cos(4 * alpha))
        lam = sec * csqrt(radicand) / (2 * math.sqrt(2))
        return lam, -lam
    if model.family == "kappa":
        # Denominator 8*kappa**2, not 8*kappa: the latter disagrees with the
        # generator matrix itself by a factor sqrt(kappa) whenever kappa != 1.
        kappa = model.bound_params(theta)["kappa"]
        lam = csqrt((-1 + 2 * kappa * t * t + math.cos(2 * t * math.sqrt(kappa)))
                    / (8 * kappa * kappa))
        return lam, -lam
    if model.family == "ep_demo":
        alpha = model.bound_params(theta)["alpha"]
        sec2 = 1.0 / math.cos(2 * alpha)
        root = math.sqrt(math.cos(2 * alpha))
        radicand = (math.cos(2 * t * root) + t * t * math.sin(2 * alpha) * math.sin(4 * alpha) - 1) / 2
        lam = sec2 * csqrt(radicand)
        return lam, -lam
    raise UnsupportedFamily(f"no generator eigenvalue formula for family {model.family!r}")


def closed_form_U(model: HamiltonianModel, theta: float, t: float) -> np.ndarray:
    """Analytic evolution operator for the pt and kappa families."""
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        x = t * s * math.cos(alpha)
        sec = 1.0 / math.cos(alpha)
        return sec * np.array(
            [
                [math.cos(x - alpha), -1j * math.sin(x)],
                [-1j * math.sin(x), math.cos(x + alpha)],
            ]
        )
    if model.family == "kappa":
        kappa = model.bound_params(theta)["kappa"]
        rk = math.sqrt(kappa)
        x = t * rk
        return np.array(
            [
                [math.cos(x), -1j * rk * math.sin(x)],
                [-1j / rk * math.sin(x), math.cos(x)],
            ]
        )
    raise UnsupportedFamily(f"no closed-form evolution for family {model.family!r}")


def fix_phase_loop(v):
    """The per-vector phase fix, with abs() of one complex scalar, that
    `dynamics.fix_phase` must match bit for bit on each vector."""
    for a in v:
        if abs(a) > PHASE_EPS:
            return v * (a.conjugate() / abs(a))
    return v


def evolve_vdot(model: HamiltonianModel, theta: float, t: float, psi0):
    """(phi_out, K) of one evolution with K = <raw|raw> taken by np.vdot."""
    generator = (-1j * np.asarray(t, dtype=float))[..., None, None] * hamiltonian(model, theta)
    raw = mat_exp(generator) @ psi0
    K = float(np.vdot(raw, raw).real)
    return fix_phase_loop(raw / np.sqrt(K)), K


def expectation_vdot(phi, A) -> float:
    """<phi|A|phi> of one state by np.vdot."""
    return float(np.vdot(phi, A @ phi).real)


def squarings_norm(a) -> int:
    """Scaling-and-squaring count of one matrix from np.linalg.norm."""
    norm = float(np.linalg.norm(a))
    return int(np.ceil(np.log2(norm / SCALING_TARGET_NORM))) if norm > SCALING_TARGET_NORM else 0


def qfi_generator(h, phi) -> float:
    """F = 4||(h - <h>) phi||^2 for one generator h and one normalized state
    phi, raising the failure that fisher.qfi_centered carries for it."""
    F, (failure,) = qfi_centered(centered_state(as_matrix(h), check_normalized(phi)))
    if failure is not None:
        raise failure
    return float(F)


def eigen_gap_cmath(h) -> float:
    """2|sqrt(((h00 - h11)/2)^2 + h01 h10)| of one 2x2 matrix in scalar cmath
    arithmetic: the per-h gap that `fisher.eigen_gap` computes over a stack."""
    half = 0.5 * (h[0, 0] - h[1, 1])
    return 2 * abs(cmath.sqrt(half * half + h[0, 1] * h[1, 0]))


def closed_form_qfi_at(model: HamiltonianModel, theta: float, t: float) -> float:
    """The probe-|0> closed-form QFI of the pt and kappa families at one t in
    scalar `math` code: the per-t form of `fisher.qfi_closed_form`."""
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        if model.estimated_param == "s":
            num = 4 * t * t * math.cos(alpha) ** 4
            den = (-1 + math.sin(alpha) * math.sin(alpha - 2 * s * t * math.cos(alpha))) ** 2
            return num / den
        sec = 1.0 / math.cos(alpha)
        x = alpha - 2 * s * t * math.cos(alpha)
        num = 1 - sec * math.cos(x) + 2 * s * t * math.sin(alpha)
        den = sec - math.sin(x) * math.tan(alpha)
        return (num / den) ** 2
    if model.family == "kappa":
        kappa = model.bound_params(theta)["kappa"]
        x = t * math.sqrt(kappa)
        num = (-2 * x + math.sin(2 * x)) ** 2
        den = 4 * kappa * (kappa * math.cos(x) ** 2 + math.sin(x) ** 2) ** 2
        return num / den
    raise UnsupportedFamily(f"no closed-form QFI for family {model.family!r}")


def generator_quadrature_stacked(model: HamiltonianModel, theta: float, t: float) -> np.ndarray:
    """`fisher.generator_quadrature` bit for bit, several times faster: each
    order's nodes go through one mat_exp stack per side, and the weighted
    terms are summed in node order, as the per-node loop sums them."""
    H = hamiltonian(model, theta)
    dH = d_hamiltonian(model, theta)
    if t == 0:
        return np.zeros_like(H)

    def integral(order):
        x, w = np.polynomial.legendre.leggauss(order)
        mu = (0.5 * t * (x + 1.0))[:, None, None]
        terms = (0.5 * t * w)[:, None, None] * (mat_exp(-1j * mu * H) @ dH
                                                @ mat_exp(1j * mu * H))
        acc = np.zeros_like(H)
        for term in terms:
            acc = acc + term
        return acc

    order = INITIAL_QUAD_ORDER
    h = integral(order)
    while order < MAX_QUAD_ORDER:
        order *= 2
        h_next = integral(order)
        if np.linalg.norm(h_next - h) < QUAD_CONVERGENCE_TOL * max(1.0, np.linalg.norm(h_next)):
            return h_next
        h = h_next
    raise Unconverged(f"generator quadrature not converged at {MAX_QUAD_ORDER} nodes "
                      f"(theta = {theta}, t = {t})")
