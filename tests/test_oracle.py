"""The closed-form propagator, the exact derivative route, both QFI routes
and the spectral dilated evolution against 40-digit references.

`fisher.output_derivative` takes U = exp(-itH) and dU/dtheta from one
float64 exponential of the 4x4 block [[H, dH], [0, H]]. The reference
exponentiates the same block, built from the same float64 H and dH, with
`mpmath.expm` at 40 significant digits, so the comparison measures the
kernel and not the model's rounding. The QFI at small t is compared with
the catalog closed forms evaluated at 40 digits. `linalg.propagator` is
compared with `mpmath.expm(-i t H)` of the same float64 H. The dilated evolution is
compared with `mpmath.expm(-i t H_tot)` of the same float64 H_tot. mpmath is
a test dependency only.
"""

import math

import mpmath
import numpy as np
import pytest

from nhmetro import affine_model, ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.dilation import build_dilation, evolve_dilated
from nhmetro.dynamics import evolve
from nhmetro.fisher import (output_derivative, qfi_closed_form, qfi_record,
                            qfi_state_derivative)
from nhmetro.models import d_hamiltonian, hamiltonian

ORACLE_DPS = 40
# Largest relative error over these points: 8.7e-14 away from the EP,
# 5.3e-13 next to it (1e-4 from it, t = 50).
U_REL_TOL = 1e-11
# Largest relative error against the closed forms over these 300 points:
# 6.5e-12 (1.3e-11 over 900 other random points, at alpha = 1.48, t = 30).
F_REL_TOL = 1e-10
# Largest relative error of either route over the small-t points: 2.5e-15.
# Both routes erred by up to 3.2e-4 at t = 1e-6 while F was taken as a
# difference of nearly equal numbers.
SMALL_T_REL_TOL = 1e-13
# Largest relative error of Psi(t) and of success_prob over the dilation
# points: 4.5e-15 and 1.1e-14, the latter at t = 0 next to the EP, where
# success_prob is 8.4e-4 (a Taylor exponential of the same H_tot: 9.2e-15
# and 1.5e-15).
DILATION_REL_TOL = 1e-13
# Largest relative error of the closed-form propagator over these points:
# 6.0e-15 away from the EP, 2.9e-14 next to it (the Taylor mat_exp of the
# same H: 2.3e-14 and 2.0e-13).
PROPAGATOR_REL_TOL = 1e-13
TIMES = (0.0, 0.7, 5.0, 20.0, 50.0)
SMALL_TIMES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
EP_DISTANCES = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def oracle(model, theta, t):
    """(U, dU/dtheta) from a 40-digit exponential of the 4x4 block."""
    H, dH = hamiltonian(model, theta), d_hamiltonian(model, theta)
    with mpmath.workdps(ORACLE_DPS):
        block = mpmath.matrix(4, 4)
        for i in range(2):
            for j in range(2):
                block[i, j] = block[i + 2, j + 2] = mpmath.mpc(H[i, j])
                block[i, j + 2] = mpmath.mpc(dH[i, j])
        E = mpmath.expm(-1j * mpmath.mpf(t) * block)
        U = np.array([[complex(E[i, j]) for j in range(2)] for i in range(2)])
        dU = np.array([[complex(E[i, j + 2]) for j in range(2)] for i in range(2)])
    return U, dU


def family_points(family, rng):
    """One random (model, theta) pair of a family, in its unbroken regime."""
    s, alpha = rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.4)
    kappa, a_ep = rng.uniform(0.2, 4.0), rng.uniform(0.05, 0.75)
    return {"pt_s": (pt_model(s, alpha, "s"), s),
            "pt_alpha": (pt_model(s, alpha, "alpha"), alpha),
            "kappa": (kappa_model(kappa), kappa),
            "ep_demo": (ep_demo_model(a_ep), a_ep)}[family]


def oracle_points(regime):
    if regime == "ep_demo_near_ep":
        return [(ep_demo_model(math.pi / 4 - delta), math.pi / 4 - delta, t)
                for delta in EP_DISTANCES for t in (0.0, 1.0, 10.0, 50.0)]
    rng = np.random.default_rng(1978)
    return [(*family_points(regime, rng), t) for t in TIMES for _ in range(2)]


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("regime", ["pt_s", "pt_alpha", "kappa", "ep_demo", "ep_demo_near_ep"])
def test_output_derivative_matches_oracle(regime):
    for model, theta, t in oracle_points(regime):
        U, dU = output_derivative(model, theta, t)
        if t == 0:
            assert np.array_equal(U, np.eye(2)) and not dU.any()
            continue
        U_ref, dU_ref = oracle(model, theta, t)
        assert rel_err(U, U_ref) <= U_REL_TOL, (theta, t)
        assert rel_err(dU, dU_ref) <= U_REL_TOL, (theta, t)


def expm_oracle(H, t):
    """exp(-i t H) at 40 digits, of the same float64 H."""
    with mpmath.workdps(ORACLE_DPS):
        M = mpmath.matrix([[mpmath.mpc(x) for x in row] for row in H])
        E = mpmath.expm(-1j * mpmath.mpf(t) * M)
        return np.array([[complex(E[i, j]) for j in range(2)] for i in range(2)])


# H = cI + B with B nilpotent (w = 0), and the broken regime H = sigma_x +
# 1.5i sigma_z (w^2 = -1.25, so |U| grows as e^(1.1 t))
SPECIAL_HAMILTONIANS = {
    "nilpotent": np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex),
    "broken": hamiltonian(affine_model(linalg.SIGMA_X, 1j * linalg.SIGMA_Z, 1.5), 1.5),
}


@pytest.mark.parametrize("regime", ["pt_s", "pt_alpha", "kappa", "ep_demo", "ep_demo_near_ep",
                                    *SPECIAL_HAMILTONIANS])
def test_propagator_matches_oracle(regime):
    if regime in SPECIAL_HAMILTONIANS:
        points = [(SPECIAL_HAMILTONIANS[regime], t) for t in TIMES]
    else:
        points = [(hamiltonian(model, theta), t) for model, theta, t in oracle_points(regime)]
    for H, t in points:
        U = linalg.propagator(H, t)
        if t == 0:
            assert np.array_equal(U, np.eye(2))
            continue
        assert rel_err(U, expm_oracle(H, t)) <= PROPAGATOR_REL_TOL, (H, t)


@pytest.mark.parametrize("family", ["pt_s", "pt_alpha", "kappa"])
def test_state_derivative_matches_closed_form(family):
    rng = np.random.default_rng(395)
    ket0 = linalg.basis_state(0)
    for _ in range(100):
        model, theta = family_points(family, rng)
        t = rng.uniform(0.05, 50.0)
        exact = qfi_closed_form(model, theta, t, ket0)
        got = qfi_state_derivative(model, theta, t, ket0)
        assert abs(got - exact) <= F_REL_TOL * exact, (theta, t)


def closed_form_oracle(model, t):
    """The catalog closed-form QFI for the probe |0> at 40 digits."""
    p = {k: mpmath.mpf(v) for k, v in model.params.items()}
    with mpmath.workdps(ORACLE_DPS):
        t = mpmath.mpf(t)
        if model.family == "kappa":
            kappa = p["kappa"]
            x = t * mpmath.sqrt(kappa)
            return ((-2 * x + mpmath.sin(2 * x)) ** 2
                    / (4 * kappa * (kappa * mpmath.cos(x) ** 2 + mpmath.sin(x) ** 2) ** 2))
        s, alpha = p["s"], p["alpha"]
        if model.estimated_param == "s":
            den = -1 + mpmath.sin(alpha) * mpmath.sin(alpha - 2 * s * t * mpmath.cos(alpha))
            return 4 * t * t * mpmath.cos(alpha) ** 4 / den ** 2
        sec = 1 / mpmath.cos(alpha)
        x = alpha - 2 * s * t * mpmath.cos(alpha)
        num = 1 - sec * mpmath.cos(x) + 2 * s * t * mpmath.sin(alpha)
        return (num / (sec - mpmath.sin(x) * mpmath.tan(alpha))) ** 2


@pytest.mark.parametrize("family", ["pt_s", "pt_alpha", "kappa"])
def test_both_routes_keep_relative_accuracy_as_t_goes_to_0(family):
    # F vanishes as t^2 (pt_s) or t^6 (kappa); a route that subtracts two
    # terms of order F/t^k loses k digits of F per decade of t.
    rng = np.random.default_rng(1996)
    ket0 = linalg.basis_state(0)
    for _ in range(3):
        model, theta = family_points(family, rng)
        for t in SMALL_TIMES:
            exact = float(closed_form_oracle(model, t))
            for got in (qfi_record(model, theta, t, evolve(model, theta, t, ket0)).F,
                        qfi_state_derivative(model, theta, t, ket0)):
                assert abs(got - exact) <= SMALL_T_REL_TOL * exact, (theta, t)


def dilated_oracle(sys_, Psi0, t):
    """(Psi(t), success_prob) from a 40-digit exp(-i t H_tot) Psi0."""
    with mpmath.workdps(ORACLE_DPS):
        H_tot = mpmath.matrix([[mpmath.mpc(x) for x in row] for row in sys_.H_tot])
        Psi = mpmath.expm(-1j * mpmath.mpf(t) * H_tot) * mpmath.matrix(
            [mpmath.mpc(x) for x in Psi0])
        weights = [abs(x) ** 2 for x in Psi]
        success = (weights[0] + weights[1]) / sum(weights)
        return np.array([complex(x) for x in Psi]), float(success)


def dilation_points(regime, rng):
    """Four seeded (model, theta) points of a regime, unbroken."""
    points = []
    for _ in range(4):
        s, alpha = rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.4)
        kappa, a_ep = rng.uniform(0.2, 4.0), rng.uniform(0.05, 0.78)
        a_near = rng.uniform(0.78, 0.785)
        points.append({"pt": (pt_model(s, alpha, "alpha"), alpha),
                       "kappa": (kappa_model(kappa), kappa),
                       "ep_demo": (ep_demo_model(a_ep), a_ep),
                       "ep_demo_near_ep": (ep_demo_model(a_near), a_near)}[regime])
    return points


@pytest.mark.parametrize("regime", ["pt", "kappa", "ep_demo", "ep_demo_near_ep"])
def test_evolve_dilated_matches_oracle(regime):
    rng = np.random.default_rng(2024)
    times = np.array([0.0, 0.3, 1.0, 3.0, 10.0])
    for model, theta in dilation_points(regime, rng):
        sys_ = build_dilation(hamiltonian(model, theta))
        phi = rng.uniform(0.0, math.pi / 2)
        psi0 = np.array([math.cos(2 * phi), math.sin(2 * phi)], dtype=complex)
        Psi_t, _, success = evolve_dilated(sys_, psi0, times)
        Psi0 = np.concatenate([psi0, sys_.z_half @ psi0])
        for i, t in enumerate(times):
            Psi_ref, success_ref = dilated_oracle(sys_, Psi0, t)
            assert rel_err(Psi_t[i], Psi_ref) <= DILATION_REL_TOL, (theta, t)
            assert abs(success[i] - success_ref) <= DILATION_REL_TOL * success_ref, (theta, t)
