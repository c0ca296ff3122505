"""Shared fixtures and frozen reference data for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from nhmetro import linalg
from nhmetro.fisher import output_derivative, qfi_from_output

# Reference square-root QFI values on the standard time grids.
SQRT_F_S = [0.4682, 0.6406, 0.7624, 0.9236, 1.1933,
            1.6875, 2.6743, 4.8245, 9.3179, 13.3574]  # t = k*pi/8, k=1..10
SQRT_F_ALPHA = [0.4445, 0.8080, 1.2604, 1.8711, 2.7872,
                4.3343, 7.2462, 12.4451, 15.5728]      # t = k*pi/8, k=2..10
SQRT_F_KAPPA = [0.1110, 0.9762, 1.3985, 1.1274, 1.3392,
                2.7642, 3.2765, 2.3565, 2.4002, 4.1726]  # t = k*pi/6, k=1..10

# Reference survival probabilities.
P0_TIME = [0.9104, 0.7733, 0.6457, 0.5279, 0.4123,
           0.2903, 0.1563, 0.0277, 0.0535, 0.5671]     # t = k*pi/8, k=1..10
P0_PROBE = [0.0872, 0.1074, 0.1660, 0.2573, 0.3724, 0.5000,
            0.6276, 0.7427, 0.8340, 0.8926, 0.9128]    # phi = 0..45 deg, 11 pts

# Reference single-shot standard deviations for the probe-angle sweep
# (alpha estimation at s=1, alpha=pi/10, t = pi/(2 cos(pi/10))).
SIGMA_PROBE = {0.0: 0.3813, 18.0: 1.6165, 45.0: 1.1763}
INV_SQRT_F_PROBE = {0.0: 0.3813, 18.0: 0.4934, 45.0: 1.1763}

# MLE inversion brackets per (label, grid index 1..10); the probability map
# theta -> p0 is monotonic on each bracket and wide enough for the binomial
# spread at n = 2000.
BRACKETS = {
    "pt-s": [(0.62, 1.38), (0.7208, 1.2792), (0.7654, 1.2346), (0.8063, 1.1937),
             (0.8501, 1.1499), (0.894, 1.106), (0.9331, 1.0669), (0.9629, 1.0371),
             (0.9808, 1.0192), (0.9866, 1.0134)],
    "pt-alpha": [(0.5004, 1.0704), (0.5004, 1.0704), (0.564, 1.0068), (0.6435, 0.9273),
                 (0.6898, 0.881), (0.7212, 0.8496), (0.7441, 0.8267), (0.7607, 0.8101),
                 (0.771, 0.7998), (0.7739, 0.7969)],
    "kappa": [(1.145, 2.855), (1.8167, 2.1833), (1.8721, 2.1279), (1.8413, 2.1587),
              (1.8664, 2.1336), (1.9353, 2.0647), (1.9454, 2.0546), (1.9241, 2.0759),
              (1.9255, 2.0745), (1.9571, 2.0429)],
}

MLE_SEED = 20260823

T18 = math.pi / (2 * math.cos(math.pi / 10))  # sweep time of the probe tables


@pytest.fixture
def ket0():
    return linalg.basis_state(0)


@pytest.fixture
def proj0():
    return linalg.projector(linalg.basis_state(0))


def generator_from_output(model, theta, t) -> np.ndarray:
    """h = i (dU/dtheta) U^-1 from the exact block-exponential derivative."""
    U, dU = output_derivative(model, theta, t)
    return 1j * dU @ np.linalg.inv(U)


def gauge_deviation(model, theta, t, psi0, c, dc) -> float:
    """Relative change of the state-derivative QFI when U is multiplied by a
    scalar c(theta) with derivative dc(theta): v -> c v, dv -> c dv + c' v."""
    U, dU = output_derivative(model, theta, t)
    v, dv = U @ psi0, dU @ psi0
    base = qfi_from_output(v, dv)
    scaled = qfi_from_output(c(theta) * v, c(theta) * dv + dc(theta) * v)
    return abs(scaled - base) / max(abs(base), 1e-300)


def probe_state(phi_deg: float) -> np.ndarray:
    phi = math.radians(phi_deg)
    return np.array([math.cos(2 * phi), math.sin(2 * phi)], dtype=complex)


@st.composite
def real_spectrum_hamiltonians(draw):
    """H = V diag(l, l + gap) V^-1 with a random complex V of condition
    number below 100 and a real spectrum: the unbroken regime away from the EP.
    Every drawn value is a multiple of 1e-6: on entries like 1e-259, LAPACK's
    eig returns wrong eigenvectors (for [[0, 0], [-1, 1]] + 2.2e-309j, the
    vector [1, 0] for eigenvalue 0), so it could not serve as the reference."""
    def grid(lo, hi):
        return st.floats(lo, hi).map(lambda x: round(x, 6))

    unit = grid(-1.0, 1.0)
    V = np.array([[complex(draw(unit), draw(unit)) for _ in range(2)] for _ in range(2)])
    assume(np.linalg.cond(V) < 100)
    low, gap = draw(grid(-5.0, 5.0)), draw(grid(0.01, 5.0))
    return V @ np.diag([low, low + gap]) @ np.linalg.inv(V)
