"""Quantum Fisher information for non-unitary dynamics.

The local generator h = i (dU/dtheta) U^-1 has an exact 2x2 closed form,
which is the production route; a time-ordered quadrature stays as an
independent cross-check in the tests. The QFI is computed by three routes:
the generalized variance of h (production), the derivative of the
normalized output state with dU/dtheta taken exactly from one 4x4 block
exponential, and closed forms for the catalog families. The generator's
eigenvalue gap is a closed form too, exact (0) at a defective h.

The generator, the output derivative and the two cross-check QFI routes
take one t or a 1-D array of t; `qfi_record` takes an `evolve` result (also
a probe stack at one t) and gives the one f = (h - <h>) phi and F that every
caller reads. Each point of a stack gets the bits of a single call. A row
that fails is carried as nan in the stacked result, with its typed error in
the row's `failures` entry, so one bad t never stops the others, with one
exception: a t whose ||Ht|| overflows makes `mat_exp` raise NonFinite for the
whole stack, so every row of that stack fails with it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import EvolutionResult, check_normalized, evolve
from .errors import ImaginaryResidue, Unconverged, UnsupportedFamily, UnsupportedProbe
from .models import HamiltonianModel, d_hamiltonian, hamiltonian

INITIAL_QUAD_ORDER = 64
QUAD_CONVERGENCE_TOL = 1e-10
MAX_QUAD_ORDER = 1024
IMAG_RESIDUE_TOL = 1e-10
# Below this |x|, (x - sin x)/x^3 is summed from its Taylor series: x - sin x
# cancels to ~6 eps/x^2 relative, which is under 2e-16 from |x| = 2 on. At
# |x| = 2 the first dropped term is 2^22/25! < 3e-19.
SERIES_THRESHOLD = 2.0
_SERIES_COEFFS = tuple(1.0 / math.factorial(2 * k + 3) for k in range(11))


def _x_minus_sin_over_x3(x: complex) -> complex:
    """(x - sin x)/x^3, an entire function of x^2 (1/6 at x = 0)."""
    if abs(x) < SERIES_THRESHOLD:
        x2 = x * x
        acc = 0.0
        for coeff in reversed(_SERIES_COEFFS):  # sum_k (-x^2)^k / (2k+3)!
            acc = coeff - x2 * acc
        return acc
    return (x - cmath.sin(x)) / x ** 3


def _sinc(x: complex) -> complex:
    return cmath.sin(x) / x if x != 0 else 1.0


def _coefficients(w: complex, t: float) -> tuple:
    """(a, i b, d) of generator_closed_form at one t, in scalar cmath
    arithmetic: NumPy's complex division and complex products round
    differently from CPython's. An array version over t moves 4 golden
    digests and took 142-179 us against 39-65 us for this loop (2-CPU Intel
    Xeon VM, NumPy 2.4.6). All three are nan where one overflows (a huge t
    or w)."""
    try:
        a = 0.5 * t * (1.0 + _sinc(2 * w * t))
        ib = 1j * (0.5 * t * t * _sinc(w * t) ** 2)
        d = 2 * t ** 3 * _x_minus_sin_over_x3(2 * w * t)
    except (OverflowError, ValueError):  # ValueError: cmath.sin of an infinite argument
        return (cmath.nan,) * 3
    return a, ib, d


def generator_closed_form(model: HamiltonianModel, theta: float, t) -> np.ndarray:
    """h as the exact integral of exp(-i mu H) dH exp(i mu H) over mu in [0, t],
    for one t (2, 2) or each t of a 1-D array (N, 2, 2).

    With H = cI + B, B traceless and B^2 = w^2 I, the integrand is
    C^2 dH + i C S [dH, B] + S^2 B dH B with C = cos(w mu), S = sin(w mu)/w,
    so h = a dH + i b [dH, B] + d B dH B with a = (t/2)(1 + sinc 2wt),
    b = (t^2/2) sinc^2(wt) and d = 2t^3 (x - sin x)/x^3 at x = 2wt. All three
    are entire in w^2: the EP (w = 0, nilpotent B) and the broken regime
    (imaginary w) need no special case. H, dH and B are built once; only the
    coefficients are per t. A t whose coefficients overflow gives a nan h.
    """
    H = hamiltonian(model, theta)
    dH = d_hamiltonian(model, theta)
    _, B, w2 = linalg.traceless_split(H)
    w = cmath.sqrt(w2)
    times = np.asarray(t, dtype=float)
    coeffs = np.array([_coefficients(w, tk) for tk in times.ravel().tolist()], dtype=complex)
    a, ib, d = coeffs.T.reshape((3,) + times.shape + (1, 1))
    dHB, BdH = dH @ B, B @ dH
    return a * dH + ib * (dHB - BdH) + d * (B @ dHB)


def generator_quadrature(model: HamiltonianModel, theta: float, t: float) -> np.ndarray:
    """h as the integral of exp(-i mu H) dH exp(i mu H) over mu in [0, t].

    Gauss-Legendre on [0, t] from 64 nodes; the node count doubles until two
    successive results h_n, h_2n satisfy ||h_2n - h_n|| < 1e-10 max(1, ||h_2n||),
    and raises Unconverged if that fails at 1024 nodes. An independent
    cross-check of generator_closed_form.
    """
    H = hamiltonian(model, theta)
    dH = d_hamiltonian(model, theta)
    if t == 0:
        return np.zeros_like(H)

    def integral(order):
        x, w = np.polynomial.legendre.leggauss(order)
        mu = 0.5 * t * (x + 1.0)
        wt = 0.5 * t * w
        acc = np.zeros_like(H)
        for m, ww in zip(mu, wt):
            acc = acc + ww * (linalg.mat_exp(-1j * m * H) @ dH @ linalg.mat_exp(1j * m * H))
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


def output_derivative(model: HamiltonianModel, theta: float, t):
    """(U, dU/dtheta) with U = exp(-i t H), both exact, from one 4x4
    exponential at one t, or one stacked exponential over a 1-D array of t.

    exp(-i t [[H, dH], [0, H]]) = [[U, dU], [0, U]] (Van Loan, IEEE Trans.
    Autom. Control 23 (1978) 395): no step, so theta never leaves the
    admissible range next to the EP. Independent of generator_closed_form.
    """
    H = hamiltonian(model, theta)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = block[2:, 2:] = H
    block[:2, 2:] = d_hamiltonian(model, theta)
    E = linalg.mat_exp((-1j * np.asarray(t, dtype=float))[..., None, None] * block)
    return E[..., :2, :2], E[..., :2, 2:]


def centered_state(h, phi) -> np.ndarray:
    """f = (h - <h>) phi for a normalized state phi: one h (2, 2) with one
    state or a stack (..., 2), or a stack of h (N, 2, 2) with one state each.
    F = 4<f|f> is the generalized variance 4(<h^dag h> - <h^dag><h>) with no
    difference of nearly equal terms, so F keeps its relative accuracy as
    t -> 0. measure takes g = (A - <A>) phi from here too: Var A = ||g||^2 in
    error_propagation_precision, and the fit of f on g in optimality_residual."""
    hphi = (h @ phi[..., None])[..., 0]
    return hphi - np.vecdot(phi, hphi)[..., None] * phi


def qfi_centered(f) -> tuple:
    """(F, failures) for one centered generator state f = (h - <h>) phi or a
    stack (..., 2): F = 4<f|f>, nan where that keeps an imaginary part of
    IMAG_RESIDUE_TOL or more (or a non-finite one), and `failures` holds the
    ImaginaryResidue of each such state, None for the others."""
    value = 4 * np.vecdot(f, f)
    real = abs(value.imag) < IMAG_RESIDUE_TOL
    failures = tuple(None if ok else ImaginaryResidue(f"QFI imaginary residue {v.imag:.3e}")
                     for v, ok in zip(np.ravel(value), np.ravel(real)))
    return np.where(real, value.real, np.nan)[()], failures


def qfi_from_output(v, dv):
    """4||dv - (<v|dv>/<v|v>) v||^2/<v|v> for an unnormalized output v(theta)
    and its derivative dv, one (2,) or a stack (..., 2).

    This is 4(<dphi|dphi> - |<phi|dphi>|^2) on phi = v/||v||, so it is
    unchanged by v -> c v, dv -> c dv + c' v for any scalar c(theta) != 0:
    neither the norm nor the phase of v enters. Projecting out v first
    cancels nothing, so F keeps its relative accuracy as t -> 0.
    """
    norm2 = np.vecdot(v, v).real
    perp = dv - (np.vecdot(v, dv) / norm2)[..., None] * v
    return 4 * np.vecdot(perp, perp).real / norm2


def qfi_state_derivative(model: HamiltonianModel, theta: float, t, psi0):
    """QFI from the derivative of the normalized output state, with the exact
    v = U psi0 and dv = (dU/dtheta) psi0 of output_derivative, at one t or
    each t of a 1-D array."""
    psi0 = check_normalized(psi0)
    U, dU = output_derivative(model, theta, t)
    return qfi_from_output(U @ psi0, dU @ psi0)


KET0_TOL = 1e-12


def qfi_closed_form(model: HamiltonianModel, theta: float, t, psi0):
    """The catalog families' analytic QFI for the probe |0> only, at one t or
    each t of a 1-D array, with the probe checked once."""
    psi0 = check_normalized(psi0)
    if abs(psi0[0] - 1.0) > KET0_TOL or np.linalg.norm(psi0[1:]) > KET0_TOL:
        raise UnsupportedProbe("closed-form QFI expressions require the probe |0>")
    t = np.asarray(t, dtype=float)
    if model.family == "pt":
        p = model.bound_params(theta)
        s, alpha = p["s"], p["alpha"]
        if model.estimated_param == "s":
            num = 4 * t * t * math.cos(alpha) ** 4
            den = (-1 + math.sin(alpha) * np.sin(alpha - 2 * s * t * math.cos(alpha))) ** 2
            return num / den
        sec = 1.0 / math.cos(alpha)
        x = alpha - 2 * s * t * math.cos(alpha)
        num = 1 - sec * np.cos(x) + 2 * s * t * math.sin(alpha)
        den = sec - np.sin(x) * math.tan(alpha)
        return (num / den) ** 2
    if model.family == "kappa":
        kappa = model.bound_params(theta)["kappa"]
        x = t * math.sqrt(kappa)
        num = (-2 * x + np.sin(2 * x)) ** 2
        den = 4 * kappa * (kappa * np.cos(x) ** 2 + np.sin(x) ** 2) ** 2
        return num / den
    raise UnsupportedFamily(f"no closed-form QFI for family {model.family!r}")


@dataclass(frozen=True)
class QFIRecord:
    """QFI bundle at one (theta, t) point, or arrays over a 1-D array of t or
    a stack of probes: the centered generator state f = (h - <h>) phi, F, K,
    I = K F and the generator's eigenvalue gap. A failed point is nan in F,
    I and gap, and `failures` holds its typed error (None for the others)."""

    f: np.ndarray
    F: float | np.ndarray
    K: float | np.ndarray
    I: float | np.ndarray
    gap: float | np.ndarray
    failures: tuple


def eigen_gap(h):
    """|lambda_1 - lambda_2| of a 2x2 matrix or of each of a stack (..., 2, 2),
    2|sqrt(((h00 - h11)/2)^2 + h01 h10)|: no eigenvectors, and exactly 0 at a
    defective h."""
    half = 0.5 * (h[..., 0, 0] - h[..., 1, 1])
    root = np.sqrt(half * half + h[..., 0, 1] * h[..., 1, 0])
    return 2 * np.hypot(root.real, root.imag)


def qfi_record(model: HamiltonianModel, theta: float, t, res: EvolutionResult) -> QFIRecord:
    """The QFIRecord of res = evolve(model, theta, t, psi0) from one generator
    stack (a probe stack shares one h); a failed point gets no gap."""
    h = generator_closed_form(model, theta, t)
    f = centered_state(h, check_normalized(res.phi_out))
    F, failures = qfi_centered(f)
    return QFIRecord(f=f, F=F, K=res.K, I=res.K * F, gap=np.where(np.isnan(F), np.nan, eigen_gap(h))[()],
                     failures=failures)


def sld_operator(model: HamiltonianModel, theta: float, t: float, psi0) -> np.ndarray:
    """Symmetric logarithmic derivative 2 d(rho)/dtheta of the pure output state.

    Exact: d|phi> = -i f + (i beta) |phi> with f = (h - <h>) phi and a real
    beta that drops out of d(rho), so L = 2i(|phi><f| - |f><phi|); then
    Tr(rho L^2) = 4||f||^2 = F.
    """
    res = evolve(model, theta, t, psi0)
    phi, f = res.phi_out, qfi_record(model, theta, t, res).f
    return 2j * (np.outer(phi, f.conj()) - np.outer(f, phi.conj()))
