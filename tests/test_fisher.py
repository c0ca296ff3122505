import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import fisher, linalg, pt_model, kappa_model, ep_demo_model, affine_model
from nhmetro.dynamics import evolve
from nhmetro.errors import (ImaginaryResidue, NumericsError, NotNormalized, Unconverged,
                            UnsupportedFamily, UnsupportedProbe)
from nhmetro.fisher import (generator_closed_form, generator_quadrature, qfi_closed_form,
                            qfi_record, qfi_state_derivative)
from nhmetro.models import d_hamiltonian, hamiltonian

from conftest import (SQRT_F_ALPHA, SQRT_F_KAPPA, SQRT_F_S, gauge_deviation,
                      generator_from_output, real_spectrum_hamiltonians)
from reference import (closed_form_qfi_at, eigen_gap_cmath, generator_quadrature_stacked,
                       qfi_generator)


def h_alpha_closed_form(s, alpha, t):
    """Entrywise closed form of the generator for the alpha parameter.

    Derived symbolically from the closed-form evolution operator; its
    eigenvalues are +-(sec a / (2 sqrt 2)) sqrt(4 cos(2st cos a) - 4
    + s^2 t^2 (1 - cos 4a)).
    """
    sec = 1.0 / math.cos(alpha)
    x = 2 * s * t * math.cos(alpha)
    d11 = sec * math.sin(x) - 2 * s * t * math.sin(alpha) ** 2
    o12 = sec * math.cos(alpha - x) - 2 * s * t * math.sin(alpha) - 1
    o21 = 1 - sec * math.cos(alpha + x) - 2 * s * t * math.sin(alpha)
    return (sec / 2) * np.array([[1j * d11, o12], [o21, -1j * d11]])


def h_kappa_closed_form(kappa, t):
    rk = math.sqrt(kappa)
    pref = 1 / (4 * kappa * rk)
    return pref * np.array([
        [2j * rk * math.sin(t * rk) ** 2, 2 * t * kappa * rk + kappa * math.sin(2 * t * rk)],
        [2 * t * rk - math.sin(2 * t * rk), -2j * rk * math.sin(t * rk) ** 2]])


class TestGeneratorQuadrature:
    def test_zero_at_t0(self):
        h = generator_quadrature(pt_model(1.0, math.pi / 4), 1.0, 0.0)
        assert np.allclose(h, np.zeros((2, 2)))

    def test_small_t_expansion(self):
        # h = t dH + O(t^2); the residual must shrink quadratically
        m = pt_model(1.0, math.pi / 4, "alpha")
        dH = d_hamiltonian(m, math.pi / 4)
        res = {}
        for t in (1e-3, 1e-4):
            h = generator_quadrature(m, math.pi / 4, t)
            res[t] = np.linalg.norm(h - t * dH)
        assert res[1e-3] / res[1e-4] > 50  # ~100 for a clean O(t^2) term

    def test_alpha_closed_form_entrywise(self):
        m = pt_model(1.0, math.pi / 4, "alpha")
        h = generator_quadrature(m, math.pi / 4, math.pi)
        assert np.abs(h - h_alpha_closed_form(1.0, math.pi / 4, math.pi)).max() < 1e-8

    def test_alpha_closed_form_random_points(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.uniform(0.3, 2.0)
            alpha = rng.uniform(0.1, 1.4)
            t = rng.uniform(0.05, 8.0)
            h = generator_quadrature(pt_model(s, alpha, "alpha"), alpha, t)
            assert np.abs(h - h_alpha_closed_form(s, alpha, t)).max() < 1e-8

    def test_relative_convergence_test(self, monkeypatch):
        # |h| = 3.4e4 next to the EP: successive orders agree to ~1e-14
        # relative from 64 nodes on, which an absolute 1e-10 test never sees
        calls = []
        real = linalg.mat_exp
        monkeypatch.setattr(linalg, "mat_exp", lambda a: calls.append(1) or real(a))
        m = ep_demo_model(0.7845)
        h = generator_quadrature(m, 0.7845, 40.0)
        assert len(calls) == 2 * (64 + 128)
        assert np.linalg.norm(h) > 3e4
        assert np.linalg.norm(h - generator_closed_form(m, 0.7845, 40.0)) \
            <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("m, th, t, nodes", [
        (pt_model(1.0, math.pi / 4, "s"), 1.0, 1.3, 64 + 128),
        (ep_demo_model(0.6), 0.6, 0.0, 0),
        (ep_demo_model(0.7845), 0.7845, 40.0, 64 + 128),
        (kappa_model(400.0), 400.0, 5.0, 64 + 128 + 256),
    ], ids=["pt", "t0", "near_ep", "kappa_256_nodes"])
    def test_stacked_reference_is_bit_identical(self, monkeypatch, m, th, t, nodes):
        # the route-agreement tests run the stacked copy in tests/reference.py
        calls = []
        real = linalg.mat_exp
        monkeypatch.setattr(linalg, "mat_exp", lambda a: calls.append(1) or real(a))
        h = generator_quadrature(m, th, t)
        assert len(calls) == 2 * nodes
        assert generator_quadrature_stacked(m, th, t).tobytes() == h.tobytes()

    def test_cap_raises_unconverged(self, monkeypatch):
        # omega t = 2000 rad: 64 and 128 Gauss-Legendre nodes cannot resolve it
        monkeypatch.setattr(fisher, "MAX_QUAD_ORDER", 128)
        with pytest.raises(Unconverged, match="not converged at 128 nodes"):
            generator_quadrature(kappa_model(400.0), 400.0, 100.0)
        assert issubclass(Unconverged, NumericsError)


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def generator_points():
    """Seeded (model, theta, t) points over every family and regime."""
    rng = np.random.default_rng(606)
    points = []
    for t in (0.0, 1e-6):
        points.append((pt_model(1.0, math.pi / 4, "s"), 1.0, t))
    for _ in range(4):
        s, alpha = rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.4)
        kappa, a_ep = rng.uniform(0.2, 4.0), rng.uniform(0.05, 0.75)
        t = rng.uniform(0.05, 20.0)
        points += [(pt_model(s, alpha, "s"), s, t), (pt_model(s, alpha, "alpha"), alpha, t),
                   (kappa_model(kappa), kappa, t), (ep_demo_model(a_ep), a_ep, t)]
    for _ in range(4):  # next to the EP at pi/4, late times
        alpha = rng.uniform(0.784, 0.785)
        points.append((ep_demo_model(alpha), alpha, rng.uniform(30.0, 50.0)))
    # affine: nilpotent B (omega = 0, the EP itself) and broken regime (imaginary omega).
    # H = N + 0.3 I at theta0 = 1 with a dH that is not N: H0 = H - dH keeps
    # both, and H0 + 1.0 dH is H bit for bit, so omega is exactly 0
    dH = np.array([[0.2, 1j], [0.5, -0.2]])
    nilpotent = affine_model(NILPOTENT + 0.3 * np.eye(2) - dH, dH, 1.0)
    broken = affine_model([[0.0, 1.0], [1.0, 0.0]], [[1j, 0.0], [0.0, -1j]], 1.5)
    for t in (1e-6, 1.0, 7.0):
        points += [(nilpotent, 1.0, t), (broken, 1.5, t)]
    return points


class TestGeneratorClosedForm:
    def test_agrees_with_quadrature(self):
        for m, th, t in generator_points():
            quad = generator_quadrature(m, th, t)
            h = generator_closed_form(m, th, t)
            assert np.linalg.norm(h - quad) <= 1e-12 * np.linalg.norm(quad), (m.family, th, t)

    def test_nilpotent_is_a_polynomial_in_t(self):
        # B^2 = 0: h = t dH + i (t^2/2) [dH, N] + (t^3/3) N dH N exactly
        dH, N = np.array([[0.2, 1j], [0.5, -0.2]]), NILPOTENT
        m = affine_model(N - 0.7j * np.eye(2) - dH, dH, 1.0)  # H = N - 0.7i I at theta = 1
        for t in (0.0, 0.1, 3.0, 40.0):
            exact = t * dH + 0.5j * t * t * (dH @ N - N @ dH) + t ** 3 / 3 * (N @ dH @ N)
            h = generator_closed_form(m, 1.0, t)
            assert np.linalg.norm(h - exact) <= 4e-16 * max(np.linalg.norm(exact), 1e-300)

    def test_series_matches_mpmath(self):
        # 40-digit reference on both sides of the series threshold, real and complex x
        threshold = fisher.SERIES_THRESHOLD
        xs = [1e-8, 0.3, 1.0, threshold * (1 - 1e-9), threshold, threshold * (1 + 1e-9),
              3.0, 10.0, 0.5j, 1.9j, 2.1j, 1.2 + 0.9j, 1.5 + 1.5j, 40.0 + 0.1j]
        assert fisher._x_minus_sin_over_x3(0.0) == 1 / 6
        with mpmath.workdps(40):
            for x in xs:
                mx = mpmath.mpc(x)
                exact = complex((mx - mpmath.sin(mx)) / mx ** 3)
                got = fisher._x_minus_sin_over_x3(x)
                assert abs(got - exact) <= 1e-15 * abs(exact), x


class TestOutputDerivative:
    def test_commuting_hamiltonian(self):
        m = affine_model(np.zeros((2, 2)), linalg.SIGMA_Z / 2, 1.0)
        t = 1.7
        assert np.linalg.norm(generator_from_output(m, 1.0, t) - (t / 2) * linalg.SIGMA_Z) < 1e-14

    def test_agrees_with_quadrature(self):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 8
        h = generator_from_output(m, 1.0, t)
        quad = generator_quadrature(m, 1.0, t)
        assert np.linalg.norm(h - quad) < 1e-13

    def test_kappa_closed_form_entrywise(self):
        h = generator_from_output(kappa_model(2.0), 2.0, math.pi / 6)
        assert np.abs(h - h_kappa_closed_form(2.0, math.pi / 6)).max() < 1e-13


class TestQfiGenerator:
    def test_golden_single_points(self, ket0):
        cases = [(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8, 0.4682),
                 (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, 2 * math.pi / 8, 0.4445),
                 (kappa_model(2.0), 2.0, math.pi / 6, 0.1110)]
        for m, th, t, expected in cases:
            h = generator_quadrature(m, th, t)
            phi = evolve(m, th, t, ket0).phi_out
            assert abs(math.sqrt(qfi_generator(h, phi)) - expected) < 1e-3

    def test_requires_normalized_state(self):
        with pytest.raises(NotNormalized):
            qfi_generator(linalg.SIGMA_X, np.array([1.0, 1.0]))

    def test_imaginary_residue_is_a_typed_error(self):
        # Both terms of 4(<h^dag h> - |<h>|^2) are real for any finite h, so
        # the residue shows once the non-Hermitian h is large enough for the
        # products to overflow (inf - inf leaves a nan imaginary part).
        # A typed error, not an assert, so `python -O` keeps the check.
        phi = np.array([1.0, 1.0j]) / math.sqrt(2)
        h = np.array([[1e160, 3e160j], [-2e160, 1e160j]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ImaginaryResidue, match="imaginary residue"):
            qfi_generator(h, phi)
        # carried as a nan F with its typed error, not raised, by the library
        with np.errstate(over="ignore", invalid="ignore"):
            F, failures = fisher.qfi_centered(fisher.centered_state(h, phi))
        assert np.isnan(F) and isinstance(failures[0], ImaginaryResidue)
        assert issubclass(ImaginaryResidue, NumericsError)
        assert qfi_generator(h * 1e-150, phi) > 0

    def test_hermitian_reduction(self):
        # for a Hermitian generator Eq-(1) style QFI is the plain 4 Var(h)
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (a + linalg.dagger(a)) / 2
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = v / np.linalg.norm(v)
            var = np.vdot(v, h @ h @ v).real - np.vdot(v, h @ v).real ** 2
            assert abs(qfi_generator(h, v) - 4 * var) < 1e-10

    def test_two_level_variance_identity(self, ket0):
        # F/4 = |a|^2 |l1 - l2|^2 |c* + d* <l2|l1>|^2 for phi = a|l1> + b|l2>,
        # phi_perp = c|l1> + d|l2>
        cases = [(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, 1.3),
                 (kappa_model(2.0), 2.0, 2.1),
                 (ep_demo_model(0.5), 0.5, 1.7)]
        for m, th, t in cases:
            h = generator_quadrature(m, th, t)
            lam, v = np.linalg.eig(h)
            assert np.linalg.cond(v) < 1e8
            phi = evolve(m, th, t, ket0).phi_out
            perp = np.array([-np.conj(phi[1]), np.conj(phi[0])])
            a, _ = np.linalg.solve(v, phi)
            c, d = np.linalg.solve(v, perp)
            overlap = np.vdot(v[:, 1], v[:, 0])
            lhs = qfi_generator(h, phi) / 4
            rhs = abs(a) ** 2 * abs(lam[0] - lam[1]) ** 2 \
                * abs(np.conj(c) + np.conj(d) * overlap) ** 2
            assert abs(lhs - rhs) < 1e-8 * max(1.0, lhs)


class TestQfiStateDerivative:
    def test_zero_at_t0(self, ket0):
        assert abs(qfi_state_derivative(pt_model(1.0, math.pi / 4), 1.0, 0.0, ket0)) < 1e-10

    def test_golden_point(self, ket0):
        f = qfi_state_derivative(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8, ket0)
        assert abs(math.sqrt(f) - 0.4682) < 1e-3

    def test_hermitian_ramsey(self):
        m = affine_model(np.zeros((2, 2)), linalg.SIGMA_Z / 2, 1.0)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        for t in [0.5, 1.0, 2.0]:
            assert abs(qfi_state_derivative(m, 1.0, t, plus) - t * t) < 1e-8


class TestQfiClosedForm:
    def test_table_sqrt_f_s(self, ket0):
        m = pt_model(1.0, math.pi / 4, "s")
        for k, expected in enumerate(SQRT_F_S, start=1):
            assert abs(math.sqrt(qfi_closed_form(m, 1.0, k * math.pi / 8, ket0)) - expected) < 1e-3

    def test_table_sqrt_f_alpha(self, ket0):
        m = pt_model(1.0, math.pi / 4, "alpha")
        for k, expected in enumerate(SQRT_F_ALPHA, start=2):
            F = qfi_closed_form(m, math.pi / 4, k * math.pi / 8, ket0)
            assert abs(math.sqrt(F) - expected) < 1e-3

    def test_table_sqrt_f_kappa(self, ket0):
        m = kappa_model(2.0)
        for k, expected in enumerate(SQRT_F_KAPPA, start=1):
            assert abs(math.sqrt(qfi_closed_form(m, 2.0, k * math.pi / 6, ket0)) - expected) < 1e-3

    def test_zero_at_t0(self, ket0):
        m = pt_model(1.0, math.pi / 4, "alpha")
        assert abs(qfi_closed_form(m, math.pi / 4, 0.0, ket0)) < 1e-12

    def test_unsupported(self, ket0):
        with pytest.raises(UnsupportedFamily):
            qfi_closed_form(ep_demo_model(0.3), 0.3, 1.0, ket0)
        with pytest.raises(UnsupportedProbe):
            qfi_closed_form(pt_model(1.0, math.pi / 4), 1.0, 1.0, np.array([0.0, 1.0]))
        # the probe is checked before the family, for every t at once
        with pytest.raises(UnsupportedProbe):
            qfi_closed_form(ep_demo_model(0.3), 0.3, np.array([]), np.array([0.0, 1.0]))

    def test_time_stack_equals_single_calls(self, ket0):
        for m, th in [(pt_model(1.0, math.pi / 4, "s"), 1.0),
                      (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4),
                      (kappa_model(2.0), 2.0)]:
            ts = np.linspace(0.0, 30.0, 17)
            stacked = qfi_closed_form(m, th, ts, ket0)
            assert stacked.shape == ts.shape
            singles = [qfi_closed_form(m, th, t, ket0) for t in ts.tolist()]
            assert stacked.tobytes() == np.array(singles).tobytes()
            assert qfi_closed_form(m, th, ts[:0], ket0).shape == (0,)


class TestRoutes:
    def test_route_agreement(self, ket0):
        rng = np.random.default_rng(0)
        cases = [(pt_model(1.0, math.pi / 4, "s"), 0.5, 1.5),
                 (pt_model(1.0, math.pi / 4, "alpha"), 0.3, 1.2),
                 (kappa_model(2.0), 1.3, 3.0),
                 (ep_demo_model(0.5), 0.1, 0.7)]
        for m, lo, hi in cases:
            for _ in range(30):
                th = rng.uniform(lo, hi)
                t = rng.uniform(0.05, 4.0)
                phi = evolve(m, th, t, ket0).phi_out
                values = [qfi_generator(generator_closed_form(m, th, t), phi),
                          qfi_generator(generator_quadrature_stacked(m, th, t), phi),
                          qfi_generator(generator_from_output(m, th, t), phi),
                          qfi_state_derivative(m, th, t, ket0)]
                if m.family in ("pt", "kappa"):
                    values.append(qfi_closed_form(m, th, t, ket0))
                scale = max(abs(v) for v in values)
                if scale > 0:
                    assert (max(values) - min(values)) / scale < 1e-5


def record(model, theta, t, psi0):
    return qfi_record(model, theta, t, evolve(model, theta, t, psi0))


class TestRecordAndScaledInfo:
    def test_record_invariants(self, ket0):
        rec = record(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8, ket0)
        assert rec.F >= -1e-10
        assert abs(rec.I - rec.K * rec.F) < 1e-10 * max(1.0, rec.I)
        assert rec.gap >= 0
        assert rec.F == 4 * np.vdot(rec.f, rec.f).real

    def test_zero_information_at_t0(self, ket0):
        rec = record(pt_model(1.0, math.pi / 4, "s"), 1.0, 0.0, ket0)
        assert abs(rec.I) < 1e-10

    def test_hermitian_scaled_equals_plain(self):
        m = affine_model(np.zeros((2, 2)), linalg.SIGMA_Z / 2, 1.0)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rec = record(m, 1.0, 1.3, plus)
        assert abs(rec.K - 1.0) < 1e-10
        assert abs(rec.I - rec.F) < 1e-10

    def test_sqrt_i_grows_with_t(self, ket0):
        m = pt_model(1.0, math.pi / 4, "s")
        ts = np.linspace(math.pi, 10 * math.pi, 25)
        roots = [math.sqrt(record(m, 1.0, float(t), ket0).I) for t in ts]
        slope = np.polyfit(ts, roots, 1)[0]
        assert slope > 0


class TestEigenGap:
    def test_sigma_z(self):
        assert fisher.eigen_gap(linalg.SIGMA_Z) == 2.0

    def test_pt_hamiltonian(self):
        H = hamiltonian(pt_model(1.0, math.pi / 4), 1.0)
        assert abs(fisher.eigen_gap(H) - 2 * math.cos(math.pi / 4)) < 1e-12

    def test_kappa_hamiltonian(self):
        H = hamiltonian(kappa_model(2.0), 2.0)
        assert abs(fisher.eigen_gap(H) - 2 * math.sqrt(2)) < 1e-12

    def test_matches_eigvals(self):
        # measured: 7.1e-16 ||a|| at most from eigvals; NumPy's complex products
        # round differently from CPython's in about 9 of 100 random a, which
        # moves the gap by 5.1e-16 ||a|| at most over 100,000 a
        rng = np.random.default_rng(17)
        stack = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        for a, gap in zip(stack, fisher.eigen_gap(stack)):
            lam = np.linalg.eigvals(a)
            assert abs(gap - abs(lam[0] - lam[1])) <= 1e-13 * np.linalg.norm(a)
            assert abs(gap - eigen_gap_cmath(a)) <= 1e-15 * np.linalg.norm(a)

    def test_jordan_block_is_exactly_zero(self):
        # A similar of the 2x2 Jordan block: eigvals splits its double
        # eigenvalue by about 1e-8, the closed form gives 0.
        z = 0.3 + 0.1j
        h = np.array([[z, 1.0], [-(z * z), -z]])
        assert np.linalg.norm(h @ h) < 1e-16
        assert abs(np.subtract(*np.linalg.eigvals(h))) > 1e-9
        assert fisher.eigen_gap(h) == 0.0


@settings(max_examples=200, deadline=None)
@given(H=real_spectrum_hamiltonians())
def test_gap_matches_eigvals(H):
    # measured: 9.7e-15 ||H|| at most over 5,000 examples
    lam = np.linalg.eigvals(H)
    assert abs(fisher.eigen_gap(H) - abs(lam[0] - lam[1])) <= 1e-13 * np.linalg.norm(H)


# complex entries on a 1e-6 grid, so no product underflows
GRID_COMPLEX = st.builds(complex, *[st.floats(-10.0, 10.0).map(lambda x: round(x, 6))] * 2)
MATRICES = st.lists(GRID_COMPLEX, min_size=4, max_size=4).map(
    lambda v: np.array(v).reshape(2, 2))


@settings(max_examples=200, deadline=None)
@given(stack=st.lists(MATRICES, min_size=1, max_size=8))
def test_gap_stack_matches_cmath(stack):
    # Next to a defective h the radicand cancels, and its square root turns
    # one rounding of a product into up to 2e-8 ||h|| of gap; gap^2 = 4|radicand|
    # does not amplify it (measured: 1.2e-15 ||h||^2 at most over 100,000 h).
    h = np.array(stack)
    for hk, gap in zip(h, fisher.eigen_gap(h)):
        reference = eigen_gap_cmath(hk)
        assert abs(gap * gap - reference * reference) <= 4e-15 * np.linalg.norm(hk) ** 2


@settings(max_examples=100, deadline=None)
@given(a=GRID_COMPLEX, b=GRID_COMPLEX, lower=st.booleans(), other=MATRICES)
def test_gap_is_exactly_zero_at_a_defective_h(a, b, lower, other):
    h = np.array([[a, 0], [b, a]] if lower else [[a, b], [0, a]])
    assert fisher.eigen_gap(h) == 0.0
    assert fisher.eigen_gap(np.array([other, h]))[1] == 0.0


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["pt-s", "pt-alpha", "kappa"]), s=st.floats(0.1, 3.0),
       alpha=st.floats(0.05, math.pi / 2 - 0.05),
       kappa=st.floats(0.05, 10.0).filter(lambda k: abs(k - 1.0) > 1e-3),
       times=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=16))
def test_closed_form_stack_matches_per_t_math(family, s, alpha, kappa, times):
    # NumPy's array square and libm's pow round ** 2 differently; measured:
    # 48 of 30,000 points moved, by 2.1 ulp at most
    model, theta = {"pt-s": (pt_model(s, alpha, "s"), s),
                    "pt-alpha": (pt_model(s, alpha, "alpha"), alpha),
                    "kappa": (kappa_model(kappa), kappa)}[family]
    F = qfi_closed_form(model, theta, np.array(times), linalg.basis_state(0))
    reference = np.array([closed_form_qfi_at(model, theta, t) for t in times])
    assert np.all(abs(F - reference) <= 8 * np.finfo(float).eps * abs(reference))


class TestGaugeInvariance:
    def test_unit_scalar(self, ket0):
        dev = gauge_deviation(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0, ket0,
                              lambda th: 1.0, lambda th: 0.0)
        assert dev < 1e-12

    def test_real_constant(self, ket0):
        dev = gauge_deviation(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0, ket0,
                              lambda th: 2.0, lambda th: 0.0)
        assert dev < 1e-12

    def test_theta_dependent_phase(self, ket0):
        dev = gauge_deviation(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4,
                              math.pi, ket0, lambda th: np.exp(1j * th),
                              lambda th: 1j * np.exp(1j * th))
        assert dev < 1e-12


class TestHeisenbergScaling:
    def test_f_over_t2_bounded(self, ket0):
        models = [(pt_model(1.0, math.pi / 4, "s"), 1.0),
                  (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4),
                  (kappa_model(2.0), 2.0)]
        for m, th in models:
            for k in range(3, 8):
                t = (2 ** k) * math.pi
                ratio = qfi_closed_form(m, th, t, ket0) / (t * t)
                assert 0.2 < ratio < 2.0
