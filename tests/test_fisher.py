import math

import numpy as np
import pytest

from nhmetro import linalg, pt_model, kappa_model, ep_demo_model, custom_model
from nhmetro.dynamics import evolve
from nhmetro.errors import (ImaginaryResidue, NumericsError, NotNormalized,
                            UnsupportedFamily, UnsupportedProbe, ZeroScalar)
from nhmetro.fisher import (gauge_invariance_check, generator_fd, generator_quadrature,
                            qfi_closed_form, qfi_generator, qfi_record,
                            qfi_state_derivative, scaled_info)
from nhmetro.models import d_hamiltonian

from conftest import SQRT_F_ALPHA, SQRT_F_KAPPA, SQRT_F_S


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


class TestGeneratorFd:
    def test_commuting_hamiltonian(self):
        m = custom_model(lambda w: (w / 2) * linalg.SIGMA_Z, lambda w: linalg.SIGMA_Z / 2)
        t = 1.7
        assert np.linalg.norm(generator_fd(m, 1.0, t) - (t / 2) * linalg.SIGMA_Z) < 1e-8

    def test_agrees_with_quadrature(self):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 8
        fd = generator_fd(m, 1.0, t)
        quad = generator_quadrature(m, 1.0, t)
        assert np.linalg.norm(fd - quad) < 1e-7

    def test_kappa_closed_form_entrywise(self):
        h = generator_fd(kappa_model(2.0), 2.0, math.pi / 6)
        assert np.abs(h - h_kappa_closed_form(2.0, math.pi / 6)).max() < 1e-7


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
            ed = linalg.eig_decompose(h)
            assert not ed.defective
            v = ed.right_eigenvectors / np.linalg.norm(ed.right_eigenvectors, axis=0)
            phi = evolve(m, th, t, ket0).phi_out
            perp = np.array([-np.conj(phi[1]), np.conj(phi[0])])
            a, _ = np.linalg.solve(v, phi)
            c, d = np.linalg.solve(v, perp)
            overlap = np.vdot(v[:, 1], v[:, 0])
            lhs = qfi_generator(h, phi) / 4
            rhs = abs(a) ** 2 * abs(ed.eigenvalues[0] - ed.eigenvalues[1]) ** 2 \
                * abs(np.conj(c) + np.conj(d) * overlap) ** 2
            assert abs(lhs - rhs) < 1e-8 * max(1.0, lhs)


class TestQfiStateDerivative:
    def test_zero_at_t0(self, ket0):
        assert abs(qfi_state_derivative(pt_model(1.0, math.pi / 4), 1.0, 0.0, ket0)) < 1e-10

    def test_golden_point(self, ket0):
        f = qfi_state_derivative(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8, ket0)
        assert abs(math.sqrt(f) - 0.4682) < 1e-3

    def test_hermitian_ramsey(self):
        m = custom_model(lambda w: (w / 2) * linalg.SIGMA_Z, lambda w: linalg.SIGMA_Z / 2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        for t in [0.5, 1.0, 2.0]:
            assert abs(qfi_state_derivative(m, 1.0, t, plus) - t * t) < 1e-8


class TestQfiClosedForm:
    def test_table_sqrt_f_s(self):
        m = pt_model(1.0, math.pi / 4, "s")
        for k, expected in enumerate(SQRT_F_S, start=1):
            assert abs(math.sqrt(qfi_closed_form(m, 1.0, k * math.pi / 8)) - expected) < 1e-3

    def test_table_sqrt_f_alpha(self):
        m = pt_model(1.0, math.pi / 4, "alpha")
        for k, expected in enumerate(SQRT_F_ALPHA, start=2):
            assert abs(math.sqrt(qfi_closed_form(m, math.pi / 4, k * math.pi / 8)) - expected) < 1e-3

    def test_table_sqrt_f_kappa(self):
        m = kappa_model(2.0)
        for k, expected in enumerate(SQRT_F_KAPPA, start=1):
            assert abs(math.sqrt(qfi_closed_form(m, 2.0, k * math.pi / 6)) - expected) < 1e-3

    def test_zero_at_t0(self):
        assert abs(qfi_closed_form(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, 0.0)) < 1e-12

    def test_unsupported(self, ket0):
        with pytest.raises(UnsupportedFamily):
            qfi_closed_form(ep_demo_model(0.3), 0.3, 1.0)
        with pytest.raises(UnsupportedProbe):
            qfi_closed_form(pt_model(1.0, math.pi / 4), 1.0, 1.0,
                            psi0=np.array([0.0, 1.0]))


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
                values = [qfi_generator(generator_quadrature(m, th, t), phi),
                          qfi_generator(generator_fd(m, th, t), phi),
                          qfi_state_derivative(m, th, t, ket0)]
                if m.family in ("pt", "kappa"):
                    values.append(qfi_closed_form(m, th, t))
                scale = max(abs(v) for v in values)
                if scale > 0:
                    assert (max(values) - min(values)) / scale < 1e-5


class TestRecordAndScaledInfo:
    def test_record_invariants(self, ket0):
        rec = qfi_record(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8, ket0)
        assert rec.F >= -1e-10
        assert abs(rec.I - rec.K * rec.F) < 1e-10 * max(1.0, rec.I)
        assert scaled_info(rec) == rec.I
        assert rec.gap >= 0

    def test_zero_information_at_t0(self, ket0):
        rec = qfi_record(pt_model(1.0, math.pi / 4, "s"), 1.0, 0.0, ket0)
        assert abs(rec.I) < 1e-10

    def test_hermitian_scaled_equals_plain(self):
        m = custom_model(lambda w: (w / 2) * linalg.SIGMA_Z, lambda w: linalg.SIGMA_Z / 2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rec = qfi_record(m, 1.0, 1.3, plus)
        assert abs(rec.K - 1.0) < 1e-10
        assert abs(rec.I - rec.F) < 1e-10

    def test_sqrt_i_grows_with_t(self, ket0):
        m = pt_model(1.0, math.pi / 4, "s")
        ts = np.linspace(math.pi, 10 * math.pi, 25)
        roots = [math.sqrt(qfi_record(m, 1.0, float(t), ket0).I) for t in ts]
        slope = np.polyfit(ts, roots, 1)[0]
        assert slope > 0


class TestGaugeInvariance:
    def test_unit_scalar(self, ket0):
        dev = gauge_invariance_check(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0, ket0,
                                     lambda th: 1.0)
        assert dev < 1e-12

    def test_real_constant(self, ket0):
        dev = gauge_invariance_check(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0, ket0,
                                     lambda th: 2.0)
        assert dev < 1e-10

    def test_theta_dependent_phase(self, ket0):
        dev = gauge_invariance_check(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4,
                                     math.pi, ket0, lambda th: np.exp(1j * th))
        assert dev < 1e-6

    def test_zero_scalar(self, ket0):
        with pytest.raises(ZeroScalar):
            gauge_invariance_check(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0, ket0,
                                   lambda th: 0.0)


class TestHeisenbergScaling:
    def test_f_over_t2_bounded(self):
        models = [(pt_model(1.0, math.pi / 4, "s"), 1.0),
                  (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4),
                  (kappa_model(2.0), 2.0)]
        for m, th in models:
            for k in range(3, 8):
                t = (2 ** k) * math.pi
                ratio = qfi_closed_form(m, th, t) / (t * t)
                assert 0.2 < ratio < 2.0
