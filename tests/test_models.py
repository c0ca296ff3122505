import math

import numpy as np
import pytest

from nhmetro import linalg, pt_model, kappa_model, ep_demo_model, custom_model
from nhmetro.errors import OutOfRange, UnsupportedFamily
from nhmetro.fisher import generator_quadrature
from nhmetro.models import d_hamiltonian, hamiltonian

from reference import closed_form_U, h_eigen_oracle

R2 = math.sqrt(2)


class TestHamiltonian:
    def test_pt_matrix(self):
        H = hamiltonian(pt_model(1.0, math.pi / 4), 1.0)
        assert np.allclose(H, [[1j / R2, 1.0], [1.0, -1j / R2]], atol=1e-12)

    def test_kappa_matrix(self):
        H = hamiltonian(kappa_model(2.0), 2.0)
        assert np.allclose(H, [[0, 2], [1, 0]])

    def test_pt_zero_coupling(self):
        H = hamiltonian(pt_model(1.0, 0.3, "s"), 0.0)
        assert np.allclose(H, np.zeros((2, 2)))

    def test_pt_real_spectrum(self):
        for alpha in [0.2, 0.8, 1.4]:
            w = np.linalg.eigvals(hamiltonian(pt_model(1.3, alpha), 1.3))
            assert np.max(np.abs(w.imag)) < 1e-12
            assert np.allclose(sorted(w.real), [-1.3 * math.cos(alpha), 1.3 * math.cos(alpha)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            hamiltonian(pt_model(1.0, math.pi / 2), 1.0)
        with pytest.raises(OutOfRange):
            hamiltonian(kappa_model(2.0), 1.0)
        with pytest.raises(OutOfRange):
            hamiltonian(kappa_model(2.0), -0.5)
        with pytest.raises(OutOfRange):
            hamiltonian(ep_demo_model(0.3), math.pi / 4)

    def test_custom_callables(self):
        m = custom_model(lambda th: th * linalg.SIGMA_Z, lambda th: linalg.SIGMA_Z)
        assert np.allclose(hamiltonian(m, 0.7), 0.7 * linalg.SIGMA_Z)
        assert np.allclose(d_hamiltonian(m, 0.7), linalg.SIGMA_Z)


class TestDHamiltonian:
    def test_pt_multiplicative(self):
        m = pt_model(1.0, math.pi / 4, "s")
        assert np.allclose(d_hamiltonian(m, 1.0), hamiltonian(m, 1.0))

    def test_kappa_linear(self):
        assert np.allclose(d_hamiltonian(kappa_model(2.0), 2.0), [[0, 1], [0, 0]])

    def test_finite_difference(self):
        cases = [(pt_model(1.0, math.pi / 4, "s"), 1.0),
                 (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4),
                 (kappa_model(2.0), 2.0),
                 (ep_demo_model(0.5), 0.5)]
        eps = 1e-5
        for m, th in cases:
            fd = (hamiltonian(m, th + eps) - hamiltonian(m, th - eps)) / (2 * eps)
            assert np.linalg.norm(d_hamiltonian(m, th) - fd) < 1e-8


class TestClosedFormU:
    def test_identity_at_t0(self):
        assert np.allclose(closed_form_U(pt_model(1.0, math.pi / 4), 1.0, 0.0), np.eye(2), atol=1e-14)
        assert np.allclose(closed_form_U(kappa_model(2.0), 2.0, 0.0), np.eye(2), atol=1e-14)

    def test_pt_first_column(self):
        U = closed_form_U(pt_model(1.0, math.pi / 4), 1.0, math.pi / 8)
        assert abs(U[0, 0] - 1.2359) < 1e-3
        assert abs(U[1, 0] - (-0.3878j)) < 1e-3

    def test_agrees_with_mat_exp(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.uniform(0.0, 6.0)
            s = rng.uniform(0.3, 2.0)
            alpha = rng.uniform(0.1, 1.4)
            m = pt_model(s, alpha, "s")
            direct = linalg.mat_exp(-1j * t * hamiltonian(m, s))
            assert np.linalg.norm(closed_form_U(m, s, t) - direct) < 1e-9
        for _ in range(50):
            t = rng.uniform(0.0, 6.0)
            kappa = rng.uniform(1.2, 4.0)
            m = kappa_model(kappa)
            direct = linalg.mat_exp(-1j * t * hamiltonian(m, kappa))
            assert np.linalg.norm(closed_form_U(m, kappa, t) - direct) < 1e-9

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            closed_form_U(ep_demo_model(0.3), 0.3, 1.0)


class TestHEigenOracle:
    def test_zero_at_t0(self):
        lp, lm = h_eigen_oracle(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, 0.0)
        assert abs(lp) < 1e-14 and abs(lm) < 1e-14

    def test_kappa_value(self):
        t = math.pi / 6
        lp, lm = h_eigen_oracle(kappa_model(2.0), 2.0, t)
        expected = math.sqrt((-1 + 4 * t * t + math.cos(2 * t * R2)) / 32)
        assert abs(abs(lp) - expected) < 1e-12
        assert abs(lp + lm) < 1e-12

    def test_agrees_with_quadrature(self):
        cases = [(pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, math.pi / 6),
                 (pt_model(1.0, math.pi / 4, "alpha"), math.pi / 4, 3.0),
                 (kappa_model(2.0), 2.0, math.pi / 6),
                 (kappa_model(2.0), 2.0, 4.0),
                 (ep_demo_model(0.6), 0.6, 1.3),
                 (ep_demo_model(0.3), 0.3, 2.0)]
        for m, th, t in cases:
            lp, lm = h_eigen_oracle(m, th, t)
            lam = np.linalg.eigvals(generator_quadrature(m, th, t))
            gap = abs(lam[0] - lam[1])
            assert abs(gap - abs(lp - lm)) < 1e-7

    def test_gap_grows_linearly(self):
        # the eigenvalue gap reaches the scale of t at long times
        m = pt_model(1.0, math.pi / 4, "alpha")
        gaps = {}
        for t in (10.0, 100.0):
            lp, lm = h_eigen_oracle(m, math.pi / 4, t)
            gaps[t] = abs(lp - lm)
        assert abs(gaps[100.0] / gaps[10.0] - 10.0) < 0.5

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            h_eigen_oracle(pt_model(1.0, math.pi / 4, "s"), 1.0, 1.0)
