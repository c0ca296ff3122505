import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import linalg, pt_model, kappa_model
from nhmetro.errors import NonFinite, NotHermitian, NotPositive, Singular
from nhmetro.models import closed_form_U, hamiltonian


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(linalg.mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_pauli_rotation(self):
        got = linalg.mat_exp(-1j * (math.pi / 2) * linalg.SIGMA_X)
        assert np.allclose(got, -1j * linalg.SIGMA_X, atol=1e-14)

    def test_nilpotent(self):
        got = linalg.mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(got, [[1, 1], [0, 1]], atol=1e-15)

    def test_against_eigendecomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            w, v = np.linalg.eig(a)
            if np.linalg.cond(v) > 1e6:
                continue
            oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
            got = linalg.mat_exp(a)
            assert np.linalg.norm(got - oracle) < 1e-12 * np.linalg.norm(oracle)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a *= 10.0 / max(np.linalg.norm(a), 1.0)
            prod = linalg.mat_exp(a) @ linalg.mat_exp(-a)
            assert np.linalg.norm(prod - np.eye(2)) < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 70),
           dim=st.sampled_from([2, 4]), scale=st.floats(0.0, 50.0))
    def test_stack_matches_single_calls(self, seed, size, dim, scale):
        # per-matrix norms from 0 to about 2 * dim * scale: mixed squaring counts
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(size, dim, dim)) + 1j * rng.normal(size=(size, dim, dim))
        a *= scale * rng.uniform(size=(size, 1, 1))
        stacked = linalg.mat_exp(a)
        assert stacked.shape == a.shape
        for got, m in zip(stacked, a):
            assert np.array_equal(got, linalg.mat_exp(m))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_stack_overflow_raises(self):
        a = np.stack([np.eye(2), 800.0 * np.eye(2)]).astype(complex)
        with pytest.raises(NonFinite, match="squaring stage"):
            linalg.mat_exp(a)
        assert linalg.mat_exp(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_unitary_for_hermitian_generator(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            herm = (a + linalg.dagger(a)) / 2
            u = linalg.mat_exp(-1j * herm)
            assert np.linalg.norm(u @ linalg.dagger(u) - np.eye(2)) < 1e-10


class TestEigDecompose:
    def test_sigma_z(self):
        ed = linalg.eig_decompose(linalg.SIGMA_Z)
        assert np.allclose(ed.eigenvalues, [-1, 1])
        assert not ed.defective

    def test_pt_hamiltonian(self):
        H = hamiltonian(pt_model(1.0, math.pi / 4), 1.0)
        ed = linalg.eig_decompose(H)
        c = math.cos(math.pi / 4)
        assert np.allclose(ed.eigenvalues, [-c, c], atol=1e-12)

    def test_kappa_hamiltonian(self):
        H = hamiltonian(kappa_model(2.0), 2.0)
        ed = linalg.eig_decompose(H)
        assert np.allclose(ed.eigenvalues, [-math.sqrt(2), math.sqrt(2)], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ed = linalg.eig_decompose(a)
            if ed.defective:
                continue
            v = ed.right_eigenvectors
            recon = v @ np.diag(ed.eigenvalues) @ np.linalg.inv(v)
            assert np.linalg.norm(recon - a) < 1e-9 * np.linalg.norm(a)

    def test_eigenpair_residual(self):
        a = hamiltonian(pt_model(1.2, 0.9), 1.2)
        ed = linalg.eig_decompose(a)
        for lam, v in zip(ed.eigenvalues, ed.right_eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * v) < 1e-10 * np.linalg.norm(a)

    def test_defective_flag(self):
        ed = linalg.eig_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert ed.defective


class TestHermFunct:
    def test_sqrt_identity(self):
        assert np.allclose(linalg.herm_funct(np.eye(2), "sqrt"), np.eye(2))

    def test_sqrt_diagonal(self):
        got = linalg.herm_funct(np.diag([4.0, 9.0]), "sqrt")
        assert np.allclose(got, np.diag([2.0, 3.0]))

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            pos = a @ linalg.dagger(a) + 0.1 * np.eye(2)
            root = linalg.herm_funct(pos, "sqrt")
            assert np.linalg.norm(root @ root - pos) < 1e-9 * np.linalg.norm(pos)
            assert linalg.herm_residual(root) < 1e-10

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.herm_funct(np.array([[0.0, 1.0], [0.0, 0.0]]), "sqrt")

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            linalg.herm_funct(np.diag([1.0, -1.0]), "inv_sqrt")


class TestMatInverse:
    def test_identity(self):
        assert np.allclose(linalg.mat_inverse(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(linalg.mat_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_evolution_operator(self):
        m = pt_model(1.0, math.pi / 4)
        U = closed_form_U(m, 1.0, math.pi / 8)
        assert np.linalg.norm(linalg.mat_inverse(U) @ U - np.eye(2)) < 1e-10

    def test_singular(self):
        with pytest.raises(Singular):
            linalg.mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
