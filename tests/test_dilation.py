import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.dilation import build_dilation, evolve_dilated
from nhmetro.dynamics import evolve
from nhmetro.errors import NoPositiveSolution
from nhmetro.models import hamiltonian

from conftest import real_spectrum_hamiltonians


def pt_hamiltonian(alpha, s=1.0):
    return hamiltonian(pt_model(s, alpha, "alpha"), alpha)


def unbroken_points():
    """Seeded unbroken-regime (name, H) points: pt, kappa, ep_demo, and
    ep_demo within 6e-4 of its EP at alpha = pi/4."""
    rng = np.random.default_rng(2002)
    points = []
    for _ in range(12):
        alpha = float(rng.uniform(0.01, math.pi / 2 - 1e-3))
        s = float(rng.uniform(0.1, 3.0))
        points.append((f"pt s={s} alpha={alpha}", hamiltonian(pt_model(s, alpha, "alpha"), alpha)))
        kappa = float(rng.uniform(0.05, 20.0))
        points.append((f"kappa={kappa}", hamiltonian(kappa_model(kappa), kappa)))
        for lo, hi in [(0.01, 0.78), (0.78, 0.785)]:
            alpha = float(rng.uniform(lo, hi))
            points.append((f"ep_demo alpha={alpha}", hamiltonian(ep_demo_model(alpha), alpha)))
    return points


class TestSolveEta:
    """The metric eta of `build_dilation`."""

    def test_hermitian_input(self):
        eta = build_dilation(linalg.SIGMA_Z).eta
        assert np.allclose(eta, np.eye(2) / 2, atol=1e-12)

    def test_pt_metric(self):
        H = pt_hamiltonian(math.pi / 4)
        eta = build_dilation(H).eta
        assert np.linalg.norm(eta @ H - linalg.dagger(H) @ eta) < 1e-12
        assert np.linalg.eigvalsh(eta).min() > 0
        assert abs(np.trace(eta).real - 1.0) < 1e-12

    def test_condition_number_diverges_near_broken_regime(self):
        conds = [np.linalg.cond(build_dilation(pt_hamiltonian(a)).eta)
                 for a in [0.8, 1.2, 1.4, math.pi / 2 - 1e-3]]
        assert all(a < b for a, b in zip(conds, conds[1:]))
        assert conds[-1] > 1e5

    def test_broken_regime_raises(self):
        # complex spectrum: no positive metric exists
        H = np.array([[1j, 0.1], [0.1, -1j]])
        with pytest.raises(NoPositiveSolution):
            build_dilation(H)

    def test_kappa_metric_is_diagonal(self):
        # eigenvectors (+-sqrt(kappa), 1): (V V^dag)^-1 is proportional to diag(1, kappa)
        for kappa in [0.05, 0.5, 2.0, 7.5, 100.0]:
            eta = build_dilation(hamiltonian(kappa_model(kappa), kappa)).eta
            assert np.abs(eta - np.diag([1.0, kappa]) / (1.0 + kappa)).max() <= 1e-14

    def test_defective_raises(self):
        # ep_demo at its EP, alpha = pi/4: one eigenvector, no metric
        H = np.array([[1j, 1.0], [1.0, -1j]]) / math.sqrt(2)
        with pytest.raises(NoPositiveSolution):
            build_dilation(H)

    def test_ep_boundary(self):
        # B = [[0, 1], [delta, 0]]: w^2 = delta, ||B||^2 = 1 + delta^2 = 1 in
        # floating point, so the EP test |w^2| <= 1e-14 ||B||^2 flips at 1e-14.
        for delta in (1e-14, -1e-14):
            with pytest.raises(NoPositiveSolution, match="exceptional point"):
                build_dilation(np.array([[0.0, 1.0], [delta, 0.0]]))
        with pytest.raises(NoPositiveSolution, match="broken regime"):
            build_dilation(np.array([[0.0, 1.0], [-1.01e-14, 0.0]]))
        # eigenvalues +-3.2e-9 i: below the 1e-8 imaginary-part tolerance,
        # so only the sign of w^2 = -1e-17 shows the broken regime
        with pytest.raises(NoPositiveSolution, match="broken regime"):
            build_dilation(np.array([[0.0, 1e-4], [-1e-13, 0.0]]))
        H = np.array([[0.0, 1.0], [1.01e-14, 0.0]], dtype=complex)
        eta = build_dilation(H).eta
        assert np.linalg.eigvalsh(eta).min() > 0
        assert np.linalg.norm(eta @ H - linalg.dagger(H) @ eta) <= 1e-28

    def test_scalar_hamiltonian(self):
        # H = cI (pt at s = 0 is H = 0): eta = I/2, and the dilation leaves
        # the probe alone with success probability 1/2
        psi0 = np.array([0.6, 0.8], dtype=complex)
        for c in (0.0, 2.5):
            H = c * np.eye(2, dtype=complex)
            assert np.array_equal(build_dilation(H).eta, np.eye(2) / 2)
            sys_ = build_dilation(H)
            assert sys_.c == 4.0 and np.array_equal(sys_.zeta, np.eye(2))
            assert np.array_equal(sys_.H_s, H) and not sys_.V.any()
            _, recovered, success = evolve_dilated(sys_, psi0, np.linspace(0.0, 3.0, 4))
            assert np.abs(recovered @ psi0.conj()).min() >= 1 - 1e-15
            assert np.abs(success - 0.5).max() <= 1e-15

    @pytest.mark.parametrize("name,H", unbroken_points())
    def test_unbroken_metric(self, name, H):
        eta = build_dilation(H).eta
        resid = np.linalg.norm(eta @ H - linalg.dagger(H) @ eta)
        assert resid <= 1e-12 * np.linalg.norm(H) * np.linalg.norm(eta)
        assert linalg.herm_residual(eta) == 0.0
        assert np.linalg.eigvalsh(eta).min() > 0
        assert abs(np.trace(eta).real - 1.0) <= 1e-14


class TestBuildDilation:
    def test_invariants(self):
        for alpha in [0.2, 0.55, 0.9, 1.25]:
            H = pt_hamiltonian(alpha)
            sys_ = build_dilation(H)
            nrm = np.linalg.norm(H) * np.linalg.norm(sys_.eta)
            assert np.linalg.norm(sys_.eta @ H - linalg.dagger(H) @ sys_.eta) < 1e-9 * nrm
            assert np.linalg.eigvalsh(sys_.eta).min() > 1e-10
            assert np.linalg.eigvalsh(sys_.zeta).min() > 1e-10
            for mat in (sys_.H_s, sys_.V, sys_.H_tot):
                assert linalg.herm_residual(mat) < 1e-9
            z_half = sys_.z_half
            assert linalg.herm_residual(z_half) == 0.0
            assert np.linalg.eigvalsh(z_half).min() > 0
            zeta_norm = np.linalg.norm(sys_.zeta)
            assert np.linalg.norm(z_half @ z_half - sys_.zeta) <= 1e-12 * zeta_norm
            z_mhalf = np.linalg.inv(z_half)
            assert np.linalg.norm(sys_.H_s - 1j * sys_.V @ z_half - H) < 1e-8
            assert np.linalg.norm(sys_.H_s + 1j * sys_.V @ z_mhalf
                                  - z_half @ H @ z_mhalf) < 1e-8

    def test_zeta_scale_invariance(self):
        eta = build_dilation(pt_hamiltonian(math.pi / 4)).eta

        def zeta_of(e):
            lam = np.linalg.eigvalsh(e)
            return float(np.sum(1.0 / lam)) * e - np.eye(2)

        assert np.abs(zeta_of(eta) - zeta_of(3.7 * eta)).max() < 1e-10

    def test_hermitian_input_is_trivial(self):
        sys_ = build_dilation(linalg.SIGMA_Z)
        assert abs(sys_.c - 4.0) < 1e-12
        assert np.allclose(sys_.zeta, np.eye(2), atol=1e-12)
        assert np.allclose(sys_.V, np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(sys_.H_s, linalg.SIGMA_Z, atol=1e-12)
        assert np.allclose(sys_.H_tot, np.kron(np.eye(2), linalg.SIGMA_Z), atol=1e-12)


class TestEvolveDilated:
    def test_t0_success_probability(self, ket0):
        sys_ = build_dilation(pt_hamiltonian(math.pi / 4))
        _, recovered, success = evolve_dilated(sys_, ket0, 0.0)
        assert np.allclose(recovered, ket0, atol=1e-12)
        expected = 1.0 / (sys_.c * np.vdot(ket0, sys_.eta @ ket0).real)
        assert abs(success - expected) < 1e-12

    def test_recovers_direct_evolution(self, ket0):
        m = pt_model(1.0, math.pi / 4, "alpha")
        sys_ = build_dilation(pt_hamiltonian(math.pi / 4))
        direct = evolve(m, math.pi / 4, math.pi / 8, ket0)
        _, recovered, _ = evolve_dilated(sys_, ket0, math.pi / 8)
        assert abs(np.vdot(recovered, direct.phi_out)) > 1 - 1e-8

    def test_fidelity_grid(self, ket0):
        # 20-point (alpha, t) grid against the direct non-unitary evolution
        for alpha in [0.2, 0.55, 0.9, 1.25]:
            m = pt_model(1.0, alpha, "alpha")
            sys_ = build_dilation(pt_hamiltonian(alpha))
            for t in np.linspace(0.3, 4.0, 5):
                direct = evolve(m, alpha, float(t), ket0)
                _, recovered, _ = evolve_dilated(sys_, ket0, float(t))
                assert abs(np.vdot(recovered, direct.phi_out)) >= 1 - 1e-8

    def test_norm_conservation(self, ket0):
        sys_ = build_dilation(pt_hamiltonian(math.pi / 4))
        expected = sys_.c * np.vdot(ket0, sys_.eta @ ket0).real
        for t in [0.0, 1.0, 5.0, 20.0]:
            Psi_t, _, _ = evolve_dilated(sys_, ket0, t)
            assert abs(np.vdot(Psi_t, Psi_t).real - expected) < 1e-9 * expected

    def test_time_array_matches_scalar_calls(self):
        psi0 = np.array([math.cos(0.6), math.sin(0.6)], dtype=complex)
        for _, H in unbroken_points()[:8]:
            sys_ = build_dilation(H)
            times = np.linspace(0.0, 30.0, 37)
            Psi_t, recovered, success = evolve_dilated(sys_, psi0, times)
            assert Psi_t.shape == (37, 4) and recovered.shape == (37, 2)
            assert success.shape == (37,)
            for i, t in enumerate(times):
                one = evolve_dilated(sys_, psi0, float(t))
                assert np.array_equal(Psi_t[i], one[0])
                assert np.array_equal(recovered[i], one[1])
                assert success[i] == one[2] and isinstance(one[2], float)

    def test_spectral_decomposition(self):
        # measured: 1.2e-15 and 9.2e-16 at most over these points
        for _, H in unbroken_points():
            sys_ = build_dilation(H)
            W, E = sys_.modes, sys_.energies
            assert np.linalg.norm(W @ linalg.dagger(W) - np.eye(4)) <= 1e-14
            assert (np.linalg.norm((W * E) @ linalg.dagger(W) - sys_.H_tot)
                    <= 1e-14 * np.linalg.norm(sys_.H_tot))

    def test_success_probability_tracks_k(self, ket0):
        # post-selection probability equals K / (c <psi0|eta|psi0>)
        alpha = 0.9
        m = pt_model(1.0, alpha, "alpha")
        sys_ = build_dilation(pt_hamiltonian(alpha))
        denom = sys_.c * np.vdot(ket0, sys_.eta @ ket0).real
        for t in [0.4, 1.3, 2.6]:
            K = evolve(m, alpha, t, ket0).K
            _, _, success = evolve_dilated(sys_, ket0, t)
            assert abs(success - K / denom) < 1e-9


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.05, math.pi / 2 - 0.05), t=st.floats(0.0, 20.0))
def test_dilation_recovers_direct_evolution(alpha, t):
    ket0 = linalg.basis_state(0)
    sys_ = build_dilation(pt_hamiltonian(alpha))
    direct = evolve(pt_model(1.0, alpha, "alpha"), alpha, t, ket0)
    _, recovered, success = evolve_dilated(sys_, ket0, t)
    assert abs(np.vdot(recovered, direct.phi_out)) >= 1 - 1e-9
    denom = sys_.c * np.vdot(ket0, sys_.eta @ ket0).real
    assert abs(success - direct.K / denom) <= 1e-9


# Each family with the range of its parameter, unbroken regime only; the
# ep_demo range reaches within 6e-4 of its EP at alpha = pi/4.
RECOVERY_FAMILIES = {
    "kappa": (kappa_model, st.floats(0.05, 20.0).filter(lambda k: k != 1.0)),
    "ep_demo": (ep_demo_model, st.floats(0.01, 0.785)),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(RECOVERY_FAMILIES)), data=st.data(),
       probe_angle=st.floats(0.0, math.pi / 2), t_stop=st.floats(0.0, 20.0))
def test_dilation_recovers_kappa_and_ep_demo(family, data, probe_angle, t_stop):
    make, params = RECOVERY_FAMILIES[family]
    theta = data.draw(params)
    model = make(theta)
    psi0 = np.array([math.cos(2 * probe_angle), math.sin(2 * probe_angle)], dtype=complex)
    times = np.linspace(0.0, t_stop, 20)
    sys_ = build_dilation(hamiltonian(model, theta))
    direct = evolve(model, theta, times, psi0)
    _, recovered, success = evolve_dilated(sys_, psi0, times)
    fidelity = np.abs(np.sum(recovered.conj() * direct.phi_out, axis=1))
    assert fidelity.min() >= 1 - 1e-9
    denom = sys_.c * np.vdot(psi0, sys_.eta @ psi0).real
    assert np.abs(success - direct.K / denom).max() <= 1e-9


@settings(max_examples=200, deadline=None)
@given(H=real_spectrum_hamiltonians())
def test_metric_and_zeta_on_random_real_spectra(H):
    # eta against (V V^dag)^-1 with the unit-norm right eigenvectors of H;
    # zeta = c eta - I is positive definite with determinant 1. Measured over
    # 5,000 examples: 1.9e-13 relative for eta, 1.8e-13 ||zeta||^2 for det zeta.
    _, vecs = np.linalg.eig(H)
    ref = np.linalg.inv(vecs @ linalg.dagger(vecs))
    ref = ref / np.trace(ref).real
    assert np.linalg.norm(build_dilation(H).eta - ref) <= 1e-11 * np.linalg.norm(ref)
    zeta = build_dilation(H).zeta
    assert np.linalg.eigvalsh(zeta).min() > 0
    assert abs(np.linalg.det(zeta) - 1) <= 1e-12 * np.linalg.norm(zeta) ** 2


def test_dilation_next_to_the_ep():
    # pi/4 - alpha = 1e-11: w^2 = cos(2 alpha) is about 2e-11, where an
    # eigenvector-based metric no longer resolves zeta; measured 1 - fidelity
    # <= 4.5e-16.
    alpha = math.pi / 4 - 1e-11
    model = ep_demo_model(alpha)
    sys_ = build_dilation(hamiltonian(model, alpha))
    times = np.linspace(0.0, 20.0, 41)
    for psi0 in (linalg.basis_state(0), np.array([math.cos(0.6), math.sin(0.6)], dtype=complex)):
        direct = evolve(model, alpha, times, psi0)
        _, recovered, _ = evolve_dilated(sys_, psi0, times)
        fidelity = np.abs(np.sum(recovered.conj() * direct.phi_out, axis=1))
        assert fidelity.min() >= 1 - 1e-9



def test_dilation_energies_are_bounded_by_the_norm_of_h():
    # `phase_failures` bounds the phase error of both `dilate` routes by
    # t ||H||_F eps, which needs |E| <= ||H||_F for every energy of H_tot
    # (measured: at most 0.71 ||H||_F)
    points = [*unbroken_points(),
              ("ep_demo alpha=0.785", hamiltonian(ep_demo_model(0.785), 0.785)),
              ("ep_demo alpha=pi/4-1e-6",
               hamiltonian(ep_demo_model(math.pi / 4 - 1e-6), math.pi / 4 - 1e-6)),
              ("pt alpha=1.4", pt_hamiltonian(1.4)),
              ("kappa=0.2", hamiltonian(kappa_model(0.2), 0.2)),
              ("kappa=4", hamiltonian(kappa_model(4.0), 4.0))]
    for name, H in points:
        assert np.abs(build_dilation(H).energies).max() <= np.linalg.norm(H), name
