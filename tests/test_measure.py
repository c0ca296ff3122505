import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import linalg, pt_model, kappa_model, affine_model, ep_demo_model
from nhmetro.dynamics import evolve, expectation
from nhmetro.errors import NotHermitian, ZeroG
from nhmetro.fisher import generator_closed_form, generator_quadrature, qfi_record, sld_operator
from nhmetro.measure import (DEGENERATE_TOL, Observable, error_propagation_precision,
                             optimality_residual)

from conftest import INV_SQRT_F_PROBE, SIGMA_PROBE, T18, probe_state
from reference import qfi_generator

ALPHA10 = math.pi / 10


def random_points(n, seed):
    """(model, theta, t, probe) in the unbroken regime of pt, kappa and
    ep_demo in turn, with t up to 5 and a random real probe."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        s, alpha = rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.4)
        kappa = rng.uniform(0.2, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 4.0)
        a_ep = rng.uniform(0.05, 0.75)
        model, theta = [(pt_model(s, alpha, "s"), s), (pt_model(s, alpha, "alpha"), alpha),
                        (kappa_model(kappa), kappa), (ep_demo_model(a_ep), a_ep)][i % 4]
        points.append((model, theta, rng.uniform(0.05, 5.0),
                       probe_state(rng.uniform(0.0, 90.0))))
    return points, rng


def record(model, theta, t, psi0):
    return qfi_record(model, theta, t, evolve(model, theta, t, psi0))


def residual(model, theta, t, psi0, A):
    res = evolve(model, theta, t, psi0)
    return optimality_residual(res.phi_out, qfi_record(model, theta, t, res).f, A)


def precision_at(model, theta, t, psi0, A):
    """error_propagation_precision at one point, given its output state."""
    phi = evolve(model, theta, t, psi0).phi_out
    return error_propagation_precision(model, theta, t, psi0, phi, A)


def is_optimal(rep, tol=1e-6):
    """The saturation condition: a vanishing residual with a real constant."""
    return rep.residual < tol and rep.c_imag_fraction < tol


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (a + linalg.dagger(a)) / 2


def exact_precision(model, theta, t, psi0, A):
    """|d<A>/dtheta| / Delta A with the exact slope 2 Im<g|f>, where
    f = (h - <h>) phi and g = (A - <A>) phi."""
    phi = evolve(model, theta, t, psi0).phi_out
    hphi = generator_closed_form(model, theta, t) @ phi
    f = hphi - np.vdot(phi, hphi) * phi
    g = A @ phi - np.vdot(phi, A @ phi).real * phi
    return abs(2 * np.vdot(g, f).imag) / np.linalg.norm(g)


def central_difference_sld(model, theta, t, psi0, eps=1e-5):
    """2 d(rho)/dtheta from a central difference of the output density matrix."""
    def rho(th):
        return linalg.projector(evolve(model, th, t, psi0).phi_out)

    L = (rho(theta + eps) - rho(theta - eps)) / eps
    return (L + linalg.dagger(L)) / 2


def _sqrt_f(model, theta, t, psi0):
    h = generator_quadrature(model, theta, t)
    return math.sqrt(qfi_generator(h, evolve(model, theta, t, psi0).phi_out))


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]), "raising")


class TestErrorPropagation:
    def test_optimal_probe_saturates(self, proj0):
        m = pt_model(1.0, ALPHA10, "alpha")
        prec = precision_at(m, ALPHA10, T18, probe_state(0.0), Observable(proj0, "P0"))
        assert abs(1.0 / prec - SIGMA_PROBE[0.0]) / SIGMA_PROBE[0.0] < 0.01

    def test_suboptimal_probe(self, proj0):
        m = pt_model(1.0, ALPHA10, "alpha")
        probe = probe_state(18.0)
        prec = precision_at(m, ALPHA10, T18, probe, Observable(proj0, "P0"))
        assert abs(1.0 / prec - SIGMA_PROBE[18.0]) / SIGMA_PROBE[18.0] < 0.01
        assert prec < _sqrt_f(m, ALPHA10, T18, probe)

    def test_hermitian_ramsey(self):
        m = affine_model(np.zeros((2, 2)), linalg.SIGMA_Z / 2, 1.0)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        t = 0.05
        prec = precision_at(m, 1.0, t, plus, Observable(linalg.SIGMA_X, "X"))
        assert abs(prec - t) < 1e-6

    def test_stacked_evolve_matches_three_single_evolves(self):
        # the precision from one stacked evolve over (theta + eps, theta - eps,
        # theta) equals, bit for bit, the one from three single evolves
        points, rng = random_points(60, 11)
        assert {model.family for model, *_ in points} == {"pt", "kappa", "ep_demo"}
        for model, theta, t, psi0 in points:
            A = random_hermitian(rng)
            eps = 1e-5 * max(1.0, abs(theta))

            def mean_A(th):
                return expectation(evolve(model, th, t, psi0).phi_out, A)

            slope = (mean_A(theta + eps) - mean_A(theta - eps)) / (2 * eps)
            phi = evolve(model, theta, t, psi0).phi_out
            g = A @ phi - np.vecdot(phi, A @ phi) * phi  # (A - <A>) phi
            var = np.vecdot(g, g).real
            assert precision_at(model, theta, t, psi0, Observable(A)) == abs(slope) / np.sqrt(var)

    @pytest.mark.parametrize("theta", [1e-8, 1e-9])
    def test_near_eigenstate_reaches_sqrt_f(self, theta, ket0, proj0):
        # H = theta sigma_y turns |0> by theta t, so phi lies within theta of
        # the eigenstate |0> of A = |0><0|: Var A ~ theta^2, and sqrt(F) = 2t
        m = affine_model(np.zeros((2, 2)), linalg.SIGMA_Y, theta)
        prec = precision_at(m, theta, 1.0, ket0, Observable(proj0, "P0"))
        assert abs(prec - 2.0) < 0.02

    def test_degenerate(self, ket0):
        # the identity carries no signal: zero slope and zero variance
        m = pt_model(1.0, ALPHA10, "alpha")
        assert np.isnan(precision_at(m, ALPHA10, T18, probe_state(18.0),
                                     Observable(np.eye(2), "identity")))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.integers(0, 3), n=st.integers(1, 8),
       log_delta=st.floats(-16.0, -9.0), spread=st.sampled_from([0.0, 0.5, 3.0]))
def test_zero_g_rows_are_the_variance_nan_rows(seed, family, n, log_delta, spread):
    # A = I + spread |v><v| with v within delta of one output state of a
    # random probe stack: that row's ||(A - <A>) phi|| ~ spread delta
    # straddles DEGENERATE_TOL, and spread 0 makes every row trivial
    points, rng = random_points(4, seed)
    model, theta, t, _ = points[family]
    probes = np.array([probe_state(d) for d in rng.uniform(0.0, 90.0, n)])
    res = evolve(model, theta, t, probes)
    phi = res.phi_out
    near = phi[rng.integers(n)]
    v = near + 10.0 ** log_delta * np.array([-near[1].conj(), near[0].conj()])
    A = Observable(np.eye(2) + spread * linalg.projector(v / np.linalg.norm(v)))
    rep = optimality_residual(phi, qfi_record(model, theta, t, res).f, A)
    prec = error_propagation_precision(model, theta, t, probes, phi, A)
    zero_g = np.array([isinstance(failure, ZeroG) for failure in rep.failures])
    eps = 1e-5 * max(1.0, abs(theta))
    slope = (expectation(evolve(model, theta + eps, t, probes).phi_out, A.A)
             - expectation(evolve(model, theta - eps, t, probes).phi_out, A.A)) / (2 * eps)
    informative = abs(slope) > DEGENERATE_TOL
    assert np.isnan(prec[zero_g]).all()
    assert np.array_equal(np.isnan(prec) & informative, zero_g & informative)


class TestOptimalityResidual:
    def test_pt_s_is_optimal(self, ket0, proj0):
        rep = residual(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8,
                       ket0, Observable(proj0, "P0"))
        assert rep.residual < 1e-8
        assert rep.c_imag_fraction < 1e-8
        assert is_optimal(rep)

    def test_tilted_probe_fails_condition(self, proj0):
        rep = residual(pt_model(1.0, ALPHA10, "alpha"), ALPHA10, T18,
                       probe_state(18.0), Observable(proj0, "P0"))
        assert rep.residual > 0.01
        assert not is_optimal(rep)

    def test_kappa_optimal_with_known_constant(self, ket0, proj0):
        kappa, t = 2.0, math.pi / 6
        rep = residual(kappa_model(kappa), kappa, t, ket0, Observable(proj0, "P0"))
        rk = math.sqrt(kappa)
        expected_c = -(2 * t * rk - math.sin(2 * t * rk)) / (2 * kappa * math.sin(2 * t * rk))
        assert rep.residual < 1e-8
        assert abs(rep.c.real - expected_c) < 1e-8
        assert rep.c_imag_fraction < 1e-8

    def test_zero_g(self, ket0):
        # the identity-like projector along the output state leaves no signal
        m = pt_model(1.0, math.pi / 4, "s")
        phi = evolve(m, 1.0, 1.0, ket0).phi_out
        rep = residual(m, 1.0, 1.0, ket0, Observable(linalg.projector(phi), "P_phi"))
        assert np.isnan([rep.residual, rep.c, rep.c_imag_fraction]).all()
        assert isinstance(rep.failures[0], ZeroG)

    @pytest.mark.filterwarnings("error")
    def test_near_zero_g_is_silent(self, proj0):
        # g = (A - <A>) phi of norm 1e-160: the fit's c overflows, and the
        # row is a ZeroG nan row with no NumPy warning
        phi = np.array([1.0, 1e-160], dtype=complex)
        for f in (np.array([0.0, 1.0], dtype=complex), np.array([1.0, 1.0], dtype=complex)):
            rep = optimality_residual(phi, f, Observable(proj0, "P0"))
            assert np.isnan([rep.residual, rep.c, rep.c_imag_fraction]).all()
            assert isinstance(rep.failures[0], ZeroG)

    def test_residual_range(self, proj0):
        rng = np.random.default_rng(29)
        m = pt_model(1.0, ALPHA10, "alpha")
        for _ in range(10):
            rep = residual(m, ALPHA10, T18, probe_state(rng.uniform(1, 44)),
                           Observable(proj0, "P0"))
            assert 0.0 <= rep.residual <= 2.0


class TestQcrbRelations:
    def test_saturation_when_optimal(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4, "s")
        A = Observable(proj0, "P0")
        for t in [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8]:
            rep = residual(m, 1.0, t, ket0, A)
            if is_optimal(rep):
                prec = precision_at(m, 1.0, t, ket0, A)
                f = _sqrt_f(m, 1.0, t, ket0)
                assert abs(prec - f) / f < 1e-5

    def test_bound_for_random_observables(self, ket0):
        rng = np.random.default_rng(31)
        m = pt_model(1.0, math.pi / 4, "alpha")
        t = 1.1
        f = _sqrt_f(m, math.pi / 4, t, ket0)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            A = Observable((a + linalg.dagger(a)) / 2, "random")
            prec = precision_at(m, math.pi / 4, t, ket0, A)
            if np.isnan(prec):
                continue
            assert prec <= f * (1 + 1e-6)

    def test_uncertainty_relation(self, ket0):
        rng = np.random.default_rng(37)
        m = pt_model(1.0, math.pi / 4, "alpha")
        t = 1.4
        h = generator_quadrature(m, math.pi / 4, t)
        phi = evolve(m, math.pi / 4, t, ket0).phi_out
        var_h = (np.vdot(h @ phi, h @ phi)
                 - np.vdot(phi, linalg.dagger(h) @ phi) * np.vdot(phi, h @ phi)).real
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            A = (a + linalg.dagger(a)) / 2
            mean_a = np.vdot(phi, A @ phi).real
            var_a = np.vdot(phi, A @ A @ phi).real - mean_a ** 2
            cross = np.vdot(h @ phi, A @ phi) - np.vdot(phi, h @ phi).conjugate() * mean_a
            assert var_h * var_a >= abs(cross) ** 2 - 1e-10

    def test_exact_slope_obeys_and_attains_the_bound(self):
        # Measured: no random observable above sqrt(F); the 600 SLD
        # eigenprojectors within 4.3e-16 of it; the finite-difference slope of
        # error_propagation_precision within 1.1e-7 of the exact one.
        points, rng = random_points(300, 43)
        saturating = 0
        for model, theta, t, psi0 in points:
            sqrt_f = math.sqrt(record(model, theta, t, psi0).F)
            for _ in range(2):
                A = random_hermitian(rng)
                prec = exact_precision(model, theta, t, psi0, A)
                assert prec <= sqrt_f * (1 + 1e-12)
                prec_ep = precision_at(model, theta, t, psi0, Observable(A))
                if np.isnan(prec_ep):
                    continue
                assert abs(prec_ep - prec) <= 1e-6 * prec
            _, vecs = np.linalg.eigh(sld_operator(model, theta, t, psi0))
            for i in range(2):
                A = linalg.projector(vecs[:, i])
                if residual(model, theta, t, psi0, Observable(A)).residual < 1e-12:
                    saturating += 1
                    prec = exact_precision(model, theta, t, psi0, A)
                    assert abs(prec - sqrt_f) <= 1e-12 * sqrt_f
        assert saturating >= 100


class TestSldOperator:
    def test_zero_at_t0(self, ket0):
        L = sld_operator(pt_model(1.0, math.pi / 4, "s"), 1.0, 0.0, ket0)
        assert not L.any()

    def test_hermitian(self, ket0):
        rng = np.random.default_rng(41)
        m = pt_model(1.0, math.pi / 4, "alpha")
        for _ in range(20):
            L = sld_operator(m, rng.uniform(0.3, 1.2), rng.uniform(0.1, 3.0), ket0)
            assert linalg.herm_residual(L) < 1e-15

    def test_trace_identity(self, ket0):
        # Tr[rho L^2] equals the QFI: against the quadrature generator at two
        # points, and the production F over random points (measured 1.4e-15)
        for m, th, t in [(pt_model(1.0, math.pi / 4, "s"), 1.0, math.pi / 8),
                         (kappa_model(2.0), 2.0, 1.3)]:
            phi = evolve(m, th, t, ket0).phi_out
            rho = linalg.projector(phi)
            L = sld_operator(m, th, t, ket0)
            f = qfi_generator(generator_quadrature(m, th, t), phi)
            assert abs(np.trace(rho @ L @ L).real - f) / f < 1e-12
        for m, th, t, psi0 in random_points(300, 47)[0]:
            F = record(m, th, t, psi0).F
            L = sld_operator(m, th, t, psi0)
            rho = linalg.projector(evolve(m, th, t, psi0).phi_out)
            assert abs(np.trace(rho @ L @ L).real - F) <= 1e-14 * F

    def test_matches_central_difference(self):
        # the central difference errs by O(eps^2); measured 5.5e-9 relative
        for m, th, t, psi0 in random_points(60, 53)[0]:
            L = sld_operator(m, th, t, psi0)
            L_fd = central_difference_sld(m, th, t, psi0, 1e-5 * max(1.0, th))
            assert np.linalg.norm(L - L_fd) <= 1e-7 * np.linalg.norm(L)

    def test_eigenprojectors_are_optimal(self, ket0):
        m = pt_model(1.0, math.pi / 4, "s")
        t = math.pi / 8
        L = sld_operator(m, 1.0, t, ket0)
        _, vecs = np.linalg.eigh(L)
        for i in range(2):
            A = Observable(linalg.projector(vecs[:, i]), f"L-eig{i}")
            rep = residual(m, 1.0, t, ket0, A)
            if isinstance(rep.failures[0], ZeroG):
                continue
            assert is_optimal(rep, tol=1e-12)
