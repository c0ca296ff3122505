import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import linalg, pt_model, kappa_model, ep_demo_model, affine_model
from nhmetro.dilation import build_dilation
from nhmetro.dynamics import evolve
from nhmetro.errors import OutOfRange, UnsupportedFamily
from nhmetro.fisher import generator_quadrature, qfi_record
from nhmetro.models import HamiltonianModel, d_hamiltonian, hamiltonian

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

    def test_affine_matrices(self):
        m = affine_model(linalg.SIGMA_X, linalg.SIGMA_Z, 0.7)
        assert m.true_value == 0.7
        assert np.allclose(hamiltonian(m, 0.7), linalg.SIGMA_X + 0.7 * linalg.SIGMA_Z)
        assert np.allclose(d_hamiltonian(m, 0.7), linalg.SIGMA_Z)

    def test_models_compare_by_value(self):
        # H0 and H1 are nested tuples of complex, so affine models compare
        m = affine_model(np.eye(2), np.eye(2), 1.0)
        assert m == affine_model(np.eye(2), [[1, 0], [0, 1]], 1.0)
        assert m != affine_model(np.eye(2), 2 * np.eye(2), 1.0)
        assert m != affine_model(np.eye(2), np.eye(2), 1.5)
        assert kappa_model(2.0) == kappa_model(2.0) != kappa_model(3.0)
        assert pt_model(1.0, 0.3) == pt_model(1.0, 0.3) != pt_model(1.0, 0.3, "alpha")

    def test_equal_models_hash_equal(self):
        # the hash is over the params' items in key order, so a dict built
        # in another order hashes as the catalog's
        pairs = [(pt_model(1.0, 0.3), HamiltonianModel("pt", {"alpha": 0.3, "s": 1.0}, "s")),
                 (kappa_model(2.0), kappa_model(2.0)),
                 (affine_model(np.eye(2), np.eye(2), 1.0),
                  affine_model(np.eye(2), [[1, 0], [0, 1]], 1.0))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        table = {a: k for k, (a, _) in enumerate(pairs)}
        assert [table[b] for _, b in pairs] == [0, 1, 2]
        assert pt_model(1.0, 0.3, "alpha") not in table


EP_ALPHA = math.pi / 4
# theta strictly inside (0, pi/2) for pt alpha, and inside (0, pi/4) for ep_demo,
# half of the time within 1e-3 of its EP
PT_ALPHAS = st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True)
EP_DEMO_ALPHAS = (st.floats(0.0, EP_ALPHA, exclude_min=True, exclude_max=True)
                  | st.floats(EP_ALPHA - 1e-3, EP_ALPHA, exclude_max=True))
PT_S = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e6) | st.floats(0.0, 1e300)


COMPLEX = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
MATRICES = st.lists(COMPLEX, min_size=4, max_size=4).map(lambda z: np.reshape(z, (2, 2)))


@st.composite
def stacks(draw):
    """(model, list of theta) for each family, affine included."""
    family = draw(st.sampled_from(["pt_s", "pt_alpha", "kappa", "ep_demo", "affine"]))
    size = dict(min_size=1, max_size=70)
    if family == "pt_s":
        return pt_model(1.0, draw(PT_ALPHAS), "s"), draw(st.lists(PT_S, **size))
    if family == "pt_alpha":
        return pt_model(draw(PT_S), 0.5, "alpha"), draw(st.lists(PT_ALPHAS, **size))
    if family == "kappa":
        kappas = st.floats(0.0, 1e6, exclude_min=True).filter(lambda k: k != 1.0)
        return kappa_model(2.0), draw(st.lists(kappas, **size))
    if family == "ep_demo":
        return ep_demo_model(0.5), draw(st.lists(EP_DEMO_ALPHAS, **size))
    return (affine_model(draw(MATRICES), draw(MATRICES), 1.0),
            draw(st.lists(st.floats(-10.0, 10.0), **size)))


def literal_hamiltonian(model, theta):
    """One point's H as an explicit 2x2 literal with math.sin and math.cos,
    or H0 + theta H1."""
    p = model.bound_params(theta)
    if model.family == "pt":
        a = math.sin(p["alpha"])
        return p["s"] * np.array([[1j * a, 1.0], [1.0, -1j * a]])
    if model.family == "kappa":
        return np.array([[0.0, p["kappa"]], [1.0, 0.0]], dtype=complex)
    if model.family == "ep_demo":
        c, s = math.cos(p["alpha"]), math.sin(p["alpha"])
        return np.array([[1j * s, c], [c, -1j * s]])
    return np.asarray(p["H0"], dtype=complex) + theta * np.asarray(p["H1"], dtype=complex)


@settings(max_examples=200, deadline=None)
@given(case=stacks())
def test_stacked_hamiltonian_matches_single_calls(case):
    model, thetas = case
    stacked = hamiltonian(model, np.array(thetas))
    singles = [hamiltonian(model, th) for th in thetas]
    assert stacked.shape == (len(thetas), 2, 2)
    assert stacked.tobytes() == np.array(singles).tobytes()
    assert np.array(singles).tobytes() == np.array(
        [literal_hamiltonian(model, th) for th in thetas]).tobytes()


@st.composite
def affine_catalog(draw):
    """(catalog model, the same family as an affine model, list of theta),
    both true at the first theta: kappa as H0 = [[0, 0], [1, 0]] with
    H1 = [[0, 1], [0, 0]], and pt(s) as H0 = 0 with H1 = M(alpha)."""
    size = dict(min_size=1, max_size=8)
    if draw(st.booleans()):
        thetas = draw(st.lists(st.floats(0.01, 10.0).filter(lambda k: k != 1.0), **size))
        return (kappa_model(thetas[0]),
                affine_model([[0, 0], [1, 0]], [[0, 1], [0, 0]], thetas[0]), thetas)
    alpha, thetas = draw(st.floats(0.05, 1.5)), draw(st.lists(st.floats(0.01, 10.0), **size))
    a = math.sin(alpha)
    return (pt_model(thetas[0], alpha, "s"),
            affine_model(np.zeros((2, 2)), [[1j * a, 1.0], [1.0, -1j * a]], thetas[0]), thetas)


@settings(max_examples=60, deadline=None)
@given(case=affine_catalog(), t=st.floats(0.0, 20.0), angle=st.floats(0.0, math.pi))
def test_affine_model_reproduces_the_catalog(case, t, angle):
    catalog, affine, thetas = case
    theta, times = thetas[0], np.linspace(0.0, t, 5)
    psi0 = np.array([math.cos(angle), math.sin(angle)], dtype=complex)

    def outputs(m):
        rec = qfi_record(m, theta, times, evolve(m, theta, times, psi0))
        return (hamiltonian(m, np.array(thetas)), d_hamiltonian(m, theta),
                evolve(m, np.array(thetas), t, psi0).phi_out, rec.F, rec.K, rec.gap,
                build_dilation(hamiltonian(m, theta)).H_tot)

    for got, expected in zip(outputs(affine), outputs(catalog)):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model, thetas, message", [
    (pt_model(1.0, 0.5, "s"), [1.0, 2.0, -0.25, -3.0],
     "pt family requires s >= 0, got -0.25"),
    (pt_model(1.0, 0.5, "alpha"), [0.5, 1.0, 1.75, -1.0],
     "pt family requires 0 < alpha < pi/2, got 1.75"),
    (pt_model(1.0, 2.0, "s"), [1.0, -1.0],
     "pt family requires 0 < alpha < pi/2, got 2.0"),
    (pt_model(-1.0, 0.5, "alpha"), [0.5, 2.0],
     "pt family requires s >= 0, got -1.0"),
    (kappa_model(2.0), [2.0, 3.0, 1.0, -1.0], "kappa family requires kappa > 0 and "
     "kappa != 1, got 1.0"),
    (ep_demo_model(0.5), [0.5, 0.25, math.pi / 4, 0.0],
     f"ep_demo family requires 0 < alpha < pi/4, got {math.pi / 4}"),
])
def test_stack_range_error_names_the_first_bad_theta(model, thetas, message):
    with pytest.raises(OutOfRange) as stacked:
        hamiltonian(model, np.array(thetas))
    assert str(stacked.value) == message
    first_bad = next(th for th in thetas if not _in_range(model, th))
    with pytest.raises(OutOfRange) as single:
        hamiltonian(model, first_bad)
    assert str(single.value) == message


def _in_range(model, theta) -> bool:
    try:
        hamiltonian(model, theta)
    except OutOfRange:
        return False
    return True


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
