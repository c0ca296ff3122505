import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.errors import NonFinite
from nhmetro.models import hamiltonian

from conftest import real_spectrum_hamiltonians
from reference import closed_form_U, squarings_norm


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
        # one matrix is a stack of one
        assert linalg.mat_exp(a[0]).tobytes() == linalg.mat_exp(a[:1]).tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_matches_single_calls_at_squaring_boundaries(self, dim):
        # Random matrices whose Frobenius norm, as np.linalg.norm sums it, is
        # 0.5 * 2^k or one ulp either side: a norm summed in another order
        # can land one ulp off there and change the squaring count.
        rng = np.random.default_rng(dim)
        stack = []
        for k in range(-1, 6):
            target = linalg.SCALING_TARGET_NORM * 2.0 ** k
            for norm in (np.nextafter(target, 0.0), target, np.nextafter(target, np.inf)):
                for _ in range(20):
                    m = scaled_to_norm(rng.normal(size=(dim, dim))
                                       + 1j * rng.normal(size=(dim, dim)), norm)
                    if m is not None:
                        stack.append(m)
        stack = np.array(stack)
        counts = [squarings_norm(m) for m in stack]
        assert len(stack) > 300 and sorted(set(counts)) == list(range(6))
        assert linalg._squarings(stack).tolist() == counts
        for got, m in zip(linalg.mat_exp(stack), stack):
            assert got.tobytes() == linalg.mat_exp(m).tobytes()
        # every matrix needs every stage: the whole stack is squared at once
        for k in range(6):
            same = stack[np.array(counts) == k]
            for got, m in zip(linalg.mat_exp(same), same):
                assert got.tobytes() == linalg.mat_exp(m).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2, 3), (1, 1, 2, 2)])
    def test_not_a_matrix_or_stack_raises(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            linalg.mat_exp(np.zeros(shape))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_stack_overflow_raises(self):
        a = np.stack([np.eye(2), 800.0 * np.eye(2)]).astype(complex)
        with pytest.raises(NonFinite, match="squaring stage"):
            linalg.mat_exp(a)
        assert linalg.mat_exp(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_overflowing_norm_raises(self, stacked):
        # finite entries whose Frobenius norm overflows: the squaring count
        # would be unbounded and the scaled input NaN
        a = 1j * np.array([[0.0, 1e200], [1e200, 0.0]])
        if stacked:
            a = np.stack([np.eye(2, dtype=complex), a])
        with pytest.raises(NonFinite, match="norm"):
            linalg.mat_exp(a)

    def test_unitary_for_hermitian_generator(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            herm = (a + linalg.dagger(a)) / 2
            u = linalg.mat_exp(-1j * herm)
            assert np.linalg.norm(u @ linalg.dagger(u) - np.eye(2)) < 1e-10


def scaled_to_norm(m, norm):
    """m scaled so that np.linalg.norm reads exactly `norm`, or None."""
    scale = norm / np.linalg.norm(m)
    for _ in range(10):
        got = np.linalg.norm(scale * m)
        if got == norm:
            return scale * m
        scale = np.nextafter(scale, 0.0 if got > norm else np.inf)
    return None


EPS = np.finfo(float).eps
# Largest error of the propagator against either reference over 9,000 random
# catalog points, in units of the bound below: 10.5 (against mat_exp, pt
# next to its EP).
PROPAGATOR_ERROR_UNITS = 100


def propagator_error_bound(H, t) -> float:
    """eps max(1, t ||H||_F) max(1, ||B||_F / |w|): the phase error grows
    with t, and next to the EP (w -> 0) with the condition of exp(-itH)."""
    _, B, w2 = linalg.traceless_split(H)
    w = abs(cmath.sqrt(w2))
    near_ep = np.linalg.norm(B) / w if w else 1.0
    return EPS * max(1.0, t * np.linalg.norm(H)) * max(1.0, near_ep)


@st.composite
def unbroken_points(draw):
    """(model, theta) of a catalog family in its unbroken regime; half of
    them within 1e-6..1e-1 of the family's EP (pt: alpha = pi/2, ep_demo:
    alpha = pi/4)."""
    family = draw(st.sampled_from(["pt", "kappa", "ep_demo"]))
    near_ep = draw(st.booleans())
    distance = 10 ** draw(st.floats(-6.0, -1.0))
    if family == "pt":
        alpha = math.pi / 2 - distance if near_ep else draw(st.floats(0.01, 1.5))
        return pt_model(draw(st.floats(0.1, 2.0)), alpha, "alpha"), alpha
    if family == "kappa":
        kappa = draw(st.floats(0.05, 5.0).filter(lambda k: k != 1.0))
        return kappa_model(kappa), kappa
    alpha = math.pi / 4 - distance if near_ep else draw(st.floats(0.01, 0.78))
    return ep_demo_model(alpha), alpha


class TestPropagator:
    @settings(max_examples=150, deadline=None)
    @given(point=unbroken_points(), t=st.floats(0.0, 50.0))
    def test_agrees_with_mat_exp_and_the_catalog_closed_form(self, point, t):
        model, theta = point
        H = hamiltonian(model, theta)
        U = linalg.propagator(H, t)
        references = [linalg.mat_exp(-1j * t * H)]
        if model.family != "ep_demo":
            references.append(closed_form_U(model, theta, t))
        bound = PROPAGATOR_ERROR_UNITS * propagator_error_bound(H, t)
        for ref in references:
            assert np.linalg.norm(U - ref) <= bound * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None)
    @given(H=real_spectrum_hamiltonians(), t=st.floats(0.0, 50.0))
    def test_agrees_with_mat_exp_on_random_real_spectra(self, H, t):
        U, ref = linalg.propagator(H, t), linalg.mat_exp(-1j * t * H)
        bound = PROPAGATOR_ERROR_UNITS * propagator_error_bound(H, t)
        assert np.linalg.norm(U - ref) <= bound * np.linalg.norm(ref)

    @settings(max_examples=40, deadline=None)
    @given(point=unbroken_points(),
           times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30))
    def test_stack_matches_single_calls(self, point, times):
        H = hamiltonian(*point)
        stacked = linalg.propagator(H, np.array(times))
        assert stacked.shape == (len(times), 2, 2)
        for got, t in zip(stacked, times):
            assert got.tobytes() == linalg.propagator(H, t).tobytes()

    @pytest.mark.parametrize("H", [np.zeros((2, 2)), [[0.3, 1.0], [0.0, 0.3]], 2.5 * np.eye(2)],
                             ids=["zero", "nilpotent", "scalar"])
    def test_w_zero_takes_the_series(self, H):
        # H = cI + B with B^2 = 0: exp(-itH) = e^(-ict) (I - i t B), exactly
        # for these entries
        H = np.asarray(H, dtype=complex)
        c, B, _ = linalg.traceless_split(H)
        for t in (0.0, 1.0, 7.0):
            expected = np.exp(-1j * c * t) * (np.eye(2) - 1j * t * B)
            assert np.array_equal(linalg.propagator(H, t), expected)

    def test_not_2x2_raises(self):
        with pytest.raises(ValueError, match="2x2"):
            linalg.propagator(np.eye(4), 1.0)
