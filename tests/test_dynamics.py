import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import custom_model, dynamics, ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.dynamics import (PHASE_EPS, check_projector, evolve, expectation, fix_phase,
                              outcome_probability)
from nhmetro.errors import NotNormalized, NotProjector, OutOfRange
from nhmetro.models import hamiltonian

import reference
from conftest import P0_PROBE, P0_TIME, T18, probe_state


class TestEvolve:
    def test_t0(self, ket0):
        res = evolve(pt_model(1.0, math.pi / 4), 1.0, 0.0, ket0)
        assert abs(res.K - 1.0) < 1e-12
        assert np.allclose(res.phi_out, ket0)

    def test_normalization_coefficient(self, ket0):
        res = evolve(pt_model(1.0, math.pi / 4), 1.0, math.pi / 8, ket0)
        assert abs(res.K - 1.6778) < 1e-3
        assert abs(np.vdot(res.phi_out, res.phi_out).real - 1.0) < 1e-12
        assert np.array_equal(res.phi_out, fix_phase(res.phi_out))

    def test_hermitian_preserves_norm(self, ket0):
        m = custom_model(lambda th: th * linalg.SIGMA_Z, lambda th: linalg.SIGMA_Z)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        for t in [0.3, 1.0, 5.0]:
            assert abs(evolve(m, 1.0, t, plus).K - 1.0) < 1e-12

    def test_requires_normalized_input(self):
        with pytest.raises(NotNormalized):
            evolve(pt_model(1.0, math.pi / 4), 1.0, 1.0, np.array([1.0, 1.0]))

    def test_deterministic(self, ket0):
        a = evolve(pt_model(1.0, math.pi / 4), 1.0, 1.2345, ket0)
        b = evolve(pt_model(1.0, math.pi / 4), 1.0, 1.2345, ket0)
        assert np.array_equal(a.phi_out, b.phi_out)
        assert a.K == b.K

    def test_k_periodicity(self, ket0):
        # K(t) for the pt family repeats with period pi/(s cos alpha)
        s, alpha = 1.0, math.pi / 4
        m = pt_model(s, alpha, "s")
        period = math.pi / (s * math.cos(alpha))
        for t in np.linspace(0.1, 3.0, 20):
            k1 = evolve(m, s, float(t), ket0).K
            k2 = evolve(m, s, float(t) + period, ket0).K
            assert abs(k1 - k2) < 1e-9


class TestSurvivalProbability:
    def test_time_table(self, ket0, proj0):
        m = pt_model(1.0, math.pi / 4)
        for k, expected in enumerate(P0_TIME, start=1):
            p = outcome_probability(evolve(m, 1.0, k * math.pi / 8, ket0).phi_out, proj0)
            assert abs(p - expected) < 5e-4

    def test_probe_table(self, proj0):
        m = pt_model(1.0, math.pi / 10, "alpha")
        for i, expected in enumerate(P0_PROBE):
            p = outcome_probability(evolve(m, math.pi / 10, T18, probe_state(4.5 * i)).phi_out,
                                    proj0)
            assert abs(p - expected) < 1e-3

    def test_complement_sums_to_one(self, ket0):
        m = pt_model(1.0, math.pi / 4)
        phi = evolve(m, 1.0, 1.1, ket0).phi_out
        p0 = outcome_probability(phi, linalg.projector(linalg.basis_state(0)))
        p1 = outcome_probability(phi, linalg.projector(linalg.basis_state(1)))
        assert abs(p0 + p1 - 1.0) < 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(NotProjector):
            check_projector(np.eye(2))
        with pytest.raises(NotProjector):
            check_projector(np.array([[0.5, 0.5], [0.5, 0.6]]))


def test_check_projector_accepts_rank1():
    v = np.array([0.6, 0.8])
    check_projector(linalg.projector(v))


def test_outcome_probability_clamps_rounding_only(proj0):
    # |phi|^2 = 1 + 4.4e-16 is rounding: clamped to 1
    assert outcome_probability(np.array([1.0 + 2e-16, 0.0]), proj0) == 1.0
    with pytest.raises(NotNormalized):
        outcome_probability(np.array([1.1, 0.0]), proj0)


# Each family with the range its estimated parameter is drawn from.
STACK_FAMILIES = {
    "pt": (pt_model(1.0, 0.7, "s"), st.floats(0.0, 3.0)),
    "kappa": (kappa_model(2.0), st.floats(0.05, 20.0).filter(lambda k: k != 1.0)),
    "ep_demo": (ep_demo_model(0.5), st.floats(0.01, math.pi / 4 - 0.01)),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(STACK_FAMILIES)), t=st.floats(0.0, 50.0),
       probe_deg=st.floats(0.0, 45.0), data=st.data())
def test_stacked_evolve_matches_single_evolves(family, t, probe_deg, data):
    # with t up to 50 a pt or kappa stack mixes squaring counts
    model, thetas = STACK_FAMILIES[family]
    theta = data.draw(thetas)
    thetas = data.draw(st.lists(thetas, min_size=1, max_size=70))
    times = data.draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=70))
    psi0 = probe_state(probe_deg)
    stacked = evolve(model, np.array(thetas), t, psi0)
    assert stacked.phi_out.shape == (len(thetas), 2) and stacked.K.shape == (len(thetas),)
    for i, th in enumerate(thetas):
        assert_same_evolution(stacked, i, evolve(model, th, t, psi0))
    over_t = evolve(model, theta, np.array(times), psi0)
    assert over_t.phi_out.shape == (len(times), 2) and over_t.K.shape == (len(times),)
    for i, tk in enumerate(times):
        assert_same_evolution(over_t, i, evolve(model, theta, tk, psi0))


def assert_same_evolution(stacked, i, single):
    assert np.array_equal(stacked.phi_out[i], single.phi_out)
    assert stacked.K[i] == single.K


def test_evolve_takes_one_array_argument(ket0):
    model = pt_model(1.0, 0.7, "s")
    with pytest.raises(ValueError, match="not both"):
        evolve(model, np.array([0.9, 1.1]), np.array([0.5, 1.0]), ket0)


def test_theta_stack_builds_h_in_one_call(ket0, monkeypatch):
    calls = []

    def counting(model, theta):
        calls.append(np.shape(theta))
        return hamiltonian(model, theta)

    monkeypatch.setattr(dynamics, "hamiltonian", counting)
    evolve(pt_model(1.0, 0.7, "s"), np.linspace(0.5, 1.5, 64), 1.0, ket0)
    assert calls == [(64,)]


def test_every_time_of_an_array_is_checked(ket0):
    with pytest.raises(OutOfRange):
        evolve(pt_model(1.0, 0.7, "s"), 1.0, np.array([0.0, 1.0, -1e-3]), ket0)


def test_evolve_matches_the_per_vector_reference():
    # K from np.vdot and the phase fix of one vector at a time, point by point
    model, probe = pt_model(1.0, 0.7, "s"), probe_state(30.0)
    thetas, times = np.linspace(0.0, 3.0, 13), np.linspace(0.0, 40.0, 13)
    for stacked, points in ((evolve(model, thetas, 2.5, probe), [(th, 2.5) for th in thetas]),
                            (evolve(model, 1.1, times, probe), [(1.1, t) for t in times])):
        for i, (theta, t) in enumerate(points):
            phi, K = reference.evolve_vdot(model, theta, t, probe)
            single = evolve(model, theta, t, probe)
            assert stacked.phi_out[i].tobytes() == single.phi_out.tobytes() == phi.tobytes()
            assert stacked.K[i] == single.K == K


# Amplitudes of magnitude 1e-150 to 1e150, signed zeros, and magnitudes at
# the phase-fix threshold PHASE_EPS or one ulp either side of it.
COMPONENTS = (st.sampled_from([0.0, -0.0])
              | st.builds(lambda e, sign: sign * 10.0 ** e,
                          st.floats(-150.0, 150.0), st.sampled_from([1.0, -1.0])))
THRESHOLD = [complex(np.nextafter(PHASE_EPS, 0.0), 0.0), complex(PHASE_EPS, -0.0),
             complex(-0.0, -PHASE_EPS), complex(0.0, np.nextafter(PHASE_EPS, 1.0))]
AMPLITUDES = (st.sampled_from(THRESHOLD) | st.builds(complex, COMPONENTS, COMPONENTS)
              | st.floats(0.0, 2 * math.pi).map(lambda a: PHASE_EPS * complex(math.cos(a),
                                                                              math.sin(a))))


@st.composite
def states(draw):
    """One vector (2,) or a stack (N, 2)."""
    rows = draw(st.lists(st.lists(AMPLITUDES, min_size=2, max_size=2), min_size=1, max_size=6))
    v = np.array(rows, dtype=complex)
    return v[0] if draw(st.booleans()) else v


def per_vector(function, v):
    """`function` of each vector of v, one vector at a time."""
    return np.array([function(row) for row in v.reshape(-1, 2)])


@settings(max_examples=300, deadline=None)
@given(v=states())
def test_fix_phase_matches_the_per_vector_loop(v):
    expected = per_vector(reference.fix_phase_loop, v)
    assert fix_phase(v).tobytes() == expected.reshape(v.shape).tobytes()


@settings(max_examples=200, deadline=None)
@given(phi=states(), polar=st.floats(0.0, math.pi), azimuth=st.floats(0.0, 2 * math.pi))
def test_expectation_matches_vdot(phi, polar, azimuth):
    # a general rank-1 projector
    A = linalg.projector([math.cos(polar / 2), math.sin(polar / 2) * complex(math.cos(azimuth),
                                                                             math.sin(azimuth))])
    expected = per_vector(lambda row: reference.expectation_vdot(row, A), phi)
    assert np.asarray(expectation(phi, A)).tobytes() == expected.reshape(phi.shape[:-1]).tobytes()


def test_fix_phase_keeps_a_vector_without_a_large_amplitude():
    stack = np.array([[0.0, 0.0], [PHASE_EPS, complex(-0.0, -0.5 * PHASE_EPS)], [0.6, 0.8j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed, zero = fix_phase(stack), fix_phase(np.zeros(2, dtype=complex))
    assert fixed[:2].tobytes() == stack[:2].tobytes()
    assert fixed[2].tobytes() == reference.fix_phase_loop(stack[2]).tobytes()
    assert zero.tobytes() == np.zeros(2, dtype=complex).tobytes()


def test_outcome_probability_clamps_each_state_of_a_stack():
    u = np.array([0.28, 0.96])
    A = linalg.projector(u)
    stack = np.array([u * (1.0 + 2e-16), [0.96, -0.28], [0.6, 0.8]], dtype=complex)
    raw = [reference.expectation_vdot(phi, A) for phi in stack]
    # rounding residues just above 1 and just below 0
    assert raw[0] > 1.0 and raw[1] < 0.0
    assert outcome_probability(stack, A).tolist() == [1.0, 0.0, raw[2]]
    # the error names the first value outside
    stack[1:] = [1.1 * u, 2.0 * u]
    with pytest.raises(NotNormalized, match="outcome probability 1.21"):
        outcome_probability(stack, A)
