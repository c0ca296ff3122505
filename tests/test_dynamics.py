import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import custom_model, ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.dynamics import (check_projector, evolve, fix_phase, outcome_probability,
                              survival_probability)
from nhmetro.errors import NotNormalized, NotProjector

from conftest import P0_PROBE, P0_TIME, T18, probe_state


class TestEvolve:
    def test_t0(self, ket0):
        res = evolve(pt_model(1.0, math.pi / 4), 1.0, 0.0, ket0)
        assert np.allclose(res.U, np.eye(2))
        assert abs(res.K - 1.0) < 1e-12
        assert np.allclose(res.phi_out, ket0)

    def test_normalization_coefficient(self, ket0):
        res = evolve(pt_model(1.0, math.pi / 4), 1.0, math.pi / 8, ket0)
        assert abs(res.K - 1.6778) < 1e-3
        assert abs(np.vdot(res.psi_out_raw, res.psi_out_raw).real - res.K) < 1e-12
        assert abs(np.vdot(res.phi_out, res.phi_out).real - 1.0) < 1e-12
        # first amplitude is already real-positive here, so no phase factor
        assert np.allclose(res.psi_out_raw, math.sqrt(res.K) * res.phi_out, atol=1e-12)
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
            p = survival_probability(evolve(m, 1.0, k * math.pi / 8, ket0), proj0)
            assert abs(p - expected) < 5e-4

    def test_probe_table(self, proj0):
        m = pt_model(1.0, math.pi / 10, "alpha")
        for i, expected in enumerate(P0_PROBE):
            p = survival_probability(evolve(m, math.pi / 10, T18, probe_state(4.5 * i)), proj0)
            assert abs(p - expected) < 1e-3

    def test_complement_sums_to_one(self, ket0):
        m = pt_model(1.0, math.pi / 4)
        res = evolve(m, 1.0, 1.1, ket0)
        p0 = survival_probability(res, linalg.projector(linalg.basis_state(0)))
        p1 = survival_probability(res, linalg.projector(linalg.basis_state(1)))
        assert abs(p0 + p1 - 1.0) < 1e-12

    def test_rejects_non_projector(self, ket0):
        res = evolve(pt_model(1.0, math.pi / 4), 1.0, 1.0, ket0)
        with pytest.raises(NotProjector):
            survival_probability(res, np.eye(2))
        with pytest.raises(NotProjector):
            survival_probability(res, np.array([[0.5, 0.5], [0.5, 0.6]]))


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
    thetas = data.draw(st.lists(thetas, min_size=1, max_size=70))
    psi0 = probe_state(probe_deg)
    stacked = evolve(model, np.array(thetas), t, psi0)
    assert stacked.U.shape == (len(thetas), 2, 2) and stacked.K.shape == (len(thetas),)
    for i, theta in enumerate(thetas):
        single = evolve(model, theta, t, psi0)
        assert np.array_equal(stacked.U[i], single.U)
        assert np.array_equal(stacked.psi_out_raw[i], single.psi_out_raw)
        assert np.array_equal(stacked.phi_out[i], single.phi_out)
        assert stacked.K[i] == single.K
