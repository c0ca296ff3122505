"""Each stacked physics function equals its single-point calls, bit for bit.

`qfi` evaluates its whole time grid, and `optimal` its whole probe sweep or
time grid, in one call per quantity; these tests hold every stacked result
to the bytes of the per-point calls that it replaces.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmetro import ep_demo_model, kappa_model, linalg, pt_model
from nhmetro.config import probe_from_angle
from nhmetro.dynamics import evolve
from nhmetro.fisher import generator_closed_form, qfi_record, qfi_state_derivative
from nhmetro.measure import Observable, error_propagation_precision, optimality_residual

EP_ALPHA = math.pi / 4


@st.composite
def models(draw):
    """(model, theta) of pt (estimating s or alpha), kappa or ep_demo, with
    ep_demo drawn next to its EP at pi/4 half of the time (but short of it
    by more than the central-difference step, 1e-5)."""
    family = draw(st.sampled_from(["pt_s", "pt_alpha", "kappa", "ep_demo"]))
    if family.startswith("pt"):
        s, alpha = draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 1.5))
        model = pt_model(s, alpha, family[3:])
        return model, model.true_value
    if family == "kappa":
        kappa = draw(st.floats(0.05, 6.0).filter(lambda k: abs(k - 1.0) > 1e-3))
        return kappa_model(kappa), kappa
    alpha = draw(st.floats(0.05, 0.75) | st.floats(EP_ALPHA - 1e-3, EP_ALPHA - 2e-5))
    return ep_demo_model(alpha), alpha


TIMES = st.lists(st.just(0.0) | st.floats(0.0, 50.0), min_size=1, max_size=12)


@st.composite
def probes(draw):
    """A normalized probe: from an angle, or from four random amplitude parts."""
    if draw(st.booleans()):
        return probe_from_angle(draw(st.floats(-2.0, 2.0)))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda p: max(map(abs, p)) > 0.1))
    v = np.array(parts).view(complex)
    return v / np.linalg.norm(v)


@st.composite
def observables(draw):
    """A random Hermitian observable, or the projector |0><0|."""
    if draw(st.booleans()):
        return Observable(linalg.projector(linalg.basis_state(0)))
    a, b, c, d = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    return Observable(np.array([[a, complex(b, c)], [complex(b, -c), d]]))


def same_bytes(stacked, singles):
    return np.asarray(stacked).tobytes() == np.array(singles).tobytes()


def record(model, theta, t, psi0):
    return qfi_record(model, theta, t, evolve(model, theta, t, psi0))


def assert_same_records(stacked, singles):
    for field in ("f", "F", "K", "I", "gap"):
        assert same_bytes(getattr(stacked, field), [getattr(r, field) for r in singles])
    assert [str(f) for f in stacked.failures] == [str(r.failures[0]) for r in singles]


@settings(max_examples=60, deadline=None)
@given(point=models(), times=TIMES)
def test_generator_stack(point, times):
    model, theta = point
    h = generator_closed_form(model, theta, np.array(times))
    assert h.shape == (len(times), 2, 2)
    assert same_bytes(h, [generator_closed_form(model, theta, t) for t in times])


@settings(max_examples=60, deadline=None)
@given(point=models(), times=TIMES, probe=probes())
def test_qfi_record_stack(point, times, probe):
    model, theta = point
    assert_same_records(record(model, theta, np.array(times), probe),
                        [record(model, theta, t, probe) for t in times])


@settings(max_examples=60, deadline=None)
@given(point=models(), t=st.just(0.0) | st.floats(0.0, 50.0),
       stack=st.lists(probes(), min_size=1, max_size=12))
def test_qfi_record_probe_stack(point, t, stack):
    # the probes share one h: f, F, K, I and gap of each are those of its own call
    model, theta = point
    stacked = record(model, theta, t, np.array(stack))
    assert np.shape(stacked.gap) == (len(stack),)
    assert_same_records(stacked, [record(model, theta, t, probe) for probe in stack])


@settings(max_examples=60, deadline=None)
@given(point=models(), times=TIMES, probe=probes())
def test_qfi_state_derivative_stack(point, times, probe):
    model, theta = point
    stacked = qfi_state_derivative(model, theta, np.array(times), probe)
    assert same_bytes(stacked, [qfi_state_derivative(model, theta, t, probe) for t in times])


@settings(max_examples=60, deadline=None)
@given(point=models(), t=st.just(0.0) | st.floats(0.0, 50.0),
       stack=st.lists(probes(), min_size=1, max_size=12))
def test_evolve_probe_stack(point, t, stack):
    model, theta = point
    stacked = evolve(model, theta, t, np.array(stack))
    singles = [evolve(model, theta, t, probe) for probe in stack]
    assert same_bytes(stacked.phi_out, [r.phi_out for r in singles])
    assert same_bytes(stacked.K, [r.K for r in singles])


def measure_stack(model, theta, t, probes_, A):
    """(f, F, report, precision) of a stack of points, as cmd_optimal takes them."""
    res = evolve(model, theta, t, probes_)
    rec = qfi_record(model, theta, t, res)
    report = optimality_residual(res.phi_out, rec.f, A)
    return (rec.f, rec.F, report,
            error_propagation_precision(model, theta, t, probes_, res.phi_out, A))


def assert_same_points(stacked, singles):
    f, F, report, precision = stacked
    assert same_bytes(f, [s[0] for s in singles])
    assert same_bytes(F, [s[1] for s in singles])
    for field in ("residual", "c", "c_imag_fraction"):
        assert same_bytes(getattr(report, field), [getattr(s[2], field) for s in singles])
    assert [str(e) for e in report.failures] == [str(s[2].failures[0]) for s in singles]
    assert same_bytes(precision, [s[3] for s in singles])


@settings(max_examples=60, deadline=None)
@given(point=models(), t=st.just(0.0) | st.floats(0.0, 20.0),
       stack=st.lists(probes(), min_size=1, max_size=12), A=observables())
def test_measure_probe_stack(point, t, stack, A):
    model, theta = point
    assert_same_points(measure_stack(model, theta, t, np.array(stack), A),
                       [measure_stack(model, theta, t, probe, A) for probe in stack])


@settings(max_examples=60, deadline=None)
@given(point=models(), times=TIMES, probe=probes(), A=observables())
def test_measure_time_stack(point, times, probe, A):
    model, theta = point
    assert_same_points(measure_stack(model, theta, np.array(times), probe, A),
                       [measure_stack(model, theta, t, probe, A) for t in times])
