"""Well modes, two-particle states, log-derivatives, field-equation residual.

Frozen reference values were computed independently with mpmath at 40
significant digits (mode values and arbitrary-precision central
differences of the analytic state), then pinned here as literals.
"""

import cmath
import math
import subprocess
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import properflow as pf
from properflow.errors import BoundaryError, NodeProximityError

L = math.pi

interior = st.floats(min_value=0.15, max_value=L - 0.15)
times = st.floats(min_value=-3.0, max_value=3.0)


def test_mode_frequencies():
    assert pf.box_mode(1, L, 0.0).omega == pytest.approx(1.0, rel=1e-15)
    assert pf.box_mode(1, L, 1.0).omega == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert pf.box_mode(2, L, 1.0).omega == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_mode_validation():
    with pytest.raises(ValueError):
        pf.box_mode(0, L, 1.0)
    with pytest.raises(ValueError):
        pf.box_mode(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        pf.box_mode(1, L, -0.5)
    with pytest.raises(ValueError):
        pf.entangled_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, 1.0, 1.0))


@pytest.mark.parametrize(
    "detuned",
    [
        pytest.param(lambda omega: replace(pf.box_mode(2, 2.5, 0.7), omega=omega), id="replace"),
        pytest.param(lambda omega: pf.box_mode(2, 2.5, 0.7, frequency=omega), id="frequency"),
    ],
)
def test_modes_evaluate_with_their_own_frequency(detuned):
    """A mode's point-independent factors are built with the mode, so a
    copy with another omega evaluates with that omega, on floats and on
    arrays, and leaves the mode it was made from as it was."""
    z, t = 0.9, 1.3
    k, amp = 2.0 * math.pi / 2.5, math.sqrt(2.0 / 2.5)
    base = pf.box_mode(2, 2.5, 0.7)
    before = base.value_and_grads(z, t)
    for omega in (0.4, 3.7, base.omega):
        mode = detuned(omega)
        val = amp * math.sin(k * z) * cmath.exp(1j * omega * t)
        expected = (val, 1j * omega * val, amp * k * math.cos(k * z) * cmath.exp(1j * omega * t))
        floats = mode.value_and_grads(z, t)
        arrays = [complex(f[0]) for f in mode.value_and_grads(np.array([z]), np.array([t]))]
        for got in (floats, arrays):
            for g, e in zip(got, expected):
                assert abs(g - e) <= 1e-15 * max(1.0, abs(e))
    assert base.value_and_grads(z, t) == before


def test_mode_equality_and_repr_see_only_the_fields():
    mode = pf.box_mode(1, L, 1.0)
    same = pf.BoxMode(1, L, 1.0, mode.omega)
    assert repr(mode) == f"BoxMode(n=1, L={L!r}, m=1.0, omega={mode.omega!r})"
    assert mode == same and hash(mode) == hash(same)
    assert astuple(mode) == (1, L, 1.0, mode.omega)
    assert mode != replace(mode, omega=2.0)


def test_amplitude_at_rest_point(model, rest_point):
    # mpmath, 40 digits: 0.12095423586050836185 + 0j
    value = model.amplitude(rest_point)
    assert value.real == pytest.approx(0.12095423586050836185, rel=1e-13)
    assert value.imag == pytest.approx(0.0, abs=1e-16)


def test_amplitude_at_probe_point(model, probe_point):
    # mpmath, 40 digits
    value = model.amplitude(probe_point)
    assert value.real == pytest.approx(0.04769519679982690561, rel=1e-12)
    assert value.imag == pytest.approx(0.30476848789225255899, rel=1e-12)


def test_log_derivatives_at_probe_point(model, probe_point):
    # mpmath oracle: p, s from the log-polar split, gradients from
    # arbitrary-precision differentiation of the analytic state.
    ld = pf.log_derivatives(model, probe_point)
    assert ld.p == pytest.approx(-1.1761048217815088652, rel=1e-12)
    assert ld.s == pytest.approx(1.4155589841480016104, rel=1e-12)
    p_t1, p_z1, s_t1, s_z1 = ld.particle(1)
    p_t2, p_z2, s_t2, s_z2 = ld.particle(2)
    assert p_t1 == pytest.approx(1.2285718181527045503, rel=1e-12)
    assert s_t1 == pytest.approx(1.9376397095546624281, rel=1e-12)
    assert p_z1 == pytest.approx(-0.0090237954946770165558, rel=1e-10)
    assert s_z1 == pytest.approx(1.8837823877325358268, rel=1e-12)
    assert p_t2 == pytest.approx(-1.2285718181527045503, rel=1e-12)
    assert s_t2 == pytest.approx(1.7126418303182223172, rel=1e-12)
    assert p_z2 == pytest.approx(-0.22903901044079870586, rel=1e-12)
    assert s_z2 == pytest.approx(2.0536974184343250586, rel=1e-12)


@settings(deadline=None)
@given(z1=interior, z2=interior, t1=times, t2=times)
def test_entangled_structure_identities(model, z1, z2, t1, t2):
    """|Psi|^2 depends on t1 - t2 only and the total phase rate is w1 + w2."""
    q = pf.ConfigPoint(z1, t1, z2, t2)
    try:
        ld = pf.log_derivatives(model, q)
    except NodeProximityError:
        return
    p_t1, _, s_t1, _ = ld.particle(1)
    p_t2, _, s_t2, _ = ld.particle(2)
    # tolerances scale with the gradient size: near a node both terms blow
    # up and the identities survive only up to cancellation error
    assert abs(p_t1 + p_t2) <= 1e-12 * (abs(p_t1) + abs(p_t2) + 1.0)
    total = math.sqrt(2.0) + math.sqrt(5.0)
    assert abs(s_t1 + s_t2 - total) <= 1e-12 * (abs(s_t1) + abs(s_t2) + 1.0)


@settings(deadline=None)
@given(z1=interior, z2=interior, t1=times, t2=times)
def test_exchange_symmetry_of_fields(model, z1, z2, t1, t2):
    psi, dt1, dz1, dt2, dz2 = model.fields(z1, t1, z2, t2)
    swapped = model.fields(z2, t2, z1, t1)
    assert swapped[0] == psi
    assert swapped[1] == dt2 and swapped[2] == dz2
    assert swapped[3] == dt1 and swapped[4] == dz1


def test_product_state_gradients():
    """For a(1)b(2) the phase rates are the mode frequencies and
    d ln|Psi| / dz1 = k cot(k z1)."""
    prod = pf.product_pair(pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))
    q = pf.ConfigPoint(z1=0.7, t1=0.3, z2=1.9, t2=-0.2)
    ld = pf.log_derivatives(prod, q)
    p_t1, p_z1, s_t1, s_z1 = ld.particle(1)
    p_t2, p_z2, s_t2, s_z2 = ld.particle(2)
    assert s_t1 == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert s_t2 == pytest.approx(math.sqrt(5.0), rel=1e-13)
    assert p_t1 == pytest.approx(0.0, abs=1e-14)
    assert s_z1 == pytest.approx(0.0, abs=1e-14)
    assert p_z1 == pytest.approx(1.0 / math.tan(0.7), rel=1e-12)
    assert p_z2 == pytest.approx(2.0 / math.tan(2.0 * 1.9), rel=1e-12)


def test_equal_time_gradients_are_real(model):
    """At t1 = t2 the density is stationary and the phase is position-free."""
    for z1, z2, t in ((1.0, 2.0, 0.0), (0.6, 1.3, 0.8), (2.4, 1.7, -1.1)):
        ld = pf.log_derivatives(model, pf.ConfigPoint(z1, t, z2, t))
        for i in (1, 2):
            p_t, p_z, s_t, s_z = ld.particle(i)
            assert p_t == pytest.approx(0.0, abs=1e-13)
            assert s_z == pytest.approx(0.0, abs=1e-13)


def test_analytic_gradients_match_finite_differences(model, probe_point):
    q = probe_point
    h = 1e-6
    psi, dt1, dz1, dt2, dz2 = model.fields(q.z1, q.t1, q.z2, q.t2)
    estimates = {
        "dt1": (model.fields(q.z1, q.t1 + h, q.z2, q.t2)[0]
                - model.fields(q.z1, q.t1 - h, q.z2, q.t2)[0]) / (2 * h),
        "dz1": (model.fields(q.z1 + h, q.t1, q.z2, q.t2)[0]
                - model.fields(q.z1 - h, q.t1, q.z2, q.t2)[0]) / (2 * h),
        "dt2": (model.fields(q.z1, q.t1, q.z2, q.t2 + h)[0]
                - model.fields(q.z1, q.t1, q.z2, q.t2 - h)[0]) / (2 * h),
        "dz2": (model.fields(q.z1, q.t1, q.z2 + h, q.t2)[0]
                - model.fields(q.z1, q.t1, q.z2 - h, q.t2)[0]) / (2 * h),
    }
    for got, key in ((dt1, "dt1"), (dz1, "dz1"), (dt2, "dt2"), (dz2, "dz2")):
        assert abs(got - estimates[key]) <= 1e-7 * (abs(got) + 1.0), key


def test_fields_broadcast_over_arrays(model, probe_point):
    q = probe_point
    z1 = np.array([q.z1, 1.1, 1.4])
    psi, dt1, dz1, dt2, dz2 = model.fields(z1, q.t1, q.z2, q.t2)
    assert psi.shape == (3,)
    # vectorized transcendentals may differ from the scalar path by an ulp
    scalar = model.amplitude(q)
    assert abs(complex(psi[0]) - scalar) <= 1e-15 * abs(scalar)


def test_kg_residual_second_order_decay(model, probe_point, moving_point):
    for q in (probe_point, pf.ConfigPoint(1.3, 0.9, 2.1, 0.1)):
        for i in (1, 2):
            r1 = abs(pf.kg_residual(model, q, i, 1e-4))
            r2 = abs(pf.kg_residual(model, q, i, 5e-5))
            order = math.log2(r1 / r2)
            assert order >= 1.9, (q, i, r1, r2)


def test_kg_residual_detuned_control(probe_point):
    """A mode running at omega + delta leaves residual (2 w d + d^2)|Psi|."""
    delta = 0.1
    omega = math.sqrt(2.0)
    bad = pf.product_pair(
        pf.box_mode(1, L, 1.0, frequency=omega + delta), pf.box_mode(2, L, 1.0)
    )
    expected = (2.0 * omega * delta + delta * delta) * abs(bad.amplitude(probe_point))
    r1 = abs(pf.kg_residual(bad, probe_point, 1, 1e-4))
    r2 = abs(pf.kg_residual(bad, probe_point, 1, 5e-5))
    assert r1 == pytest.approx(expected, rel=1e-4)
    # no decay under h-halving: the residual is real, not discretization
    assert r2 > 0.9 * r1
    # the untouched particle-2 factor still satisfies its equation
    assert abs(pf.kg_residual(bad, probe_point, 2, 1e-4)) < 1e-8


def test_kg_residual_rejects_bad_step(model, probe_point):
    with pytest.raises(ValueError):
        pf.kg_residual(model, probe_point, 1, 0.0)


def test_kg_residual_rejects_bad_particle_index(model, probe_point):
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"particle index must be 1 or 2, got {i}"):
            pf.kg_residual(model, probe_point, i, 1e-3)


def test_node_guard(model):
    # exact interior node of the symmetrized state: z2 = L - z1 at equal times
    node = pf.ConfigPoint(z1=1.0, t1=0.0, z2=L - 1.0, t2=0.0)
    with pytest.raises(NodeProximityError):
        pf.log_derivatives(model, node)
    near_wall = pf.ConfigPoint(z1=1e-7, t1=0.0, z2=2.0, t2=0.0)
    with pytest.raises(NodeProximityError):
        pf.log_derivatives(model, near_wall)


def test_boundary_guard(model):
    outside = pf.ConfigPoint(z1=-0.5, t1=0.0, z2=2.0, t2=0.0)
    assert not model.in_domain(outside)
    with pytest.raises(BoundaryError):
        pf.log_derivatives(model, outside)
    with pytest.raises(BoundaryError):
        pf.log_derivatives(model, pf.ConfigPoint(1.0, 0.0, L + 0.2, 0.0))


def test_boosted_identity_is_exact(model, probe_point):
    same = pf.boosted(model, pf.Rapidity(0.0))
    q = probe_point
    assert same.fields(q.z1, q.t1, q.z2, q.t2) == model.fields(q.z1, q.t1, q.z2, q.t2)


def test_boosted_amplitude_is_pullback(model, probe_point):
    """The boosted state at boosted coordinates equals the base state."""
    alpha = pf.rapidity_from_velocity(0.3)
    primed = pf.boosted(model, alpha)
    q = probe_point
    p1 = pf.boost(pf.FourVector(q.t1, q.z1), alpha)
    p2 = pf.boost(pf.FourVector(q.t2, q.z2), alpha)
    moved = primed.amplitude(pf.ConfigPoint(p1.z, p1.t, p2.z, p2.t))
    assert moved == pytest.approx(model.amplitude(q), rel=1e-13)


def test_boosted_gradients_match_finite_differences(model):
    """Chain-rule gradients of the boosted state agree with direct FD."""
    alpha = pf.Rapidity(-0.45)
    primed = pf.boosted(model, alpha)
    q = pf.ConfigPoint(1.15, 0.52, 1.9, -0.33)
    assert primed.in_domain(q)
    h = 1e-6
    psi, dt1, dz1, dt2, dz2 = primed.fields(q.z1, q.t1, q.z2, q.t2)
    fd_t1 = (primed.fields(q.z1, q.t1 + h, q.z2, q.t2)[0]
             - primed.fields(q.z1, q.t1 - h, q.z2, q.t2)[0]) / (2 * h)
    fd_z1 = (primed.fields(q.z1 + h, q.t1, q.z2, q.t2)[0]
             - primed.fields(q.z1 - h, q.t1, q.z2, q.t2)[0]) / (2 * h)
    assert abs(dt1 - fd_t1) <= 1e-7 * (abs(dt1) + 1.0)
    assert abs(dz1 - fd_z1) <= 1e-7 * (abs(dz1) + 1.0)


def test_rescaled_state(model, probe_point):
    factor = 0.5j - 1.25
    scaled = pf.rescaled(model, factor)
    assert scaled.amplitude(probe_point) == pytest.approx(
        factor * model.amplitude(probe_point), rel=1e-14
    )
    assert scaled.amp2_floor == pytest.approx(
        abs(factor) ** 2 * model.amp2_floor, rel=1e-14
    )


def test_lone_state_embeds_single_mode():
    lone = pf.lone_state(pf.box_mode(1, L, 0.0))
    q = pf.ConfigPoint(z1=0.8, t1=0.25, z2=2.0, t2=0.0)
    expected = math.sqrt(2.0 / L) * math.sin(0.8) * complex(
        math.cos(0.25), math.sin(0.25)
    )
    assert lone.amplitude(q) == pytest.approx(expected, rel=1e-14)
    # spectator coordinates do not enter
    other = pf.ConfigPoint(z1=0.8, t1=0.25, z2=1.1, t2=0.7)
    assert lone.amplitude(other) == lone.amplitude(q)
    _, _, _, dt2, dz2 = lone.fields(q.z1, q.t1, q.z2, q.t2)
    assert dt2 == 0.0 and dz2 == 0.0


def _field_models(model):
    modes = (pf.box_mode(1, L, 1.0), pf.box_mode(2, L, 1.0))
    return {
        "entangled": model,
        "product": pf.product_pair(*modes),
        "lone-1": pf.lone_state(modes[1], particle=1),
        "lone-2": pf.lone_state(modes[1], particle=2),
        "boosted": pf.boosted(model, pf.Rapidity(0.7)),
        "rescaled": pf.rescaled(model, 0.5j - 1.25),
    }


def test_scalar_and_array_fields_agree(model):
    """Float inputs take the math path, arrays the numpy path; same values.

    The bound is 4 ulps of the state's field magnitude (the largest
    modulus any field reaches over the sampled points), not of each
    value: numpy's array loops round complex products differently from
    scalar arithmetic, and sums such as the entangled amplitude cancel
    that difference into many ulps of a small result (up to 45 measured).
    """
    rng = np.random.default_rng(17)
    tol = 4 * 2.2e-16
    z1, z2 = rng.uniform(0.05, L - 0.05, (2, 200))
    t1, t2 = rng.uniform(-3.0, 3.0, (2, 200))
    for name, m in _field_models(model).items():
        magnitude = max(float(np.max(np.abs(f))) for f in m.fields(z1, t1, z2, t2))
        for j in range(len(z1)):
            point = (float(z1[j]), float(t1[j]), float(z2[j]), float(t2[j]))
            scalar = m.fields(*point)
            array = m.fields(*(np.array([c]) for c in point))
            for s, a in zip(scalar, array):
                assert np.shape(a) == (1,), name
                assert abs(complex(s) - complex(a[0])) <= tol * magnitude, name
        # Integer and numpy-scalar coordinates still evaluate.
        ints = m.fields(1, 0, 2, 1)
        wide = m.fields(np.float64(1.0), np.float64(0.0), np.float64(2.0), np.float64(1.0))
        floats = m.fields(1.0, 0.0, 2.0, 1.0)
        for i, w, f in zip(ints, wide, floats):
            assert abs(complex(i) - complex(f)) <= tol * magnitude, name
            assert abs(complex(w) - complex(f)) <= tol * magnitude, name


def test_float_fields_are_plain_complex(model):
    """The scalar path builds no numpy scalars for the two-particle states."""
    models = _field_models(model)
    for name in ("entangled", "product", "boosted", "rescaled"):
        values = models[name].fields(0.9, 0.37, 2.2, -0.41)
        assert all(type(v) is complex for v in values), name


LONE_FLOAT_SCRIPT = """
import math, sys
import properflow as pf
for particle in (1, 2):
    lone = pf.lone_state(pf.box_mode(1, math.pi, 1.0), particle)
    assert lone.contains(1.0, 0.0, 2.0, 0.0) is True
    assert lone.contains(1.0, math.inf, 2.0, 0.0) is False
    assert lone.in_domain(pf.ConfigPoint(1.0, 0.0, 2.0, 0.0))
    fields = lone.fields(1.0, 0.0, 2.0, 0.0)
    assert all(type(v) is complex for v in fields), fields
print("numpy" in sys.modules)
"""


def test_lone_state_floats_stay_off_numpy():
    """A float LoneState evaluation builds no numpy values: the zero
    gradients are plain complex and the domain test a plain bool."""
    proc = subprocess.run(
        [sys.executable, "-c", LONE_FLOAT_SCRIPT], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
