"""Per-particle stress tensor, eigenflow classification, conservation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import properflow as pf
from properflow.errors import (
    DegenerateFlowError,
    DegenerateThetaError,
    LightlikeVelocityError,
    NoTimelikeFlowError,
)
from properflow.minkowski import VELOCITY_LIMIT

L = math.pi


def _random_flows(model, count, seed, t_span=2.0):
    """Yield (q, ld) at node-free interior points."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        q = pf.ConfigPoint(
            z1=float(rng.uniform(0.0, L)),
            t1=float(rng.uniform(-t_span, t_span)),
            z2=float(rng.uniform(0.0, L)),
            t2=float(rng.uniform(-t_span, t_span)),
        )
        try:
            ld = pf.log_derivatives(model, q)
        except pf.FlowError:
            continue
        made += 1
        yield q, ld


def test_ground_mode_energy_density_closed_form():
    """Massless ground mode: T^t_t = f^2 w^2 + f'^2 = 2/L everywhere.

    With f = sqrt(2/L) sin(pi z / L) and w = pi/L = 1 for L = pi the
    density is exactly uniform; the off-diagonal flux vanishes and
    T^z_z = -2/L.
    """
    lone = pf.lone_state(pf.box_mode(1, L, 0.0))
    rng = np.random.default_rng(2024)
    for z in rng.uniform(0.05, L - 0.05, size=100):
        ld = pf.log_derivatives(lone, pf.ConfigPoint(float(z), 0.3, 1.0, 0.0))
        T = pf.assemble(ld, 1, 0.0)
        assert abs(T.tt - 2.0 / L) <= 1e-12
        assert abs(T.zz + 2.0 / L) <= 1e-12
        assert T.tz == pytest.approx(0.0, abs=1e-13)
        assert T.zt == pytest.approx(0.0, abs=1e-13)


def test_trace_identity(model):
    """T^mu_mu = 2 |Psi|^2 m^2 for any state of mass m."""
    for q, ld in _random_flows(model, 200, seed=5):
        for i in (1, 2):
            T = pf.assemble(ld, i, model.mass)
            expected = 2.0 * T.amplitude2 * model.mass**2
            assert T.trace == pytest.approx(expected, rel=1e-12)


def test_mixed_antisymmetry_and_lowered_symmetry(model, probe_point):
    ld = pf.log_derivatives(model, probe_point)
    for i in (1, 2):
        T = pf.assemble(ld, i, model.mass)
        assert T.zt == -T.tz
        low = T.lowered()
        assert low[0][1] == low[1][0]


def test_component_lookup(model, probe_point):
    T = pf.assemble(pf.log_derivatives(model, probe_point), 1, model.mass)
    assert T.component("t", "t") == T.tt
    assert T.component("z", "t") == T.zt
    with pytest.raises(ValueError):
        T.component("x", "t")


def test_rest_point_flow_is_static(model, rest_point):
    """Equal times: no flux, timelike eigenvector along the t axis."""
    ld = pf.log_derivatives(model, rest_point)
    for i in (1, 2):
        T = pf.assemble(ld, i, model.mass)
        assert T.tz == pytest.approx(0.0, abs=1e-15)
        flow = pf.eigenflows(T)
        assert flow.v == pytest.approx(0.0, abs=1e-15)
        assert flow.w.t == pytest.approx(1.0, rel=1e-14)
        assert flow.w.z == pytest.approx(0.0, abs=1e-14)
        assert flow.lambda_time == pytest.approx(T.tt, rel=1e-14)


def test_rest_point_flow_has_no_negative_zero(model, rest_point):
    """An exactly vanishing flux gives v = +0.0, so CSVs never print -0."""
    ld = pf.log_derivatives(model, rest_point)
    for i in (1, 2):
        flow = pf.eigenflows(pf.assemble(ld, i, model.mass))
        assert math.copysign(1.0, flow.v) == 1.0
        assert math.copysign(1.0, flow.w.z) == 1.0


def test_rest_tensor_regression(model, rest_point):
    # pinned package output at the static start; guards against drift
    T = pf.assemble(pf.log_derivatives(model, rest_point), 1, model.mass)
    assert T.tt == pytest.approx(0.9297581080762681, rel=1e-12)
    assert T.zz == pytest.approx(-0.9004982537310693, rel=1e-12)


def test_eigenvalues_match_characteristic_roots(model):
    """Cross-check the eigensolver against the quadratic formula."""
    for q, ld in _random_flows(model, 300, seed=17):
        for i in (1, 2):
            T = pf.assemble(ld, i, model.mass)
            tr, det = T.trace, T.det
            root = math.sqrt(tr * tr - 4.0 * det)
            hi, lo = 0.5 * (tr + root), 0.5 * (tr - root)
            flow = pf.eigenflows(T)
            scale = abs(hi) + abs(lo) + 1e-30
            assert abs(flow.lambda_time - hi) <= 1e-10 * scale
            assert abs(flow.lambda_space - lo) <= 1e-10 * scale


def test_exactly_one_timelike_flow_at_thousand_points(model):
    """Random node-free configurations always split timelike/spacelike."""
    for q, ld in _random_flows(model, 1000, seed=11):
        for i in (1, 2):
            T = pf.assemble(ld, i, model.mass)
            flow = pf.eigenflows(T)
            assert abs(flow.v) < 1.0
            w = np.array([flow.w.t, flow.w.z])
            # unit future-pointing timelike eigenvector, small residual
            assert flow.w.t > 0.0
            norm = flow.w.t**2 - flow.w.z**2
            assert norm == pytest.approx(1.0, rel=1e-12)
            resid = np.linalg.norm(T.as_matrix() @ w - flow.lambda_time * w)
            assert resid <= 1e-9 * (np.linalg.norm(T.as_matrix()) + 1e-30)


def test_scaling_and_phase_invariance(model, probe_point):
    """Rescaling Psi by c scales T by |c|^2 and leaves the flow alone."""
    q = probe_point
    base_ld = pf.log_derivatives(model, q)
    for factor in (3.0, -2.0 + 0.5j, complex(math.cos(1.1), math.sin(1.1))):
        scaled = pf.rescaled(model, factor)
        ld = pf.log_derivatives(scaled, q)
        mag2 = abs(factor) ** 2
        for i in (1, 2):
            T0 = pf.assemble(base_ld, i, model.mass)
            T1 = pf.assemble(ld, i, model.mass)
            assert T1.tt == pytest.approx(mag2 * T0.tt, rel=1e-12)
            assert T1.tz == pytest.approx(mag2 * T0.tz, rel=1e-12)
            assert T1.zz == pytest.approx(mag2 * T0.zz, rel=1e-12)
            f0, f1 = pf.eigenflows(T0), pf.eigenflows(T1)
            assert f1.v == pytest.approx(f0.v, abs=1e-12)
            assert f1.w.t == pytest.approx(f0.w.t, rel=1e-12)
            assert f1.lambda_time == pytest.approx(mag2 * f0.lambda_time, rel=1e-12)


def test_closed_form_velocity_agrees_with_eigenvector(model):
    """Both guidance routes coincide wherever the closed form is defined."""
    compared = 0
    worst = 0.0
    for q, ld in _random_flows(model, 600, seed=7):
        for i in (1, 2):
            try:
                vc = pf.velocity_closed_form(ld, i)
            except (DegenerateThetaError, pf.FlowError):
                continue
            ve = pf.eigenflows(pf.assemble(ld, i, model.mass)).v
            worst = max(worst, abs(vc - ve))
            compared += 1
    assert compared >= 500
    assert worst <= 1e-9


def test_closed_form_degenerate_at_equal_times(model, rest_point):
    """P.S = 0 on the equal-time plane, so the branch split is undefined."""
    ld = pf.log_derivatives(model, rest_point)
    with pytest.raises(DegenerateThetaError):
        pf.velocity_closed_form(ld, 1)


def test_closed_form_degenerate_for_stationary_mode():
    lone = pf.lone_state(pf.box_mode(1, L, 0.0))
    ld = pf.log_derivatives(lone, pf.ConfigPoint(0.9, 0.2, 1.0, 0.0))
    with pytest.raises(DegenerateThetaError):
        pf.velocity_closed_form(ld, 1)


def test_no_timelike_flow_for_rotation_tensor():
    # tr = 0, det = 1: complex eigenvalue pair, no real eigenvectors
    spinning = pf.StressTensor(tt=0.0, tz=1.0, zt=-1.0, zz=0.0, amplitude2=1.0)
    with pytest.raises(NoTimelikeFlowError):
        pf.eigenflows(spinning)


def test_degenerate_flow_for_isotropic_tensor():
    # proportional to the identity: every direction is an eigenvector
    iso = pf.StressTensor(tt=1.0, tz=0.0, zt=0.0, zz=1.0, amplitude2=1.0)
    with pytest.raises(DegenerateFlowError):
        pf.eigenflows(iso)


def test_lightlike_guard_for_ultrarelativistic_wave():
    """A plane-wave-like phase with v = k/w past the guard must raise."""
    k = 3.0e4
    omega = math.sqrt(k * k + 1.0)
    ld = pf.LogDerivatives(
        p=0.0, s=0.0,
        p_t=(0.0, 0.0), p_z=(0.0, 0.0),
        s_t=(omega, 0.0), s_z=(k, 0.0),
    )
    T = pf.assemble(ld, 1, 1.0)
    assert T.trace == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(LightlikeVelocityError):
        pf.eigenflows(T)


def test_near_lightlike_wave_resolves_inside_the_guard():
    """|v| = 1 - 1.25e-9 sits inside the guard and must be resolved.

    The tensor's entries are O(k^2) = 4e8 while the timelike margin is
    O(1); a backward-stable solver rounds the eigenvectors onto the light
    cone here, the rows of T - lambda I do not.
    """
    k = 2.0e4
    omega = math.sqrt(k * k + 1.0)
    ld = pf.LogDerivatives(
        p=0.0, s=0.0,
        p_t=(0.0, 0.0), p_z=(0.0, 0.0),
        s_t=(omega, 0.0), s_z=(k, 0.0),
    )
    flow = pf.eigenflows(pf.assemble(ld, 1, 1.0))
    assert abs(flow.v + k / omega) <= 1e-12
    assert flow.lambda_time == pytest.approx(2.0, rel=1e-9)


def test_null_eigenvectors_are_degenerate():
    # disc = 1 clears the floor, but both eigenvectors (1, +/-1) are null
    T = pf.StressTensor(tt=1.0, tz=0.5, zt=0.5, zz=1.0, amplitude2=1.0)
    with pytest.raises(DegenerateFlowError):
        pf.eigenflows(T)


def test_timelike_eigenvector_may_belong_to_smaller_root():
    # diag(1, 2): (1, 0) is timelike with eigenvalue 1, (0, 1) spacelike with 2
    T = pf.StressTensor(tt=1.0, tz=0.0, zt=0.0, zz=2.0, amplitude2=1.0)
    flow = pf.eigenflows(T)
    assert flow.lambda_time == 1.0
    assert flow.lambda_space == 2.0
    assert flow.v == 0.0


# Draws whose discriminant falls below this fraction of (tr T)^2 are too
# close to a double root for an eigenvector comparison to mean anything.
ORACLE_DISC_MARGIN = 1e-8
gradients = st.floats(min_value=-5.0, max_value=5.0)


@settings(max_examples=300, deadline=None)
@given(
    pt=gradients, pz=gradients, st_=gradients, sz=gradients,
    p=st.floats(min_value=-2.0, max_value=2.0),
    m=st.floats(min_value=0.5, max_value=2.0),
)
def test_eigenflows_matches_dense_eigensolver(pt, pz, st_, sz, p, m):
    """The plain-float kernel agrees with np.linalg.eig on assembled tensors.

    Errors are measured in units of ||T|| / sqrt(disc), the conditioning
    of the eigenvectors; w carries the extra gamma^3 of d(gamma v)/dv.
    """
    ld = pf.LogDerivatives(
        p=p, s=0.0, p_t=(pt, 0.0), p_z=(pz, 0.0), s_t=(st_, 0.0), s_z=(sz, 0.0)
    )
    T = pf.assemble(ld, 1, m)
    tr = T.trace
    disc = tr * tr - 4.0 * T.det
    assume(disc >= ORACLE_DISC_MARGIN * tr * tr)
    vals, vecs = np.linalg.eig(T.as_matrix())
    assume(not np.iscomplexobj(vals))
    norms = vecs[0] * vecs[0] - vecs[1] * vecs[1]
    assume(int((norms > 0.0).sum()) == 1 and int((norms < 0.0).sum()) == 1)
    k = int(np.argmax(norms))
    v_ref = float(vecs[1, k] / vecs[0, k])
    assume(abs(v_ref) < VELOCITY_LIMIT)
    gamma = 1.0 / math.sqrt(1.0 - v_ref * v_ref)

    flow = pf.eigenflows(T)
    size = float(np.abs(T.as_matrix()).sum())
    tol = 1e-13 * size / math.sqrt(disc)
    assert abs(flow.v - v_ref) <= tol
    assert abs(flow.w.t - gamma) <= tol * gamma**3
    assert abs(flow.w.z - gamma * v_ref) <= tol * gamma**3
    assert abs(flow.lambda_time - vals[k]) <= tol * size
    assert abs(flow.lambda_space - vals[1 - k]) <= tol * size


def test_conservation_residual_decays_at_second_order(model, probe_point):
    for i in (1, 2):
        for nu in ("t", "z"):
            r1 = abs(pf.conservation_residual(model, probe_point, i, nu, 1e-4))
            r2 = abs(pf.conservation_residual(model, probe_point, i, nu, 5e-5))
            assert math.log2(r1 / r2) >= 1.9, (i, nu, r1, r2)
            assert r2 <= 5e-9


def test_conservation_negative_control(probe_point):
    """Detuning one frequency breaks the z-component divergence.

    The detuned mode still solves a wave equation with a shifted effective
    mass, which keeps the t-component conserved and leaves the analytic
    divergence d_z T^z_z = g(z2)^2 * 2 f f' * (w^2 - w'^2) in z.
    """
    delta = 0.1
    omega = math.sqrt(2.0)
    bad = pf.product_pair(
        pf.box_mode(1, L, 1.0, frequency=omega + delta), pf.box_mode(2, L, 1.0)
    )
    q = probe_point
    f = math.sqrt(2.0 / L) * math.sin(q.z1)
    fp = math.sqrt(2.0 / L) * math.cos(q.z1)
    g2 = (2.0 / L) * math.sin(2.0 * q.z2) ** 2
    expected = abs(g2 * 2.0 * f * fp * (2.0 * omega * delta + delta * delta))
    r1 = abs(pf.conservation_residual(bad, q, 1, "z", 1e-4))
    r2 = abs(pf.conservation_residual(bad, q, 1, "z", 5e-5))
    assert r1 == pytest.approx(expected, rel=1e-4)
    assert r2 > 0.9 * r1
    assert r1 > 1e-3
    # t-component alone would not catch the detuning
    assert abs(pf.conservation_residual(bad, q, 1, "t", 1e-4)) < 1e-9


def test_velocity_transforms_by_velocity_addition(model):
    """Boosted-frame guidance velocity is the relativistic sum."""
    alpha = pf.rapidity_from_velocity(0.3)
    primed = pf.boosted(model, alpha)
    for q, ld in _random_flows(model, 50, seed=23, t_span=1.0):
        qb = pf.boost_configuration(q, alpha)
        ldp = pf.log_derivatives(primed, qb)
        for i in (1, 2):
            v = pf.eigenflows(pf.assemble(ld, i, model.mass)).v
            vp = pf.eigenflows(pf.assemble(ldp, i, model.mass)).v
            assert vp == pytest.approx(
                pf.velocity_addition(v, -alpha.velocity), abs=1e-8
            )


def test_assemble_rejects_negative_mass(model, probe_point):
    ld = pf.log_derivatives(model, probe_point)
    with pytest.raises(ValueError):
        pf.assemble(ld, 1, -1.0)
