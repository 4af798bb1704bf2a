"""Equal-proper-time stepping, trajectory contracts, hyperplane sampling."""

import math

import numpy as np
import pytest

import properflow as pf
from properflow.errors import BoundaryError, NodeProximityError, SamplingError
from properflow.integrator import _timelike_lambda

L = math.pi
EPS = 0.01


class ShallowWell(pf.WaveModel):
    """Delegate with a raised node floor; forces a mid-run node abort."""

    def __init__(self, inner, floor):
        self.inner = inner
        self.mass = inner.mass
        self.well_width = inner.well_width
        self.amp2_floor = floor

    def fields(self, z1, t1, z2, t2):
        return self.inner.fields(z1, t1, z2, t2)

    def contains(self, z1, t1, z2, t2):
        return self.inner.contains(z1, t1, z2, t2)


class TimeCapped(pf.WaveModel):
    """Delegate whose domain ends at t1 = cap; forces a boundary abort."""

    def __init__(self, inner, cap):
        self.inner = inner
        self.cap = cap
        self.mass = inner.mass
        self.well_width = inner.well_width
        self.amp2_floor = inner.amp2_floor

    def fields(self, z1, t1, z2, t2):
        return self.inner.fields(z1, t1, z2, t2)

    def contains(self, z1, t1, z2, t2):
        return self.inner.contains(z1, t1, z2, t2) & (t1 < self.cap)


class Silent(pf.WaveModel):
    """Identically zero amplitude; sampling weight vanishes everywhere."""

    mass = 1.0
    well_width = L
    amp2_floor = 1.0

    def fields(self, z1, t1, z2, t2):
        zero = np.zeros_like(np.asarray(z1, dtype=complex))
        return zero, zero, zero, zero, zero

    def contains(self, z1, t1, z2, t2):
        return (z1 > 0.0) & (z1 < L) & (z2 > 0.0) & (z2 < L)


def _interval_errors(traj):
    """Relative error of dt^2 - dz^2 = eps^2 per particle per step."""
    arr = traj.configuration_array()
    eps2 = traj.epsilon**2
    worst = 0.0
    for it, iz in ((1, 0), (3, 2)):
        dt = np.diff(arr[:, it])
        dz = np.diff(arr[:, iz])
        worst = max(worst, float(np.max(np.abs(dt * dt - dz * dz - eps2))) / eps2)
    return worst


def test_rest_step_advances_time_only(model, rest_point):
    for scheme in ("euler", "midpoint"):
        q = pf.step(model, rest_point, EPS, scheme)
        assert q.t1 == pytest.approx(0.01, rel=1e-13)
        assert q.t2 == pytest.approx(0.01, rel=1e-13)
        assert q.z1 == pytest.approx(1.0, abs=1e-14)
        assert q.z2 == pytest.approx(2.0, abs=1e-14)


def test_moving_step_keeps_interval(model, moving_point):
    q = pf.step(model, moving_point, EPS, "midpoint")
    d1 = (q.t1 - moving_point.t1) ** 2 - (q.z1 - moving_point.z1) ** 2
    d2 = (q.t2 - moving_point.t2) ** 2 - (q.z2 - moving_point.z2) ** 2
    assert d1 == pytest.approx(EPS**2, rel=1e-10)
    assert d2 == pytest.approx(EPS**2, rel=1e-10)
    assert abs(q.z1 - moving_point.z1) > 0.0


def test_single_step_integration_matches_step(model, moving_point):
    traj = pf.integrate(model, moving_point, EPS, 1, "midpoint")
    assert traj.records[-1].q == pf.step(model, moving_point, EPS, "midpoint")
    assert traj.records[0].q == moving_point


def test_static_run_stays_coordinated(model, rest_point):
    """Equal-time start: zero velocities, equal times, frozen positions."""
    traj = pf.integrate(model, rest_point, EPS, 500, "midpoint")
    assert traj.termination == "completed"
    assert traj.completed
    assert len(traj.records) == 501
    for rec in traj.records:
        assert abs(rec.v1) < 1e-10 and abs(rec.v2) < 1e-10
        assert abs(rec.q.t1 - rec.q.t2) < 1e-10
        assert rec.q.z1 == pytest.approx(1.0, abs=1e-10)
        assert rec.q.z2 == pytest.approx(2.0, abs=1e-10)


def test_desynchronized_run_moves(model, moving_point):
    traj = pf.integrate(model, moving_point, EPS, 500, "midpoint")
    assert traj.termination == "completed"
    vmax = max(max(abs(r.v1), abs(r.v2)) for r in traj.records)
    assert vmax > 1e-3
    profile = pf.coordination_profile(traj)
    assert float(np.std(profile)) > 1e-4


def test_desynchronized_final_record_regression(model, moving_point):
    # pinned package output (midpoint, eps = 0.01, 500 steps)
    traj = pf.integrate(model, moving_point, EPS, 500, "midpoint")
    rec = traj.records[-1]
    assert rec.sigma == pytest.approx(5.0, rel=1e-12)
    assert rec.q.z1 == pytest.approx(1.749450418033428, rel=1e-9)
    assert rec.q.t1 == pytest.approx(6.127963880338711, rel=1e-9)
    assert rec.q.z2 == pytest.approx(0.9140980583209756, rel=1e-9)
    assert rec.q.t2 == pytest.approx(5.196989809234615, rel=1e-9)
    assert rec.v1 == pytest.approx(0.5119534970376943, rel=1e-9)
    assert rec.v2 == pytest.approx(0.11621753408560366, rel=1e-9)


def test_proper_time_contract(model, moving_point):
    for scheme in ("euler", "midpoint"):
        traj = pf.integrate(model, moving_point, EPS, 300, scheme)
        assert _interval_errors(traj) < 1e-10
        sigmas = [r.sigma for r in traj.records]
        assert np.allclose(np.diff(sigmas), EPS, rtol=1e-12)


def test_equal_time_persistence(model):
    traj = pf.integrate(model, pf.ConfigPoint(0.7, 0.0, 1.8, 0.0), EPS, 500, "midpoint")
    assert traj.termination == "completed"
    assert max(abs(d) for d in pf.coordination_profile(traj)) < 1e-10


def test_exchange_symmetry_of_trajectories(model):
    """Swapping the particles at the start swaps the world lines exactly."""
    fwd = pf.integrate(model, pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), EPS, 300, "midpoint")
    swp = pf.integrate(model, pf.ConfigPoint(2.0, 0.0, 1.0, 1.0), EPS, 300, "midpoint")
    for a, b in zip(fwd.records, swp.records):
        assert (a.q.z1, a.q.t1, a.v1) == (b.q.z2, b.q.t2, b.v2)
        assert (a.q.z2, a.q.t2, a.v2) == (b.q.z1, b.q.t1, b.v1)


def test_schemes_converge_to_each_other(model, moving_point):
    """Euler and midpoint agree in the limit at first order or better."""
    devs = []
    for eps in (0.02, 0.01, 0.005):
        n = round(1.0 / eps)
        qa = pf.integrate(model, moving_point, eps, n, "euler").records[-1].q
        qb = pf.integrate(model, moving_point, eps, n, "midpoint").records[-1].q
        devs.append(max(abs(qa.z1 - qb.z1), abs(qa.t1 - qb.t1),
                        abs(qa.z2 - qb.z2), abs(qa.t2 - qb.t2)))
    order = np.polyfit(np.log([0.02, 0.01, 0.005]), np.log(devs), 1)[0]
    assert order >= 0.9


def test_reverse_check_static(model, rest_point):
    traj = pf.integrate(model, rest_point, EPS, 200, "midpoint")
    assert pf.reverse_check(model, traj) < 1e-9


def test_reverse_check_scheme_order(model, moving_point):
    """Retrace error halves per epsilon-halving at the scheme's order.

    Midpoint actually gains an extra order on the round trip (its leading
    error term is odd in epsilon and cancels against the reversed pass),
    so the measured decay ratios sit near 0.125; euler sits near 0.5.
    """
    bounds = {"euler": 0.6, "midpoint": 0.35}
    for scheme, bound in bounds.items():
        devs = []
        for eps in (0.02, 0.01, 0.005):
            traj = pf.integrate(model, moving_point, eps, round(2.0 / eps), scheme)
            devs.append(pf.reverse_check(model, traj))
        assert devs[1] / devs[0] <= bound, (scheme, devs)
        assert devs[2] / devs[1] <= bound, (scheme, devs)


def test_reverse_check_needs_completed_trajectory(model, moving_point):
    capped = TimeCapped(model, 3.0)
    traj = pf.integrate(capped, moving_point, EPS, 500, "midpoint")
    with pytest.raises(ValueError):
        pf.reverse_check(capped, traj)


def test_node_abort_mid_run(model):
    """Density along this flow drops from 0.63 to 0.12; floor 0.3 cuts it."""
    shallow = ShallowWell(model, 0.3)
    q0 = pf.ConfigPoint(1.2094, 0.8573, 1.1181, 0.0)
    traj = pf.integrate(shallow, q0, EPS, 300, "midpoint")
    assert traj.termination == "node_abort"
    assert not traj.completed
    assert 1 < len(traj.records) < 301
    # partial records still honor the step contract
    assert _interval_errors(traj) < 1e-10


def test_boundary_abort_mid_run(model, moving_point):
    capped = TimeCapped(model, 3.0)
    traj = pf.integrate(capped, moving_point, EPS, 500, "midpoint")
    assert traj.termination == "boundary_abort"
    assert 1 < len(traj.records) < 501
    assert traj.records[-1].q.t1 < 3.0


def test_invalid_start_raises_instead_of_empty_trajectory(model):
    with pytest.raises(NodeProximityError):
        pf.integrate(model, pf.ConfigPoint(1e-7, 0.0, 2.0, 0.0), EPS, 10, "midpoint")
    with pytest.raises(BoundaryError):
        pf.integrate(model, pf.ConfigPoint(-0.5, 0.0, 2.0, 0.0), EPS, 10, "midpoint")


def test_integrate_validates_arguments(model, rest_point):
    with pytest.raises(ValueError):
        pf.integrate(model, rest_point, 0.0, 10, "midpoint")
    with pytest.raises(ValueError):
        pf.integrate(model, rest_point, -0.01, 10, "midpoint")
    with pytest.raises(ValueError):
        pf.integrate(model, rest_point, EPS, 0, "midpoint")
    with pytest.raises(ValueError):
        pf.integrate(model, rest_point, EPS, 10, "rk4")
    with pytest.raises(ValueError):
        pf.step(model, rest_point, EPS, "leapfrog")


def test_sampler_is_deterministic(model):
    a = pf.sample_hyperplane(model, 50, "eigenvalue", seed=3)
    b = pf.sample_hyperplane(model, 50, "eigenvalue", seed=3)
    assert a == b
    c = pf.sample_hyperplane(model, 1, "uniform", seed=9)
    d = pf.sample_hyperplane(model, 1, "uniform", seed=9)
    assert c == d and len(c) == 1
    assert all(q.t1 == 0.0 and q.t2 == 0.0 for q in a)
    assert all(0.0 < q.z1 < L and 0.0 < q.z2 < L for q in a)


def test_uniform_sampler_marginals(model):
    from scipy.stats import chi2

    points = pf.sample_hyperplane(model, 10_000, "uniform", seed=42)
    threshold = chi2.ppf(0.99, 9)
    for pick in (lambda q: q.z1, lambda q: q.z2):
        hist, _ = np.histogram([pick(q) for q in points], bins=10, range=(0.0, L))
        stat = np.sum((hist - 1000.0) ** 2 / 1000.0)
        assert stat < threshold


def test_eigenvalue_sampler_matches_integrated_weight(model):
    """Bin-occupancy ratio against the integrated eigenvalue product.

    Oracle: lambda1 * lambda2 integrated with the eigenflows route over
    each bin on a 120 x 120 midpoint grid (independent of the sampler's
    closed-form weights), frozen to
    mass([0.8,1.2) x [1.8,2.2)) / mass([1.4,1.8) x [0.6,1.0)) =
    0.22113501594942991.
    """
    oracle_ratio = 0.22113501594942991
    points = pf.sample_hyperplane(model, 100_000, "eigenvalue", seed=7)
    z1 = np.array([q.z1 for q in points])
    z2 = np.array([q.z2 for q in points])
    in_a = np.sum((z1 >= 0.8) & (z1 < 1.2) & (z2 >= 1.8) & (z2 < 2.2))
    in_b = np.sum((z1 >= 1.4) & (z1 < 1.8) & (z2 >= 0.6) & (z2 < 1.0))
    assert in_b > 0
    assert abs((in_a / in_b) / oracle_ratio - 1.0) < 0.10


def test_sampler_eigenvalue_formula_matches_eigenflows(model):
    """The sampler's array formula is the kernel's timelike eigenvalue."""
    rng = np.random.default_rng(31)
    points = []
    while len(points) < 500:
        q = pf.ConfigPoint(*(float(x) for x in rng.uniform((0.0, -2.0, 0.0, -2.0),
                                                           (L, 2.0, L, 2.0))))
        try:
            points.append((q, pf.log_derivatives(model, q)))
        except pf.FlowError:
            continue
    z1, t1, z2, t2 = (np.array(c) for c in zip(*((q.z1, q.t1, q.z2, q.t2)
                                                  for q, _ in points)))
    psi, dt1, dz1, dt2, dz2 = model.fields(z1, t1, z2, t2)
    a2 = psi.real**2 + psi.imag**2
    sampled = (
        _timelike_lambda(a2, dt1 / psi, dz1 / psi, model.mass),
        _timelike_lambda(a2, dt2 / psi, dz2 / psi, model.mass),
    )
    for i in (1, 2):
        kernel = np.array([pf.eigenflows(pf.assemble(ld, i, model.mass)).lambda_time
                           for _, ld in points])
        assert np.max(np.abs(sampled[i - 1] / kernel - 1.0)) <= 1e-12


def test_sampler_validates_arguments(model):
    with pytest.raises(ValueError):
        pf.sample_hyperplane(model, 0, "uniform", seed=1)
    with pytest.raises(ValueError):
        pf.sample_hyperplane(model, 10, "metropolis", seed=1)


def test_sampler_reports_vanishing_weight():
    with pytest.raises(SamplingError):
        pf.sample_hyperplane(Silent(), 5, "eigenvalue", seed=1)


def test_ensemble_members_never_share_a_record(model):
    """Distinct starts, distinct flow lines: no shared configuration."""
    points = pf.sample_hyperplane(model, 100, "eigenvalue", seed=5)
    assert len(set(points)) == 100
    floor = 10.0 * EPS * np.finfo(float).eps
    ensembles = [pf.integrate(model, q, EPS, 200, "midpoint") for q in points]
    seen = {}
    for member, traj in enumerate(ensembles):
        assert traj.termination == "completed"
        for rec in traj.records:
            key = (rec.q.z1, rec.q.t1, rec.q.z2, rec.q.t2)
            assert key not in seen or seen[key] == member
            seen[key] = member
    # pairwise separation at matching sigma stays above the rounding floor
    final = np.array([[t.records[-1].q.z1, t.records[-1].q.z2] for t in ensembles])
    for i in range(len(final)):
        for j in range(i + 1, len(final)):
            assert np.linalg.norm(final[i] - final[j]) > floor
