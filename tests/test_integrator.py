"""Equal-proper-time stepping, trajectory contracts, hyperplane sampling."""

import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

import properflow as pf
from properflow.errors import BoundaryError, FlowError, NodeProximityError, SamplingError
from properflow.integrator import (
    SCHEMES,
    _displace,
    _eigenvalue_weights,
    _flows,
    _weight_bound,
)
from properflow.stress_energy import null_flow

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


class Vanishing(pf.WaveModel):
    """Delegate whose amplitude vanishes from t1 = cap on.

    With ``domain`` the well region ends there too, so the first point past
    the cap trips the domain, node and flow guards at once; without it,
    the node and flow guards.
    """

    def __init__(self, inner, cap, domain):
        self.inner = inner
        self.cap = cap
        self.domain = domain
        self.mass = inner.mass
        self.well_width = inner.well_width
        self.amp2_floor = inner.amp2_floor

    def fields(self, z1, t1, z2, t2):
        alive = t1 < self.cap
        return tuple(alive * f for f in self.inner.fields(z1, t1, z2, t2))

    def contains(self, z1, t1, z2, t2):
        inside = self.inner.contains(z1, t1, z2, t2)
        return inside & (t1 < self.cap) if self.domain else inside


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


def _reference_flows(model, q):
    ld = pf.log_derivatives(model, q)
    return tuple(pf.eigenflows(pf.assemble(ld, i, model.mass)) for i in (1, 2))


def _reference_displace(q, v1, v2, eps, d):
    _, dt1, dz1 = pf.proper_step(v1, eps)
    _, dt2, dz2 = pf.proper_step(v2, eps)
    return pf.ConfigPoint(
        z1=q.z1 + d * dz1, t1=q.t1 + d * dt1, z2=q.z2 + d * dz2, t2=q.t2 + d * dt2
    )


def _reference_run(model, q0, eps, n_steps, scheme, direction=1):
    """(records, termination, absorbed error) through the public layers.

    log_derivatives -> assemble -> eigenflows -> proper_step -> ConfigPoint,
    with each layer's value object built and unpacked: an independent
    route, through the eigen solve, that the integrator's closed-form
    chain must reproduce to rounding.
    """
    d = float(direction)
    records, q = [], q0
    for j in range(n_steps + 1):
        try:
            f1, f2 = _reference_flows(model, q)
        except FlowError as err:
            if not records:
                raise
            return records, _reference_tag(err), err
        records.append(pf.StepRecord(j * eps, q, f1.v, f2.v, f1.lambda_time, f2.lambda_time))
        if j == n_steps:
            break
        try:
            v1, v2 = f1.v, f2.v
            if scheme == "midpoint":
                h1, h2 = _reference_flows(model, _reference_displace(q, v1, v2, 0.5 * eps, d))
                v1, v2 = h1.v, h2.v
            q = _reference_displace(q, v1, v2, eps, d)
            if not model.in_domain(q):
                raise BoundaryError(f"step left the well region at {q}")
        except FlowError as err:
            return records, _reference_tag(err), err
    return records, "completed", None


def _reference_tag(err):
    if isinstance(err, NodeProximityError):
        return "node_abort"
    if isinstance(err, BoundaryError):
        return "boundary_abort"
    return "degenerate_abort"


def _absorbed_error(model, last, eps, scheme):
    """The error integrate absorbed after record ``last``, via public steps.

    Stepping from the last record either fails inside that step or lands
    on the point whose evaluation failed, where the next step fails first.
    """
    with pytest.raises(FlowError) as info:
        pf.step(model, pf.step(model, last, eps, scheme), eps, scheme)
    return info.value


def _interval_errors(traj):
    """Relative error of dt^2 - dz^2 = eps^2 per particle per step."""
    arr = np.array(traj.rows)[:, :4]
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


# Clock-offset starts with |t1 - t2| in [0.5, 1.5], away from both node lines.
OFFSET_STARTS = (
    pf.ConfigPoint(1.0, 1.0, 2.0, 0.0),
    pf.ConfigPoint(0.9, -0.3, 2.2, 0.6),
    pf.ConfigPoint(1.1, 0.75, 1.95, -0.5),
    pf.ConfigPoint(0.85, 1.4, 2.25, 0.1),
    pf.ConfigPoint(1.2, -1.0, 2.05, 0.45),
)


def _reference_trajectory(records, termination, scheme):
    return pf.Trajectory(EPS, scheme, rows=[_row(r) for r in records], termination=termination)


def test_integrate_matches_reference_route(model):
    """The float chain reproduces the public layers to rounding."""
    for q0 in OFFSET_STARTS:
        for scheme in SCHEMES:
            traj = pf.integrate(model, q0, EPS, 150, scheme)
            records, termination, _ = _reference_run(model, q0, EPS, 150, scheme)
            assert traj.termination == termination == "completed"
            _assert_same_run(traj, _reference_trajectory(records, termination, scheme))
            back, termination, _ = _reference_run(
                model, records[-1].q, EPS, 150, scheme, direction=-1
            )
            assert termination == "completed"
            worst = max(
                max(math.hypot(b.q.t1 - f.q.t1, b.q.z1 - f.q.z1),
                    math.hypot(b.q.t2 - f.q.t2, b.q.z2 - f.q.z2))
                for b, f in zip(back, reversed(records))
            )
            assert pf.reverse_check(model, traj) == pytest.approx(worst, abs=1e-12)


def test_backward_step_matches_reference_route(model):
    """step(direction=-1) is the reference route's first backward point, to
    rounding; any other direction is rejected."""
    for q0 in OFFSET_STARTS:
        for scheme in SCHEMES:
            records, termination, _ = _reference_run(model, q0, EPS, 1, scheme, direction=-1)
            assert termination == "completed"
            back = pf.step(model, q0, EPS, scheme, direction=-1)
            assert astuple(back) == pytest.approx(
                astuple(records[1].q), rel=1e-12, abs=1e-12
            ), (q0, scheme)
    for direction in (0, 2):
        with pytest.raises(ValueError, match="direction must be"):
            pf.step(model, OFFSET_STARTS[0], EPS, direction=direction)


def test_aborts_match_reference_route(model):
    """Same records to rounding, same tag, record count and absorbed error
    message when a run aborts."""
    cases = (
        (ShallowWell(model, 0.3), pf.ConfigPoint(1.2094, 0.8573, 1.1181, 0.0), 300,
         "node_abort", NodeProximityError),
        (TimeCapped(model, 3.0), pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), 500,
         "boundary_abort", BoundaryError),
    )
    for capped, q0, n_steps, tag, error in cases:
        for scheme in SCHEMES:
            traj = pf.integrate(capped, q0, EPS, n_steps, scheme)
            records, termination, err = _reference_run(capped, q0, EPS, n_steps, scheme)
            assert traj.termination == termination == tag
            _assert_same_run(traj, _reference_trajectory(records, termination, scheme))
            absorbed = _absorbed_error(capped, records[-1].q, EPS, scheme)
            assert type(absorbed) is type(err) and isinstance(err, error)
            assert str(absorbed) == str(err)
    for q0, error in ((pf.ConfigPoint(1e-7, 0.0, 2.0, 0.0), NodeProximityError),
                      (pf.ConfigPoint(-0.5, 0.0, 2.0, 0.0), BoundaryError)):
        with pytest.raises(error) as fast:
            pf.integrate(model, q0, EPS, 10, "midpoint")
        with pytest.raises(error) as reference:
            _reference_run(model, q0, EPS, 10, "midpoint")
        assert str(fast.value) == str(reference.value)


def _assert_same_run(batched, single):
    """Same tag and record count, records equal to 1e-12 relative."""
    assert batched.termination == single.termination
    assert len(batched.records) == len(single.records)
    for b, s in zip(batched.records, single.records):
        assert b.sigma == s.sigma
        assert _row(b) == pytest.approx(_row(s), rel=1e-12, abs=1e-12)


def _row(rec):
    return (*astuple(rec.q), rec.v1, rec.v2, rec.lambda1, rec.lambda2)


def test_lockstep_matches_integrate(model):
    """A batch of moving members reproduces each single-start run."""
    for scheme in SCHEMES:
        batch = list(pf.integrate(model, OFFSET_STARTS, EPS, 300, scheme))
        assert len(batch) == len(OFFSET_STARTS)
        for q0, traj in zip(OFFSET_STARTS, batch):
            assert traj.records[0].q == q0
            _assert_same_run(traj, pf.integrate(model, q0, EPS, 300, scheme))
            assert traj.completed and max(abs(r.v1) for r in traj.records) > 0.1


def test_lockstep_aborts_match_integrate(model):
    """Members freeze at their own abort while the rest run on.

    Frozen members keep being evaluated at points where the fields vanish
    or leave the well; the run must not raise numpy warnings there, which
    the test configuration turns into errors.
    """
    cases = (
        (ShallowWell(model, 0.15),
         (pf.ConfigPoint(1.2094, 0.8573, 1.1181, 0.0),) + OFFSET_STARTS[:1] + OFFSET_STARTS[2:],
         {"node_abort", "completed"}),
        (TimeCapped(model, 3.0), OFFSET_STARTS, {"boundary_abort", "completed"}),
    )
    for capped, starts, tags in cases:
        for scheme in SCHEMES:
            batch = list(pf.integrate(capped, starts, EPS, 300, scheme))
            assert {traj.termination for traj in batch} == tags
            for q0, traj in zip(starts, batch):
                _assert_same_run(traj, pf.integrate(capped, q0, EPS, 300, scheme))


def test_lockstep_takes_guards_in_float_order(model):
    """Where several guards trip at once, the tag is the float chain's:
    domain before node before flow."""
    for domain, tag in ((True, "boundary_abort"), (False, "node_abort")):
        vanishing = Vanishing(model, 2.0, domain)
        for scheme in SCHEMES:
            batch = list(pf.integrate(vanishing, OFFSET_STARTS, EPS, 300, scheme))
            assert {traj.termination for traj in batch} == {tag}
            for q0, traj in zip(OFFSET_STARTS, batch):
                _assert_same_run(traj, pf.integrate(vanishing, q0, EPS, 300, scheme))


def test_lockstep_start_failure_raises_like_integrate(model):
    """The members before a failing start arrive; then its own error."""
    shallow = ShallowWell(model, 0.15)
    cases = (
        (shallow, OFFSET_STARTS, 1, NodeProximityError),
        (model, OFFSET_STARTS[:3] + (pf.ConfigPoint(0.0, 0.0, 2.0, 0.0),), 3, BoundaryError),
    )
    for wave, starts, bad, error in cases:
        members = pf.integrate(wave, starts, EPS, 50, "midpoint")
        for q0 in starts[:bad]:
            _assert_same_run(next(members), pf.integrate(wave, q0, EPS, 50, "midpoint"))
        with pytest.raises(error) as batched:
            next(members)
        with pytest.raises(error) as single:
            pf.integrate(wave, starts[bad], EPS, 50, "midpoint")
        assert str(batched.value) == str(single.value)


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


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m, q: pf.integrate(m, q, EPS, True), id="integrate-bool-steps"),
        pytest.param(lambda m, q: pf.integrate(m, [q], EPS, True), id="lockstep-bool-steps"),
        pytest.param(lambda m, q: pf.integrate(m, q, EPS, 3.0), id="integrate-float-steps"),
        pytest.param(lambda m, q: pf.sample_hyperplane(m, True), id="sampler-bool-count"),
        pytest.param(lambda m, q: pf.sample_hyperplane(m, 3.0), id="sampler-float-count"),
    ],
)
def test_counts_must_be_integers_but_not_bools(model, rest_point, call):
    with pytest.raises(ValueError, match="must be a positive integer, got"):
        call(model, rest_point)


@pytest.mark.parametrize("seed", [2.7, True, -1, "3", None])
def test_sampler_seed_must_be_a_nonnegative_integer(model, seed):
    """No seed is truncated or coerced: 2.7 would draw seed 2's points and
    True seed 1's."""
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got"):
        pf.sample_hyperplane(model, 3, "uniform", seed=seed)


def test_sampler_accepts_numpy_integer_seeds(model):
    assert pf.sample_hyperplane(model, 3, seed=np.uint8(2)) == pf.sample_hyperplane(
        model, 3, seed=2
    )


def test_trajectory_records_are_built_from_rows_on_first_read(model, moving_point):
    traj = pf.integrate(model, moving_point, EPS, 5, "midpoint")
    assert "records" not in vars(traj)
    assert traj.records is traj.records
    rows = [astuple(r.q) + (r.v1, r.v2, r.lambda1, r.lambda2) for r in traj.records]
    assert rows == list(traj.rows)
    assert [r.sigma for r in traj.records] == [j * EPS for j in range(6)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m, q, n: pf.integrate(m, q, EPS, n), id="integrate"),
        pytest.param(lambda m, q, n: list(pf.integrate(m, [q, q], EPS, n)), id="lockstep"),
        pytest.param(lambda m, q, n: pf.sample_hyperplane(m, n, "eigenvalue", 4), id="sampler"),
    ],
)
def test_numpy_integer_counts_are_accepted(model, moving_point, call):
    assert call(model, moving_point, np.int64(3)) == call(model, moving_point, 3)


INT_START_SCRIPT = """
import math, sys
import properflow as pf
model = pf.entangled_pair(pf.box_mode(1, math.pi, 1.0), pf.box_mode(2, math.pi, 1.0))
for scheme in ("midpoint", "euler"):
    ints = pf.integrate(model, pf.ConfigPoint(1, 1, 2, 0), 0.01, 3, scheme)
    floats = pf.integrate(model, pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), 0.01, 3, scheme)
    assert repr(ints) == repr(floats), (ints, floats)
    stepped = pf.step(model, pf.ConfigPoint(1, 1, 2, 0), 0.01, scheme)
    assert repr(stepped) == repr(pf.step(model, pf.ConfigPoint(1.0, 1.0, 2.0, 0.0), 0.01, scheme))
print("numpy" in sys.modules)
"""


def test_integer_start_takes_the_float_path():
    """An integer start is coerced to floats once: its run never imports
    numpy and records exactly what the float start records."""
    proc = subprocess.run(
        [sys.executable, "-c", INT_START_SCRIPT], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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
    """The sampler's closed-form eigenvalues, on arrays, are the reference
    route's timelike eigenvalues."""
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
    _, lam1, _, lam2, fault, _, _ = _flows(model, z1, t1, z2, t2)
    assert not fault.any()
    for i, sampled in ((1, lam1), (2, lam2)):
        kernel = np.array([pf.eigenflows(pf.assemble(ld, i, model.mass)).lambda_time
                           for _, ld in points])
        assert np.max(np.abs(sampled / kernel - 1.0)) <= 1e-12


def test_sampler_validates_arguments(model):
    with pytest.raises(ValueError):
        pf.sample_hyperplane(model, 0, "uniform", seed=1)
    with pytest.raises(ValueError):
        pf.sample_hyperplane(model, 10, "metropolis", seed=1)


def test_sampler_reports_vanishing_weight():
    with pytest.raises(SamplingError):
        pf.sample_hyperplane(Silent(), 5, "eigenvalue", seed=1)


def _pair(L, m, n_a, n_b):
    return pf.entangled_pair(pf.box_mode(n_a, L, m), pf.box_mode(n_b, L, m))


def _bound_states():
    pairs = [_pair(L, 1.0, 1, 2), _pair(2.0, 0.0, 1, 3), _pair(5.0, 2.5, 2, 5),
             _pair(L, 1.0, 3, 1)]
    mode = [pf.box_mode(n, L, 1.0) for n in (1, 2, 3)]
    three = pf.ModeSum(((mode[0], mode[1]), (mode[1], mode[0]), (mode[0], mode[2])))
    return pairs + [pf.boosted(p, pf.Rapidity(0.7)) for p in pairs] + [three]


@pytest.mark.parametrize("state", _bound_states())
def test_blocked_weight_bound_equals_one_pass(state):
    """The grid evaluated in row blocks gives exactly the one-pass bound."""
    g = np.linspace(0.0, state.well_width, 241)[1:-1]
    one_pass = 1.25 * float(np.max(_eigenvalue_weights(state, g[None, :], g[:, None])))
    assert _weight_bound(state) == one_pass


@pytest.mark.parametrize("state", _bound_states())
def test_closed_form_matches_reference_route(state):
    """At 500 random node-free points, the run path's closed-form v and
    lambda equal the eigen solve's: v to 1e-13, lambda to 1e-12 relative,
    or 1e-11 for m = 0, where lambda = D- D+ and the trace cancels."""
    rng = np.random.default_rng(97)
    width, rel = state.well_width, (1e-12 if state.mass > 0.0 else 1e-11)
    compared = 0
    while compared < 500:
        q = pf.ConfigPoint(*(float(x) for x in rng.uniform((0.0, -2.0, 0.0, -2.0),
                                                           (width, 2.0, width, 2.0))))
        try:
            ld = pf.log_derivatives(state, q)
            ref = [pf.eigenflows(pf.assemble(ld, i, state.mass)) for i in (1, 2)]
        except pf.FlowError:
            continue
        v1, lam1, v2, lam2, _, _, _ = _flows(state, *astuple(q))
        assert (v1, v2) == pytest.approx((ref[0].v, ref[1].v), rel=0.0, abs=1e-13), q
        assert (lam1, lam2) == pytest.approx(
            (ref[0].lambda_time, ref[1].lambda_time), rel=rel, abs=0.0
        ), q
        compared += 1


def _null_derivatives(d_minus, d_plus, phase_minus, phase_plus):
    """Complex (d_t, d_z) with d_t -+ d_z = D-+ e^{i phase-+}, to rounding."""
    a = d_minus * np.exp(1j * phase_minus)
    b = d_plus * np.exp(1j * phase_plus)
    return 0.5 * (b + a), 0.5 * (b - a)


def test_step_factor_is_exact_up_to_the_light_speed_guard():
    """The run path's e^a = sqrt(D-/D+), on floats and on arrays, and the
    (dt, dz) ``_displace`` makes from it, against 50 digits from the D-+
    each path sees, at 20,000 draws with D-/D+ log-uniform in
    [1e-8.5, 1e8.5], so |v| reaches past 1 - 1e-8.

    The bounds are stated from the rounding, before any run: e^a takes
    one division and one square root, each correctly rounded, so its
    relative error is at most u + u/2 with u = 2**-53 (1.7e-16): bound
    2e-16.  dv = h e^a and du = h / e^a add one rounding each, and their
    sum or difference one more, so dt and dz stay within (e^a's error
    + 2u) times dt (3.9e-16): bound 5e-16 times dt.  A factor rebuilt
    from v as exp(artanh v) cancels in 1 - v and misses by ~1e-8.
    """
    import mpmath

    rng = np.random.default_rng(2701)
    n = 20_000
    ratio = 10.0 ** rng.uniform(-8.5, 8.5, n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    d_t, d_z = _null_derivatives(scale * np.sqrt(ratio), scale / np.sqrt(ratio),
                                 *rng.uniform(-math.pi, math.pi, (2, n)))
    m2a2 = 1e-3 * scale * scale
    h = 0.01
    _, v_arr, ea_arr, bad = null_flow(m2a2, d_t, d_z)
    assert not bad.any()
    assert np.max(np.abs(v_arr)) > 1.0 - 1e-8
    arr_minus, arr_plus = np.abs(d_t - d_z), np.abs(d_t + d_z)

    def ratio_root(d_minus, d_plus):
        return mpmath.sqrt(mpmath.mpf(float(d_minus)) / mpmath.mpf(float(d_plus)))

    worst_ea = worst_step = 0.0
    with mpmath.workdps(50):
        for i in range(n):
            dt_i, dz_i = complex(d_t[i]), complex(d_z[i])
            _, _, ea, _ = null_flow(float(m2a2[i]), dt_i, dz_i)
            exact = ratio_root(abs(dt_i - dz_i), abs(dt_i + dz_i))
            exact_arr = ratio_root(arr_minus[i], arr_plus[i])
            worst_ea = max(worst_ea, float(abs(ea - exact) / exact),
                           float(abs(ea_arr[i] - exact_arr) / exact_arr))
            dz, dt = _displace((0.0, 0.0, 0.0, 0.0), ea, ea, h)[:2]
            dt_exact, dz_exact = h * (exact + 1 / exact) / 2, h * (exact - 1 / exact) / 2
            miss = max(abs(dt - dt_exact), abs(dz - dz_exact))
            worst_step = max(worst_step, float(miss / dt_exact))
    assert worst_ea <= 2e-16
    assert worst_step <= 5e-16


@pytest.mark.parametrize("h", [EPS, 0.5 * EPS, 0.37, 1e-6])
def test_displacement_is_one_formula_for_floats_and_arrays(h):
    """From the same e^a, ``_displace`` gives the same bits on floats and on
    1-element arrays; negating h negates all four increments exactly; and
    each step's interval dt^2 - dz^2, taken exactly, is h^2 within
    1e-15 (dt^2 + dz^2): du and dv carry one rounding each and dt and dz
    one more, so the miss is at most ~8u (dt^2 + dz^2), u = 2**-53.
    Relative to h^2 no such bound holds: at e^a = 1e4, dt^2 is 2.5e7 h^2,
    and one rounding of dt moves the interval by ~5e-9 h^2."""
    rng = np.random.default_rng(2702)
    origin = (0.0, 0.0, 0.0, 0.0)
    for ea1, ea2 in 10.0 ** rng.uniform(-4.25, 4.25, (200, 2)):
        floats = _displace(origin, float(ea1), float(ea2), h)
        arrays = _displace(tuple(np.zeros(1) for _ in origin), np.array([ea1]),
                           np.array([ea2]), h)
        assert floats == tuple(float(a[0]) for a in arrays)
        assert _displace(origin, float(ea1), float(ea2), -h) == tuple(-d for d in floats)
        dz1, dt1, dz2, dt2 = map(Fraction, floats)
        for dt, dz in ((dt1, dz1), (dt2, dz2)):
            assert abs(dt * dt - dz * dz - Fraction(h) ** 2) <= 1e-15 * (dt * dt + dz * dz)


class NanAtOnePoint(pf.ModeSum):
    """fig2's pair with Psi = nan at one grid point, (grid[3], grid[200])."""

    GRID = np.linspace(0.0, L, 241)[1:-1]

    def fields(self, z1, t1, z2, t2):
        psi, *grads = super().fields(z1, t1, z2, t2)
        hole = (z1 == self.GRID[3]) & (z2 == self.GRID[200])
        return (np.where(hole, np.nan, psi), *grads)


def test_nan_weight_in_a_late_block_is_an_error(model):
    """A NaN weight anywhere on the grid makes the bound fail, whichever
    block holds it."""
    state = NanAtOnePoint(model.terms)
    hole = re.escape(f"({float(state.GRID[3])!r}, {float(state.GRID[200])!r})")
    with pytest.raises(SamplingError, match=f"not finite at \\(z1, z2\\) = {hole}"):
        _weight_bound(state)
    with pytest.raises(SamplingError):
        pf.sample_hyperplane(state, 5, "eigenvalue", seed=1)


def test_eigenvalue_sample_peak_memory_stays_small(model):
    """No array pass of the sampler holds the whole 239 x 239 grid."""
    pf.sample_hyperplane(model, 1, "eigenvalue", seed=3)
    tracemalloc.start()
    try:
        pf.sample_hyperplane(model, 500, "eigenvalue", seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_uniform_sampler_stays_inside_a_boosted_well(model):
    """On the t' = 0 plane a boosted well is 0 < z' cosh(alpha) < L: every
    uniform start lies there, and an unboosted model gets its first draw."""
    alpha = 0.5
    points = pf.sample_hyperplane(pf.boosted(model, pf.Rapidity(alpha)), 2000, seed=4)
    z = np.array([(q.z1, q.z2) for q in points])
    assert len(points) == 2000 and (z > 0.0).all() and (z * math.cosh(alpha) < L).all()
    draws = np.random.default_rng(4).uniform(0.0, L, size=(2000, 2))
    assert pf.sample_hyperplane(model, 2000, seed=4) == [
        pf.ConfigPoint(float(a), 0.0, float(b), 0.0) for a, b in draws
    ]


def test_unboosted_uniform_sample_is_the_first_draw_across_chunks(model):
    """5,000 points span two proposal chunks and are still the seed's first
    (5000, 2) draw: kept points follow the stream order."""
    draws = np.random.default_rng(8).uniform(0.0, L, size=(5000, 2))
    assert pf.sample_hyperplane(model, 5000, "uniform", seed=8) == [
        pf.ConfigPoint(float(a), 0.0, float(b), 0.0) for a, b in draws
    ]


def test_boosted_uniform_sample_is_seeded_and_uniform_in_the_well(model):
    """A boosted uniform sample reruns identically, lies in
    0 < z cosh(alpha) < L, and its z-means sit within 4 sigma of the
    well's midpoint L / (2 cosh alpha)."""
    alpha, n = 0.5, 4000
    moving = pf.boosted(model, pf.Rapidity(alpha))
    points = pf.sample_hyperplane(moving, n, seed=4)
    assert pf.sample_hyperplane(moving, n, seed=4) == points
    z = np.array([(q.z1, q.z2) for q in points])
    assert len(points) == n and (z > 0.0).all() and (z * math.cosh(alpha) < L).all()
    width = L / math.cosh(alpha)
    sigma = width / math.sqrt(12.0 * n)
    assert (np.abs(z.mean(axis=0) - width / 2.0) < 4.0 * sigma).all()


class Closed(Silent):
    """A well that holds no point of the t1 = t2 = 0 plane."""

    def contains(self, z1, t1, z2, t2):
        return np.zeros(np.broadcast(z1, z2).shape, dtype=bool)


def test_uniform_sampler_gives_up_after_its_budget():
    with pytest.raises(SamplingError, match="exhausted 10000 proposals for 1 points"):
        pf.sample_hyperplane(Closed(), 1, "uniform", seed=1)


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
