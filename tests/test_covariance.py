"""Frame comparisons: boosted runs against boosted trajectories.

The stepping rule is an explicit update of an autonomous configuration
flow, and a passive boost conjugates that flow linearly, so the update
commutes with boosts exactly: discrete trajectories computed in two
frames differ only by accumulated rounding, for every step size.  The
tests below pin that behavior (deviations at the 1e-15 scale, no
fittable order) rather than a truncation-order tail.
"""

import math

import numpy as np
import pytest

import properflow as pf
from properflow.covariance import step_count
from properflow.errors import ComparisonFailure

L = math.pi
BOOST = pf.rapidity_from_velocity(0.3)


def test_boost_configuration_is_per_particle():
    q = pf.ConfigPoint(0.9, 0.37, 2.2, -0.41)
    alpha = pf.Rapidity(0.5)
    moved = pf.boost_configuration(q, alpha)
    p1 = pf.boost(pf.FourVector(q.t1, q.z1), alpha)
    p2 = pf.boost(pf.FourVector(q.t2, q.z2), alpha)
    assert (moved.t1, moved.z1) == (p1.t, p1.z)
    assert (moved.t2, moved.z2) == (p2.t, p2.z)


def test_identity_boost_zero_deviation(model, moving_point):
    comp = pf.compare_frames(model, moving_point, pf.Rapidity(0.0), 0.01, 100, "midpoint")
    assert comp.max_deviation == 0.0
    assert all(d == 0.0 for d in comp.per_step_deviation)


def test_static_run_boosted_euler(model, rest_point):
    comp = pf.compare_frames(model, rest_point, BOOST, 0.01, 200, "euler")
    assert len(comp.per_step_deviation) == 201
    assert comp.max_deviation == max(comp.per_step_deviation)
    assert comp.max_deviation <= 1e-11


def test_moving_run_boosted_midpoint(model, moving_point):
    comp = pf.compare_frames(model, moving_point, BOOST, 0.01, 200, "midpoint")
    assert comp.max_deviation <= 1e-11
    assert comp.epsilon == 0.01
    assert comp.alpha == BOOST


def test_deviations_stay_at_rounding_level_for_all_step_sizes(model, moving_point):
    for scheme in ("euler", "midpoint"):
        report = pf.convergence_study(
            model, moving_point, BOOST, (0.02, 0.01, 0.005), 2.0, scheme
        )
        assert report.epsilons == (0.02, 0.01, 0.005)
        assert all(d <= 1e-11 for d in report.deviations)
        assert report.fitted_order is None


def test_static_convergence_study_below_floor(model, rest_point):
    report = pf.convergence_study(
        model, rest_point, BOOST, (0.02, 0.01, 0.005), 2.0, "midpoint"
    )
    assert all(d <= 1e-11 for d in report.deviations)
    assert report.fitted_order is None


def test_boost_composition(model, moving_point):
    """Boosting twice equals boosting once by the rapidity sum."""
    alpha, beta = pf.Rapidity(0.25), pf.Rapidity(0.2)
    q0 = moving_point
    staged_model = pf.boosted(pf.boosted(model, alpha), beta)
    staged_q = pf.boost_configuration(pf.boost_configuration(q0, alpha), beta)
    once_model = pf.boosted(model, alpha + beta)
    once_q = pf.boost_configuration(q0, alpha + beta)
    a = pf.integrate(staged_model, staged_q, 0.01, 200, "midpoint")
    b = pf.integrate(once_model, once_q, 0.01, 200, "midpoint")
    for ra, rb in zip(a.records, b.records):
        assert ra.q.z1 == pytest.approx(rb.q.z1, abs=1e-10)
        assert ra.q.t1 == pytest.approx(rb.q.t1, abs=1e-10)
        assert ra.q.z2 == pytest.approx(rb.q.z2, abs=1e-10)
        assert ra.q.t2 == pytest.approx(rb.q.t2, abs=1e-10)


def test_velocities_transform_step_by_step(model, moving_point):
    """Recorded primed velocities equal the velocity-addition transform."""
    base = pf.integrate(model, moving_point, 0.01, 300, "midpoint")
    primed = pf.integrate(
        pf.boosted(model, BOOST),
        pf.boost_configuration(moving_point, BOOST),
        0.01, 300, "midpoint",
    )
    for rb, rp in zip(base.records, primed.records):
        for vb, vp in ((rb.v1, rp.v1), (rb.v2, rp.v2)):
            assert vp == pytest.approx(
                pf.velocity_addition(vb, -BOOST.velocity), abs=1e-12
            )


def test_coordination_is_frame_dependent(model, rest_point):
    """Equal times in one frame tilt to a constant offset in another.

    For the static pair, t1' - t2' = sinh(alpha) (z2 - z1) = sinh(alpha).
    """
    primed = pf.integrate(
        pf.boosted(model, BOOST),
        pf.boost_configuration(rest_point, BOOST),
        0.01, 200, "midpoint",
    )
    profile = pf.coordination_profile(primed)
    expected = math.sinh(BOOST.alpha) * (rest_point.z2 - rest_point.z1)
    assert float(np.std(profile)) < 1e-10
    assert profile[0] == pytest.approx(expected, rel=1e-12)


def test_single_record_profile():
    q = pf.ConfigPoint(1.0, 0.8, 2.0, 0.3)
    rec = pf.StepRecord(sigma=0.0, q=q, v1=0.0, v2=0.0, lambda1=1.0, lambda2=1.0)
    traj = pf.Trajectory(epsilon=0.01, scheme="midpoint", records=(rec,),
                         termination="completed")
    assert pf.coordination_profile(traj) == [0.5]


def test_comparison_failure_when_frames_abort(model, moving_point):
    """A covariantly-capped domain aborts both frames; not comparable."""

    class TimeCapped(pf.WaveModel):
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

    capped = TimeCapped(model, 3.0)
    with pytest.raises(ComparisonFailure, match="boundary_abort"):
        pf.compare_frames(capped, moving_point, BOOST, 0.01, 500, "midpoint")


def test_convergence_study_validation(model, moving_point):
    with pytest.raises(ValueError):
        pf.convergence_study(model, moving_point, BOOST, (0.02, 0.01), 2.0)
    with pytest.raises(ValueError):
        pf.convergence_study(model, moving_point, BOOST, (0.01, 0.01, 0.005), 2.0)
    with pytest.raises(ValueError):
        pf.convergence_study(model, moving_point, BOOST, (0.02, 0.01, 0.003), 2.0)
    with pytest.raises(ValueError):
        pf.convergence_study(model, moving_point, BOOST, (0.02, 0.01, 0.005), -1.0)


def test_nonpositive_epsilon_is_rejected(model, moving_point):
    """A zero or negative epsilon is a ValueError, not a division by zero."""
    for epsilons in ((0.02, 0.01, 0.0), (0.02, 0.01, -0.01)):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            pf.convergence_study(model, moving_point, BOOST, epsilons, 2.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        step_count(0.0, 2.0)
