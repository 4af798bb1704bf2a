"""Frame-comparison machinery for the covariance claims.

A trajectory computed in frame Sigma, then boosted record by record, is
compared against the trajectory computed directly in the boosted frame
(boosted model, boosted initial point, same epsilon and scheme).  Records
are aligned by proper-time step index sigma, never by coordinate time.

Because the stepping rule advances each particle by proper time along its
own flow and both the boost and the velocity transformation are exact,
the discrete update commutes with the frame change: deviations measure
only floating-point noise, not a scheme-order residual.  A
covariance-breaking change to the integrator shows up as a frame
deviation above ``DEVIATION_FLOOR``, not as a fitted order:
coordinate-time steps (dt = epsilon, dz = v epsilon) deviate by about
0.38 at every epsilon of the acceptance study, a fitted order of -0.00.
The convergence study reports an order only when some deviation clears
the floor.

A run stops only at its step count, so the run at epsilon with n steps is
bit for bit the first n steps of a longer run at the same epsilon.  The
study therefore takes the deviation at a handed-over comparison's
epsilon from that comparison's first n + 1 records instead of
integrating both frames again; the comparison names the run it compared,
so one of another run is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np
from .errors import ComparisonFailure
from .minkowski import FourVector, Rapidity, boost, boost_coords
from .wavefield import ConfigPoint, WaveModel, boosted
from .integrator import DEFAULT_SCHEME, Scheme, Trajectory, integrate

# Deviations below this are rounding noise; no order is fitted to them.
DEVIATION_FLOOR = 1e-12


@dataclass(frozen=True)
class FrameComparison:
    """Per-step deviations between a boosted run and a boosted-frame run.

    per_step_deviation holds, for each sigma index, the larger of the two
    particles' Euclidean coordinate distances; per_particle_deviation
    keeps the (particle 1, particle 2) split for diagnostics.  model, q0
    and scheme name the run that was compared; the model is left out of
    ``==`` and ``repr``, where a model has no value of its own.
    """

    alpha: Rapidity
    epsilon: float
    max_deviation: float
    per_step_deviation: tuple[float, ...]
    per_particle_deviation: tuple[tuple[float, float], ...]
    model: WaveModel | None = field(default=None, compare=False, repr=False)
    q0: ConfigPoint | None = None
    scheme: str | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    """Deviation-versus-epsilon study; fitted_order is None when every
    deviation sits below the rounding floor and no order is defined."""

    epsilons: tuple[float, ...]
    deviations: tuple[float, ...]
    fitted_order: float | None


def boost_configuration(q: ConfigPoint, alpha: Rapidity) -> ConfigPoint:
    """Boost both particles' coordinates by the same rapidity."""
    p1 = boost(FourVector(t=q.t1, z=q.z1), alpha)
    p2 = boost(FourVector(t=q.t2, z=q.z2), alpha)
    return ConfigPoint(z1=p1.z, t1=p1.t, z2=p2.z, t2=p2.t)


def compare_frames(
    model: WaveModel,
    q0: ConfigPoint,
    alpha: Rapidity,
    epsilon: float,
    n_steps: int,
    scheme: Scheme = DEFAULT_SCHEME,
) -> FrameComparison:
    """Integrate in both frames and report step-aligned deviations.

    Raises ComparisonFailure when either run fails to complete; the
    message names both termination tags and the comparable prefix length.
    """
    base = integrate(model, q0, epsilon, n_steps, scheme)
    primed = integrate(
        boosted(model, alpha), boost_configuration(q0, alpha), epsilon, n_steps, scheme
    )
    if (
        not base.completed
        or not primed.completed
        or len(base.rows) != len(primed.rows)
    ):
        shorter = min(len(base.rows), len(primed.rows))
        raise ComparisonFailure(
            f"frames not comparable: base {base.termination!r} with "
            f"{len(base.rows)} records, boosted {primed.termination!r} with "
            f"{len(primed.rows)} records (comparable prefix {shorter})"
        )
    c, s = math.cosh(alpha.alpha), math.sinh(alpha.alpha)
    per_particle = []
    per_step = []
    for (z1, t1, z2, t2, *_), (zp1, tp1, zp2, tp2, *_) in zip(base.rows, primed.rows):
        tb1, zb1 = boost_coords(t1, z1, c, s)
        tb2, zb2 = boost_coords(t2, z2, c, s)
        d1 = math.hypot(tb1 - tp1, zb1 - zp1)
        d2 = math.hypot(tb2 - tp2, zb2 - zp2)
        per_particle.append((d1, d2))
        per_step.append(max(d1, d2))
    return FrameComparison(
        alpha=alpha,
        epsilon=epsilon,
        max_deviation=max(per_step),
        per_step_deviation=tuple(per_step),
        per_particle_deviation=tuple(per_particle),
        model=model,
        q0=q0,
        scheme=scheme,
    )


def step_count(epsilon: float, total_proper_time: float) -> int:
    """round(T / epsilon), after checking epsilon is positive and divides T
    to rounding accuracy; raises ValueError otherwise."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    n = round(total_proper_time / epsilon)
    if n < 1 or abs(n * epsilon - total_proper_time) > 1e-9 * total_proper_time:
        raise ValueError(
            f"epsilon {epsilon!r} does not divide total proper time {total_proper_time!r}"
        )
    return n


def convergence_study(
    model: WaveModel,
    q0: ConfigPoint,
    alpha: Rapidity,
    epsilons: list[float] | tuple[float, ...],
    total_proper_time: float,
    scheme: Scheme = DEFAULT_SCHEME,
    *,
    comparison: FrameComparison | None = None,
) -> ConvergenceReport:
    """Fit the frame-deviation order over a strictly decreasing epsilon list.

    Each epsilon must divide the total proper time to rounding accuracy;
    the step count is round(T / epsilon).  With every deviation under the
    rounding floor the order is reported as None (not applicable).

    ``comparison``, a ``compare_frames`` result for this model (the same
    object), start, boost and scheme, supplies the deviation at its
    epsilon when it holds at least that epsilon's n steps: the maximum
    over its first n + 1 records.  Any other epsilon is integrated.  A
    comparison of another run is a ValueError.
    """
    if comparison is not None and (
        comparison.model is not model
        or (comparison.q0, comparison.alpha, comparison.scheme) != (q0, alpha, scheme)
    ):
        raise ValueError(
            "comparison is of another run: it must have the study's model, "
            "start, boost and scheme"
        )
    eps = tuple(float(e) for e in epsilons)
    if len(eps) < 3:
        raise ValueError(f"need at least 3 epsilon values, got {len(eps)}")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError(f"epsilon list must be strictly decreasing, got {eps!r}")
    if not total_proper_time > 0.0:
        raise ValueError(f"total proper time must be positive, got {total_proper_time!r}")
    counts = [step_count(e, total_proper_time) for e in eps]
    deviations = []
    for e, n in zip(eps, counts):
        if (
            comparison is not None
            and comparison.epsilon == e
            and len(comparison.per_step_deviation) > n
        ):
            deviations.append(max(comparison.per_step_deviation[: n + 1]))
            continue
        try:
            comp = compare_frames(model, q0, alpha, e, n, scheme)
        except ComparisonFailure as err:
            raise ComparisonFailure(f"epsilon {e!r}: {err}") from err
        deviations.append(comp.max_deviation)
    if max(deviations) < DEVIATION_FLOOR:
        order = None
    else:
        logs = np.log([max(d, 1e-300) for d in deviations])
        order = float(np.polyfit(np.log(eps), logs, 1)[0])
    return ConvergenceReport(
        epsilons=eps, deviations=tuple(deviations), fitted_order=order
    )


def coordination_profile(traj: Trajectory) -> list[float]:
    """Time offset t1 - t2 at each record; constant zero for equal-time
    starts of a stationary flow, varying otherwise."""
    return [t1 - t2 for _, t1, _, t2, *_ in traj.rows]
