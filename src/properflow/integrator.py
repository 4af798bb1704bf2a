"""Equal-proper-time trajectory integration and hyperplane sampling.

Each iteration evaluates both particles' eigenflow velocities at the
current configuration and advances every particle by the same proper-time
increment epsilon along its own flow direction, so particle i moves by
(dt, dz) = epsilon (cosh a_i, sinh a_i).  Both schemes are stage-wise
proper-time steps: euler uses the velocities at the current point,
midpoint re-evaluates them at the half-step epsilon/2 before advancing.

Evaluation failures (node proximity, degenerate eigenstructure, leaving
the well) do not propagate out of ``integrate``; the partial trajectory is
returned with a termination tag naming the cause, the ``tag`` of the
error's class.

The per-point chain runs on plain floats: ``log_ratios`` (domain guard,
fields, node guard, log-gradient ratios), then ``tensor_entries`` and
``flow_entries`` per particle, and ``null_step`` per displacement.  These
float kernels are the bodies of the public ``log_derivatives``,
``assemble``, ``eigenflows`` and ``proper_step``, which wrap their tuples
in value objects, so both routes give the same bits.

An ensemble runs in lockstep: ``integrate`` given a sequence of starts
instead of one ``ConfigPoint`` steps every member at once as numpy arrays
through the same kernels, which choose their path by input type.  There
each guard is a mask instead of an exception; a member stops recording
at its first fault, tagged by the guard the float chain would have met
first (domain, node, particle 1's flow, particle 2's flow), and agrees
with a single-start run to rounding.  The sampler's eigenvalue weights
come from the same array kernels.

Both loops share one step and one record builder.  ``_advance`` holds
the midpoint stage and the displacement for floats and arrays alike.  A
step that leaves the well is caught, in both loops, by the domain guard
of the next evaluation, which ends the run with ``boundary_abort`` after
the last point inside; only the public ``step``, which evaluates nothing
after it, checks the point it reaches itself.  Each loop appends rows
(z1, t1, z2, t2, v1, v2, lambda1, lambda2), and ``_trajectory`` builds
the ``StepRecord``s from them once, at the end.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Literal

from ._numpy import np
from .errors import (
    BoundaryError,
    FlowError,
    NodeProximityError,
    SamplingError,
)
from .minkowski import null_step
from .stress_energy import characteristic, flow_entries, tensor_entries
from .wavefield import ConfigPoint, WaveModel, log_ratios

Scheme = Literal["euler", "midpoint"]
SCHEMES: tuple[str, ...] = ("euler", "midpoint")

# The error classes a run absorbs, each naming its termination tag; a
# lockstep fault index is 1 + the position here (0 while running).
_ABORTS = (NodeProximityError, FlowError, BoundaryError)
TERMINATIONS: tuple[str, ...] = ("completed",) + tuple(err.tag for err in _ABORTS)
_NODE, _DEGENERATE, _BOUNDARY = range(1, len(_ABORTS) + 1)

DEFAULT_SCHEME: Scheme = "midpoint"

# Rejection sampling gives up after this many proposals per requested point.
_ATTEMPTS_PER_POINT = 10_000
_PROPOSAL_CHUNK = 4096


@dataclass(frozen=True)
class StepRecord:
    """State captured at one proper-time label sigma.

    v1, v2 and lambda1, lambda2 are the flow velocities and timelike
    eigenvalues evaluated at q itself.
    """

    sigma: float
    q: ConfigPoint
    v1: float
    v2: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class Trajectory:
    epsilon: float
    scheme: str
    records: tuple[StepRecord, ...]
    termination: str

    @property
    def completed(self) -> bool:
        return self.termination == "completed"

    @property
    def exit_code(self) -> int:
        """0 when completed, else the ``exit_code`` of the error class whose
        ``tag`` ended the run."""
        if self.completed:
            return 0
        return _ABORTS[TERMINATIONS.index(self.termination) - 1].exit_code

    def configuration_array(self) -> np.ndarray:
        """(n_records, 4) array of (z1, t1, z2, t2) rows."""
        return np.array([[r.q.z1, r.q.t1, r.q.z2, r.q.t2] for r in self.records])


def _flow(p, r_t, r_z, m: float):
    """``flow_entries`` from a particle's log-gradient ratios."""
    tt, tz, zt, zz, _ = tensor_entries(p, r_t.real, r_z.real, r_t.imag, r_z.imag, m)
    return flow_entries(tt, tz, zt, zz)


def _flows(model: WaveModel, z1: float, t1: float, z2: float, t2: float):
    """(v1, lambda1, v2, lambda2, 0) at one configuration point; the 0
    stands for ``_array_flows``' fault, as a float guard raises instead."""
    _, p, r1t, r1z, r2t, r2z = log_ratios(model, z1, t1, z2, t2)
    m = model.mass
    lam1, _, v1 = _flow(p, r1t, r1z, m)
    lam2, _, v2 = _flow(p, r2t, r2z, m)
    return v1, lam1, v2, lam2, 0


def _array_flows(model: WaveModel, z1, t1, z2, t2):
    """(v1, lambda1, v2, lambda2, fault) at arrays of configuration points.

    fault is, per point, the index in TERMINATIONS of the tag the float
    chain would give there (0 where every guard passes), taking the guards
    in the float chain's order: domain, node, then each particle's flow.
    """
    _, p, r1t, r1z, r2t, r2z, outside, node = log_ratios(model, z1, t1, z2, t2)
    # Both particles in one pass, particle 1's entries first: half the
    # numpy calls, the same values.
    n = len(p)
    lam, _, v, bad = _flow(
        np.concatenate((p, p)),
        np.concatenate((r1t, r2t)),
        np.concatenate((r1z, r2z)),
        model.mass,
    )
    flow = _DEGENERATE * (bad[:n] | bad[n:])
    fault = np.where(outside, _BOUNDARY, np.where(node, _NODE, flow))
    return v[:n], lam[:n], v[n:], lam[n:], fault


def _displace(q, v1, v2, epsilon, d):
    """q = (z1, t1, z2, t2) after each particle's null step of proper time
    epsilon, forward (d = 1) or backward (d = -1); floats or arrays."""
    z1, t1, z2, t2 = q
    _, _, dt1, dz1 = null_step(v1, epsilon)
    _, _, dt2, dz2 = null_step(v2, epsilon)
    return z1 + d * dz1, t1 + d * dt1, z2 + d * dz2, t2 + d * dt2


def _advance(flows, model, q, v1, v2, epsilon, scheme, d):
    """(q one step on, midpoint stage's fault) from q = (z1, t1, z2, t2) with
    velocities v1, v2 there; flows is ``_flows`` or ``_array_flows``.

    euler steps along v1, v2; midpoint along the velocities at the half
    step, whose evaluation gives the fault (always 0 for euler).
    """
    fault = 0
    if scheme == "midpoint":
        v1, _, v2, _, fault = flows(model, *_displace(q, v1, v2, 0.5 * epsilon, d))
    return _displace(q, v1, v2, epsilon, d), fault


def _trajectory(rows, epsilon: float, scheme: str, end: str) -> Trajectory:
    """Trajectory from rows (z1, t1, z2, t2, v1, v2, lambda1, lambda2), the
    j-th at sigma = j * epsilon, ended by the termination tag end."""
    records = tuple(
        StepRecord(j * epsilon, ConfigPoint(z1, t1, z2, t2), v1, v2, lam1, lam2)
        for j, (z1, t1, z2, t2, v1, v2, lam1, lam2) in enumerate(rows)
    )
    return Trajectory(epsilon=epsilon, scheme=scheme, records=records, termination=end)


def _positive_int(value, name: str) -> int:
    """value as an int if it is an integer (by ``operator.index``, so numpy
    integers count and bools do not) of at least 1; ValueError otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if n < 1 or isinstance(value, bool):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return n


def _check_run_args(epsilon: float, n_steps: int, scheme: str) -> int:
    """n_steps as an int, after checking all three run arguments."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    n_steps = _positive_int(n_steps, "n_steps")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return n_steps


def step(
    model: WaveModel,
    q: ConfigPoint,
    epsilon: float,
    scheme: Scheme = DEFAULT_SCHEME,
    direction: int = 1,
) -> ConfigPoint:
    """One equal-proper-time step of both particles from q."""
    _check_run_args(epsilon, 1, scheme)
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    start = (float(q.z1), float(q.t1), float(q.z2), float(q.t2))
    v1, _, v2, _, _ = _flows(model, *start)
    reached, _ = _advance(_flows, model, start, v1, v2, epsilon, scheme, float(direction))
    if not model.contains(*reached):
        raise BoundaryError(f"step left the well region at {ConfigPoint(*reached)}")
    return ConfigPoint(*reached)


def _integrate(
    model: WaveModel, q0: ConfigPoint, epsilon: float, n_steps: int, scheme: str, direction: int
) -> Trajectory:
    rows = []
    end = "completed"
    q = (float(q0.z1), float(q0.t1), float(q0.z2), float(q0.t2))
    d = float(direction)
    for j in range(n_steps + 1):
        try:
            v1, lam1, v2, lam2, _ = _flows(model, *q)
            rows.append(q + (v1, v2, lam1, lam2))
            if j == n_steps:
                break
            q, _ = _advance(_flows, model, q, v1, v2, epsilon, scheme, d)
        except FlowError as err:
            if not rows:
                raise
            end = err.tag
            break
    return _trajectory(rows, epsilon, scheme, end)


def _lockstep(
    model: WaveModel, starts: tuple[ConfigPoint, ...], epsilon: float, n_steps: int, scheme: str
) -> Iterator[Trajectory]:
    """Step every start together as numpy arrays, then yield trajectories.

    A member stops recording at its first fault; its entries are still
    computed, and ignored, so the arrays keep one shape.
    """
    q = tuple(
        np.array([(s.z1, s.t1, s.z2, s.t2) for s in starts], dtype=float).reshape(-1, 4).T.copy()
    )
    ended = np.zeros(len(starts), dtype=np.intp)  # TERMINATIONS index, 0 while running
    counts = np.zeros(len(starts), dtype=np.intp)
    rows = []
    with np.errstate(all="ignore"):
        for j in range(n_steps + 1):
            v1, lam1, v2, lam2, fault = _array_flows(model, *q)
            ended = np.where(ended, ended, fault)
            counts += ended == 0
            rows.append(q + (v1, v2, lam1, lam2))
            if j == n_steps or ended.all():
                break
            q, fault = _advance(_array_flows, model, q, v1, v2, epsilon, scheme, 1.0)
            ended = np.where(ended, ended, fault)
    # [member, record, column], columns as in a row of _trajectory.
    table = np.array(rows).transpose(2, 0, 1)
    for q0, member, count, end in zip(starts, table, counts.tolist(), ended.tolist()):
        if count == 0:
            # The start itself fails: the float chain raises its error.
            yield _integrate(model, q0, epsilon, n_steps, scheme, direction=1)
            continue
        yield _trajectory(member[:count].tolist(), epsilon, scheme, TERMINATIONS[end])


def integrate(
    model: WaveModel,
    q0: ConfigPoint | Sequence[ConfigPoint],
    epsilon: float,
    n_steps: int,
    scheme: Scheme = DEFAULT_SCHEME,
) -> Trajectory | Iterator[Trajectory]:
    """Integrate n_steps proper-time steps forward from q0.

    A failed evaluation after the first record yields a partial trajectory
    with the matching termination tag; a failure at q0 itself propagates,
    since no trajectory exists at all.

    Given a sequence of starts instead of one ConfigPoint, all members are
    stepped in lockstep as numpy arrays and an iterator over their
    trajectories, in order, is returned.  On reaching a member whose start
    fails it raises that start's error, as a single-start call would.
    """
    n_steps = _check_run_args(epsilon, n_steps, scheme)
    if isinstance(q0, ConfigPoint):
        return _integrate(model, q0, epsilon, n_steps, scheme, direction=1)
    return _lockstep(model, tuple(q0), epsilon, n_steps, scheme)


def reverse_check(model: WaveModel, traj: Trajectory) -> float:
    """Retrace a completed trajectory backward and report the worst miss.

    Integrates from the final record with negated displacements
    (-dt_i, -dz_i) for the same number of steps and returns the maximum
    over steps and particles of the Euclidean distance to the forward
    records.  Returns inf if the backward run aborts before finishing.
    """
    if not traj.completed:
        raise ValueError(f"reverse check needs a completed trajectory, got {traj.termination!r}")
    n = len(traj.records) - 1
    if n == 0:
        return 0.0
    back = _integrate(
        model, traj.records[-1].q, traj.epsilon, n, traj.scheme, direction=-1
    )
    if not back.completed or len(back.records) != n + 1:
        return math.inf
    worst = 0.0
    for j, rec in enumerate(back.records):
        target = traj.records[n - j].q
        worst = max(worst, _particle_distance(rec.q, target))
    return worst


def _particle_distance(a: ConfigPoint, b: ConfigPoint) -> float:
    d1 = math.hypot(a.t1 - b.t1, a.z1 - b.z1)
    d2 = math.hypot(a.t2 - b.t2, a.z2 - b.z2)
    return max(d1, d2)


def _timelike_lambdas(model: WaveModel, z1, t1, z2, t2):
    """(lambda1, lambda2, ok) at arrays of points, for sampling weights.

    Each lambda is the larger root (tr + sqrt(disc)) / 2 of the particle's
    ``tensor_entries``, which is its timelike eigenvalue; ok masks the
    points that pass the domain and node guards.
    """
    _, p, r1t, r1z, r2t, r2z, outside, node = log_ratios(model, z1, t1, z2, t2)
    lams = []
    for r_t, r_z in ((r1t, r1z), (r2t, r2z)):
        tt, tz, zt, zz, _ = tensor_entries(
            p, r_t.real, r_z.real, r_t.imag, r_z.imag, model.mass
        )
        tr, disc = characteristic(tt, tz, zt, zz)
        lams.append(0.5 * (tr + np.sqrt(disc)))
    return lams[0], lams[1], ~(outside | node)


def _eigenvalue_weights(model: WaveModel, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """lambda1 * lambda2 on the t1 = t2 = 0 hyperplane; zero where guarded.

    z1 and z2 broadcast against each other, so a grid can be passed as a
    row and a column and each mode is evaluated once per grid line.
    """
    with np.errstate(all="ignore"):
        lam1, lam2, ok = _timelike_lambdas(model, z1, np.zeros_like(z1), z2, np.zeros_like(z2))
        return np.where(ok, lam1 * lam2, 0.0)


def _weight_bound(model: WaveModel) -> float:
    grid = np.linspace(0.0, model.well_width, 241)[1:-1]
    top = float(np.max(_eigenvalue_weights(model, grid[None, :], grid[:, None])))
    if not top > 0.0:
        raise SamplingError("eigenvalue weight vanishes on the sampling grid")
    # Headroom over the grid maximum keeps the envelope valid between nodes.
    return 1.25 * top


def sample_hyperplane(
    model: WaveModel,
    count: int,
    weighting: Literal["uniform", "eigenvalue"] = "uniform",
    seed: int = 0,
) -> list[ConfigPoint]:
    """Draw initial configurations (z1, 0, z2, 0) on the equal-time plane.

    uniform draws both positions independently over (0, L); eigenvalue
    performs seeded rejection sampling proportional to the product of the
    two timelike eigenvalues, restricted to node-free configurations.
    Same seed, same points.
    """
    count = _positive_int(count, "count")
    if weighting not in ("uniform", "eigenvalue"):
        raise ValueError(f"weighting must be 'uniform' or 'eigenvalue', got {weighting!r}")
    rng = np.random.default_rng(int(seed))
    L = model.well_width
    if weighting == "uniform":
        draws = rng.uniform(0.0, L, size=(count, 2))
        return [
            ConfigPoint(z1=float(a), t1=0.0, z2=float(b), t2=0.0) for a, b in draws
        ]
    bound = _weight_bound(model)
    budget = _ATTEMPTS_PER_POINT * count
    spent = 0
    points: list[ConfigPoint] = []
    while len(points) < count:
        if spent >= budget:
            raise SamplingError(
                f"rejection sampling exhausted {budget} proposals for {count} points"
            )
        ndraw = min(_PROPOSAL_CHUNK, budget - spent)
        spent += ndraw
        z = rng.uniform(0.0, L, size=(ndraw, 2))
        u = rng.uniform(0.0, 1.0, size=ndraw)
        accept = _eigenvalue_weights(model, z[:, 0], z[:, 1]) > u * bound
        for a, b in z[accept]:
            points.append(ConfigPoint(z1=float(a), t1=0.0, z2=float(b), t2=0.0))
            if len(points) == count:
                break
    return points
