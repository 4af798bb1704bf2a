"""Equal-proper-time trajectory integration and hyperplane sampling.

Each iteration evaluates both particles' eigenflows at the current
configuration and advances every particle by the same signed proper-time
step h along its own flow, so particle i moves by the null increments
du = h e^{-a_i} and dv = h e^{+a_i}, that is (dt, dz) = h (cosh a_i,
sinh a_i).  A run forward takes h = epsilon and
``reverse_check``'s run backward h = -epsilon; negating h negates every
increment exactly.  Both schemes are stage-wise proper-time steps: euler
uses the velocities at the current point, midpoint re-evaluates them at
the half-step h/2 before advancing.

Evaluation failures (node proximity, degenerate eigenstructure, leaving
the well) do not propagate out of ``integrate``; the partial trajectory is
returned with a termination tag naming the cause, the ``tag`` of the
error's class.

The per-point chain is ``_flows``: ``_checked_fields`` (domain guard,
fields, node guard), then ``null_flow``'s closed-form eigenvalue,
velocity and e^a = sqrt(D-/D+) per particle.  ``_displace`` steps on
that e^a, with no log or exp.  The chain runs on plain floats for one
start and agrees with the public route ``log_derivatives`` ->
``assemble`` -> ``eigenflows`` -> ``proper_step`` to rounding.

An ensemble runs in lockstep: ``integrate`` given a sequence of starts
instead of one ``ConfigPoint`` steps every member at once as numpy arrays
through the same kernels, which choose their path by input type.  There
each guard is a mask instead of an exception; a member stops recording
at its first fault, tagged by the guard the float chain would have met
first (domain, node, then either particle's flow), and agrees with a
single-start run to rounding.  The sampler's eigenvalue weights come
from the same ``_checked_fields`` and null-flow eigenvalue, with no step
factor.

Both loops share one ``_flows``, one step and one record builder.
``_advance`` holds the midpoint stage and the displacement for floats
and arrays alike.  A step that leaves the well is caught, in both loops,
by the domain guard of the next evaluation, which ends the run with
``boundary_abort`` after the last point inside; only the public
``step``, which evaluates nothing after it, checks the point it reaches
itself.

Each loop appends rows (z1, t1, z2, t2, v1, v2, lambda1, lambda2), and
a ``Trajectory`` is built from those rows alone and stores them: the
CLI writers, the frame comparison and ``reverse_check`` read them as
they are.  The ``StepRecord``s of ``Trajectory.records`` are built from
them on first read, for library callers that ask for them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from ._numpy import np
from .errors import (
    BoundaryError,
    FlowError,
    NodeProximityError,
    SamplingError,
)
from .stress_energy import null_flow
from .wavefield import ConfigPoint, WaveModel, _checked_fields

Scheme = Literal["euler", "midpoint"]
SCHEMES: tuple[str, ...] = ("euler", "midpoint")
WEIGHTINGS: tuple[str, ...] = ("uniform", "eigenvalue")

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
    """One run: its rows, the j-th at sigma = j * epsilon, and the
    termination tag that ended it.

    A row is (z1, t1, z2, t2, v1, v2, lambda1, lambda2), a record's
    fields in order; the rows are the stored form, kept as a tuple of
    tuples.  ``records`` builds the ``StepRecord``s on first read and
    keeps them.  ``==`` and ``hash`` compare epsilon, scheme, rows and
    termination.
    """

    epsilon: float
    scheme: str
    rows: tuple[tuple[float, ...], ...]
    termination: str

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        """The rows as ``StepRecord``s, built on first read."""
        return tuple(
            StepRecord(j * self.epsilon, ConfigPoint(z1, t1, z2, t2), v1, v2, lam1, lam2)
            for j, (z1, t1, z2, t2, v1, v2, lam1, lam2) in enumerate(self.rows)
        )

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


def _flows(model: WaveModel, z1, t1, z2, t2):
    """(v1, lambda1, v2, lambda2, fault, e^a1, e^a2) at a configuration
    point, or at arrays of them; e^ai is particle i's step factor.

    fault is, per point, the index in TERMINATIONS of the tag the float
    chain gives there (0 where every guard passes), taking the guards in
    its order: domain, node, then either particle's flow.  Floats raise
    at the first guard instead, so their fault is always 0.
    """
    a2, _, dt1, dz1, dt2, dz2, guards = _checked_fields(model, z1, t1, z2, t2)
    m2a2 = model.mass * model.mass * a2
    lam1, v1, ea1, bad1 = null_flow(m2a2, dt1, dz1)
    lam2, v2, ea2, bad2 = null_flow(m2a2, dt2, dz2)
    fault = _DEGENERATE * (bad1 | bad2)
    if guards:
        outside, node = guards
        fault = np.where(outside, _BOUNDARY, np.where(node, _NODE, fault))
    return v1, lam1, v2, lam2, fault, ea1, ea2


def _displace(q, ea1, ea2, h):
    """q = (z1, t1, z2, t2) after each particle's null step of signed proper
    time h, forward for h > 0 and backward for h < 0, from its step factor
    e^a: dv = h e^a, du = h / e^a, dt = (du + dv) / 2, dz = (dv - du) / 2.
    Floats or arrays; negating h negates every increment exactly."""
    z1, t1, z2, t2 = q
    dv1, du1, dv2, du2 = h * ea1, h / ea1, h * ea2, h / ea2
    return (z1 + 0.5 * (dv1 - du1), t1 + 0.5 * (du1 + dv1),
            z2 + 0.5 * (dv2 - du2), t2 + 0.5 * (du2 + dv2))


def _advance(model, q, ea1, ea2, h, scheme):
    """(q after the signed step h, midpoint stage's fault) from q with
    step factors ea1, ea2 there; floats or arrays.

    euler steps on ea1, ea2; midpoint on the factors at the half step,
    whose evaluation gives the fault (always 0 for euler).
    """
    fault = 0
    if scheme == "midpoint":
        _, _, _, _, fault, ea1, ea2 = _flows(model, *_displace(q, ea1, ea2, 0.5 * h))
    return _displace(q, ea1, ea2, h), fault


def _integer(value, name: str, least: int = 1) -> int:
    """value as an int if it is an integer (by ``operator.index``, so numpy
    integers count and bools do not) no smaller than least, which is 1
    (positive) or 0 (nonnegative); ValueError otherwise."""
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least or isinstance(value, bool):
        kind = "positive" if least == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return n


def _check_run_args(epsilon: float, n_steps: int, scheme: str) -> int:
    """n_steps as an int, after checking all three run arguments."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    n_steps = _integer(n_steps, "n_steps")
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
    """One equal-proper-time step of both particles from q, forward for
    direction 1 and backward for -1: the signed step direction * epsilon."""
    _check_run_args(epsilon, 1, scheme)
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    start = (float(q.z1), float(q.t1), float(q.z2), float(q.t2))
    ea1, ea2 = _flows(model, *start)[5:]
    reached, _ = _advance(model, start, ea1, ea2, direction * epsilon, scheme)
    if not model.contains(*reached):
        raise BoundaryError(f"step left the well region at {ConfigPoint(*reached)}")
    return ConfigPoint(*reached)


def _integrate(
    model: WaveModel, q0: ConfigPoint, h: float, n_steps: int, scheme: str
) -> Trajectory:
    """The float loop: n_steps signed steps h from q0; epsilon is |h|."""
    rows = []
    end = "completed"
    q = (float(q0.z1), float(q0.t1), float(q0.z2), float(q0.t2))
    for j in range(n_steps + 1):
        try:
            v1, lam1, v2, lam2, _, ea1, ea2 = _flows(model, *q)
            rows.append(q + (v1, v2, lam1, lam2))
            if j == n_steps:
                break
            q, _ = _advance(model, q, ea1, ea2, h, scheme)
        except FlowError as err:
            if not rows:
                raise
            end = err.tag
            break
    return Trajectory(abs(h), scheme, rows=rows, termination=end)


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
            v1, lam1, v2, lam2, fault, ea1, ea2 = _flows(model, *q)
            ended = np.where(ended, ended, fault)
            counts += ended == 0
            rows.append(q + (v1, v2, lam1, lam2))
            if j == n_steps or ended.all():
                break
            q, fault = _advance(model, q, ea1, ea2, epsilon, scheme)
            ended = np.where(ended, ended, fault)
    # [member, record, column], columns as in a Trajectory row.
    table = np.array(rows).transpose(2, 0, 1)
    for q0, member, count, end in zip(starts, table, counts.tolist(), ended.tolist()):
        if count == 0:
            # The start itself fails: the float chain raises its error.
            yield _integrate(model, q0, epsilon, n_steps, scheme)
            continue
        yield Trajectory(
            epsilon, scheme, rows=member[:count].tolist(), termination=TERMINATIONS[end]
        )


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
        return _integrate(model, q0, epsilon, n_steps, scheme)
    return _lockstep(model, tuple(q0), epsilon, n_steps, scheme)


def reverse_check(model: WaveModel, traj: Trajectory) -> float:
    """Retrace a completed trajectory backward and report the worst miss.

    Integrates from the final record with the signed step -epsilon, whose
    displacements are the negated (-dt_i, -dz_i), for the same number of
    steps and returns the maximum over steps and particles of the
    Euclidean distance to the forward records.  Returns inf if the
    backward run aborts before finishing.
    """
    if not traj.completed:
        raise ValueError(f"reverse check needs a completed trajectory, got {traj.termination!r}")
    n = len(traj.rows) - 1
    if n == 0:
        return 0.0
    start = ConfigPoint(*traj.rows[-1][:4])
    back = _integrate(model, start, -traj.epsilon, n, traj.scheme)
    if not back.completed or len(back.rows) != n + 1:
        return math.inf
    worst = 0.0
    for j, row in enumerate(back.rows):
        worst = max(worst, _particle_distance(row, traj.rows[n - j]))
    return worst


def _particle_distance(a, b) -> float:
    """The larger of the two particles' Euclidean (t, z) distances between
    rows a and b."""
    (za1, ta1, za2, ta2), (zb1, tb1, zb2, tb2) = a[:4], b[:4]
    return max(math.hypot(ta1 - tb1, za1 - zb1), math.hypot(ta2 - tb2, za2 - zb2))


def _eigenvalue_weights(model: WaveModel, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """lambda1 * lambda2 on the t1 = t2 = 0 hyperplane; zero where the
    domain or node guard fails.

    Each lambda is ``null_flow``'s m^2 |Psi|^2 + D- D+; a weight reads no
    velocity, step factor or flow guard, so none is computed.
    z1 and z2 broadcast against each other, so a grid can be passed as a
    row and a column and each mode is evaluated once per grid line.
    """
    with np.errstate(all="ignore"):
        a2, _, dt1, dz1, dt2, dz2, (outside, node) = _checked_fields(
            model, z1, np.zeros_like(z1), z2, np.zeros_like(z2))
        m2a2 = model.mass * model.mass * a2
        lam1 = m2a2 + abs(dt1 - dz1) * abs(dt1 + dz1)
        lam2 = m2a2 + abs(dt2 - dz2) * abs(dt2 + dz2)
        return np.where(outside | node, 0.0, lam1 * lam2)


def _weight_bound(model: WaveModel) -> float:
    """1.25 times the largest eigenvalue weight on a 239 x 239 grid of
    (0, L)^2; SamplingError naming the first grid point, in row order,
    whose weight is not finite, or if the maximum is not positive.

    The grid is evaluated in blocks of rows, each at most one proposal
    chunk of points, so no array pass holds the whole grid; the largest
    block maximum is the one-pass maximum exactly.
    """
    grid = np.linspace(0.0, model.well_width, 241)[1:-1]
    rows = _PROPOSAL_CHUNK // len(grid)
    top = 0.0
    for i in range(0, len(grid), rows):
        weights = _eigenvalue_weights(model, grid[None, :], grid[i:i + rows, None])
        bad = np.argwhere(~np.isfinite(weights))
        if len(bad):
            row, col = bad[0]
            raise SamplingError(
                f"eigenvalue weight is not finite at (z1, z2) = "
                f"({float(grid[col])!r}, {float(grid[i + row])!r}) on the sampling grid"
            )
        top = max(top, float(np.max(weights)))
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

    One seeded rejection loop serves both weightings.  Each chunk of
    proposals draws both positions uniformly over (0, L); uniform keeps
    those ``model.contains`` accepts on this plane (a boosted well is
    narrower there), eigenvalue also draws u in (0, 1) per proposal and
    keeps those whose product of the two timelike eigenvalues, restricted
    to node-free configurations, exceeds u times a bound from
    ``_weight_bound``'s grid.  Kept points are taken in draw order until
    count are reached, so an unboosted uniform sample is the first
    (count, 2) draw of the seed's stream.  SamplingError after 10,000
    proposals per requested point.  Same seed, same points.  count must
    be a positive and seed a nonnegative integer; numpy integers count,
    bools and floats do not.
    """
    count = _integer(count, "count")
    seed = _integer(seed, "seed", least=0)
    if weighting not in WEIGHTINGS:
        raise ValueError(
            f"weighting must be {' or '.join(map(repr, WEIGHTINGS))}, got {weighting!r}"
        )
    rng = np.random.default_rng(seed)
    L = model.well_width
    bound = _weight_bound(model) if weighting == "eigenvalue" else None
    budget = _ATTEMPTS_PER_POINT * count
    spent = 0
    points: list[ConfigPoint] = []
    while len(points) < count:
        if spent >= budget:
            raise SamplingError(
                f"{weighting} sampling exhausted {budget} proposals for {count} points"
            )
        ndraw = min(_PROPOSAL_CHUNK, budget - spent)
        spent += ndraw
        z = rng.uniform(0.0, L, size=(ndraw, 2))
        if bound is None:
            t = np.zeros(ndraw)
            accept = model.contains(z[:, 0], t, z[:, 1], t)
        else:
            u = rng.uniform(0.0, 1.0, size=ndraw)
            accept = _eigenvalue_weights(model, z[:, 0], z[:, 1]) > u * bound
        points += [
            ConfigPoint(z1=float(a), t1=0.0, z2=float(b), t2=0.0)
            for a, b in z[accept][: count - len(points)]
        ]
    return points
