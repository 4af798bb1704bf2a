"""Equal-proper-time trajectory integration and hyperplane sampling.

Each iteration evaluates both particles' eigenflow velocities at the
current configuration and advances every particle by the same proper-time
increment epsilon along its own flow direction, so particle i moves by
(dt, dz) = epsilon (cosh a_i, sinh a_i).  Both schemes are stage-wise
proper-time steps: euler uses the velocities at the current point,
midpoint re-evaluates them at the half-step epsilon/2 before advancing.

Evaluation failures (node proximity, degenerate eigenstructure, leaving
the well) do not propagate out of ``integrate``; the partial trajectory is
returned with a termination tag naming the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    BoundaryError,
    FlowError,
    NodeProximityError,
    SamplingError,
)
from .minkowski import proper_step
from .stress_energy import TimelikeFlow, assemble, eigenflows
from .wavefield import ConfigPoint, WaveModel, log_derivatives

Scheme = Literal["euler", "midpoint"]
SCHEMES: tuple[str, ...] = ("euler", "midpoint")

Termination = Literal["completed", "node_abort", "degenerate_abort", "boundary_abort"]
TERMINATIONS: tuple[str, ...] = (
    "completed",
    "node_abort",
    "degenerate_abort",
    "boundary_abort",
)

DEFAULT_EPSILON = 0.01
DEFAULT_STEPS = 500
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

    def configuration_array(self) -> np.ndarray:
        """(n_records, 4) array of (z1, t1, z2, t2) rows."""
        return np.array([[r.q.z1, r.q.t1, r.q.z2, r.q.t2] for r in self.records])


def _abort_tag(err: FlowError) -> str:
    if isinstance(err, NodeProximityError):
        return "node_abort"
    if isinstance(err, BoundaryError):
        return "boundary_abort"
    # Degenerate, missing-timelike and lightlike flows all mean the
    # guidance law stopped defining a direction.
    return "degenerate_abort"


def _flows(model: WaveModel, q: ConfigPoint) -> tuple[TimelikeFlow, TimelikeFlow]:
    ld = log_derivatives(model, q)
    m = model.mass
    return eigenflows(assemble(ld, 1, m)), eigenflows(assemble(ld, 2, m))


def _displace(q: ConfigPoint, v1: float, v2: float, epsilon: float, direction: int) -> ConfigPoint:
    _, dt1, dz1 = proper_step(v1, epsilon)
    _, dt2, dz2 = proper_step(v2, epsilon)
    d = float(direction)
    return ConfigPoint(
        z1=q.z1 + d * dz1,
        t1=q.t1 + d * dt1,
        z2=q.z2 + d * dz2,
        t2=q.t2 + d * dt2,
    )


def _step_from(
    model: WaveModel,
    q: ConfigPoint,
    v1: float,
    v2: float,
    epsilon: float,
    scheme: str,
    direction: int,
) -> ConfigPoint:
    if scheme == "midpoint":
        half = _displace(q, v1, v2, 0.5 * epsilon, direction)
        f1, f2 = _flows(model, half)
        v1, v2 = f1.v, f2.v
    q_next = _displace(q, v1, v2, epsilon, direction)
    if not model.in_domain(q_next):
        raise BoundaryError(f"step left the well region at {q_next}")
    return q_next


def _check_run_args(epsilon: float, n_steps: int, scheme: str) -> None:
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


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
    f1, f2 = _flows(model, q)
    return _step_from(model, q, f1.v, f2.v, epsilon, scheme, direction)


def _integrate(
    model: WaveModel,
    q0: ConfigPoint,
    epsilon: float,
    n_steps: int,
    scheme: str,
    direction: int,
) -> Trajectory:
    records: list[StepRecord] = []
    termination = "completed"
    q = q0
    for j in range(n_steps + 1):
        try:
            f1, f2 = _flows(model, q)
        except FlowError as err:
            if not records:
                raise
            termination = _abort_tag(err)
            break
        records.append(
            StepRecord(
                sigma=j * epsilon,
                q=q,
                v1=f1.v,
                v2=f2.v,
                lambda1=f1.lambda_time,
                lambda2=f2.lambda_time,
            )
        )
        if j == n_steps:
            break
        try:
            q = _step_from(model, q, f1.v, f2.v, epsilon, scheme, direction)
        except FlowError as err:
            termination = _abort_tag(err)
            break
    return Trajectory(
        epsilon=epsilon, scheme=scheme, records=tuple(records), termination=termination
    )


def integrate(
    model: WaveModel,
    q0: ConfigPoint,
    epsilon: float,
    n_steps: int,
    scheme: Scheme = DEFAULT_SCHEME,
) -> Trajectory:
    """Integrate n_steps proper-time steps forward from q0.

    A failed evaluation after the first record yields a partial trajectory
    with the matching termination tag; a failure at q0 itself propagates,
    since no trajectory exists at all.
    """
    _check_run_args(epsilon, n_steps, scheme)
    return _integrate(model, q0, epsilon, n_steps, scheme, direction=1)


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


def _timelike_lambda(a2, r_t, r_z, m: float):
    """Closed-form timelike eigenvalue |Psi|^2 (m^2 + X) on arrays.

    X = sqrt((P.P - S.S)^2 + 4 (P.S)^2) is the positive root separation of
    the characteristic polynomial; the larger eigenvalue always belongs to
    the timelike eigenvector for tensors assembled from gradients.  Used
    for sampling weights only; the guidance law itself goes through
    ``eigenflows``, and a test ties the two to rounding.  This array copy
    of the formula goes once ``eigenflows`` accepts arrays, which a
    lockstep batched ensemble needs (see ROADMAP.md).
    """
    pt, st = r_t.real, r_t.imag
    pz, sz = r_z.real, r_z.imag
    pp = pt * pt - pz * pz
    ss = st * st - sz * sz
    ps = pt * st - pz * sz
    return a2 * (m * m + np.sqrt((pp - ss) ** 2 + 4.0 * ps * ps))


def _eigenvalue_weights(model: WaveModel, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """lambda1 * lambda2 on the t1 = t2 = 0 hyperplane; zero where guarded."""
    t = np.zeros_like(z1)
    psi, dt1, dz1, dt2, dz2 = model.fields(z1, t, z2, t)
    a2 = psi.real**2 + psi.imag**2
    ok = model.contains(z1, t, z2, t) & (a2 >= model.amp2_floor)
    with np.errstate(all="ignore"):
        lam1 = _timelike_lambda(a2, dt1 / psi, dz1 / psi, model.mass)
        lam2 = _timelike_lambda(a2, dt2 / psi, dz2 / psi, model.mass)
        w = np.where(ok, lam1 * lam2, 0.0)
    return w


def _weight_bound(model: WaveModel) -> float:
    grid = np.linspace(0.0, model.well_width, 241)[1:-1]
    g1, g2 = np.meshgrid(grid, grid)
    top = float(np.max(_eigenvalue_weights(model, g1.ravel(), g2.ravel())))
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
    if not (isinstance(count, int) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
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
