"""1+1 Minkowski geometry: metric contractions, rapidity algebra, passive
boosts, and the equal-proper-time null-step primitive.

Conventions used throughout the library: metric diag(+1, -1) on (t, z),
natural units, null coordinates v = t + z and u = t - z.  The boost

    [[cosh a, -sinh a],
     [-sinh a, cosh a]]

is passive: positive rapidity re-describes the same worldline from a frame
moving with velocity +tanh(a), so a particle at rest acquires coordinate
velocity -tanh(a).  Null coordinates diagonalize it, picking up the factors
e^{-a} (on v) and e^{+a} (on u).

``proper_step`` is the public null step from a velocity, guarded
(epsilon > 0, then light speed).  It builds e^a from v through the
rapidity, and it stays as the reference the run path is checked
against: the integrator steps on e^a = sqrt(D-/D+) from
``stress_energy.null_flow`` instead, with no log or exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LightlikeVelocityError

# Flows this close to the light cone are rejected rather than clamped; a
# near-null velocity means the guidance law left its region of validity.
VELOCITY_LIMIT = 1.0 - 1e-9


@dataclass(frozen=True)
class FourVector:
    """Contravariant (t, z) pair."""

    t: float
    z: float


@dataclass(frozen=True)
class Rapidity:
    """Hyperbolic boost angle; additive under boost composition."""

    alpha: float

    def __add__(self, other: "Rapidity") -> "Rapidity":
        return Rapidity(self.alpha + other.alpha)

    def __neg__(self) -> "Rapidity":
        return Rapidity(-self.alpha)

    @property
    def velocity(self) -> float:
        return math.tanh(self.alpha)


@dataclass(frozen=True)
class NullStep:
    """Null-coordinate increments of one proper-time step.

    du and dv are both positive for a future-directed timelike step and
    satisfy du * dv = epsilon**2 regardless of the velocity.
    """

    du: float
    dv: float
    epsilon: float


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    """Invariant contraction a.t b.t - a.z b.z."""
    return a.t * b.t - a.z * b.z


def _require_subluminal(v: float) -> None:
    # Also rejects NaN: the comparison below is False for it.
    if not abs(v) < VELOCITY_LIMIT:
        raise LightlikeVelocityError(
            f"velocity {v!r} at or beyond the light-speed guard {VELOCITY_LIMIT!r}"
        )


def rapidity_from_velocity(v: float) -> Rapidity:
    """Boost angle with tanh(alpha) = v; rejects |v| >= 1 - 1e-9."""
    _require_subluminal(v)
    return Rapidity(0.5 * math.log((1.0 + v) / (1.0 - v)))


def boost_coords(t: float, z: float, c: float, s: float) -> tuple[float, float]:
    """Float kernel of ``boost``: (t, z) boosted by the rapidity whose cosh
    is c and sinh is s, so a caller boosting many points takes them once."""
    return c * t - s * z, -s * t + c * z


def boost(p: FourVector, alpha: Rapidity) -> FourVector:
    """Passive boost of a contravariant (t, z) pair by rapidity alpha."""
    t, z = boost_coords(p.t, p.z, math.cosh(alpha.alpha), math.sinh(alpha.alpha))
    return FourVector(t=t, z=z)


def velocity_addition(v: float, u: float) -> float:
    """Relativistic composition (v + u) / (1 + v u) of collinear velocities."""
    _require_subluminal(v)
    _require_subluminal(u)
    return (v + u) / (1.0 + v * u)


def proper_step(v: float, epsilon: float) -> tuple[NullStep, float, float]:
    """Advance one proper-time increment epsilon along velocity v.

    Returns (NullStep, dt, dz) with dv = epsilon e^{+alpha},
    du = epsilon e^{-alpha}, dt = epsilon cosh(alpha), dz = epsilon
    sinh(alpha), where alpha is the rapidity of v.  The timelike interval
    of the step, dt**2 - dz**2 = du dv, equals epsilon**2 for every
    subluminal velocity; that equality is what keeps both particles'
    clocks advancing by the same proper time per iteration.  Rejects a
    non-positive epsilon (ValueError), then |v| >= 1 - 1e-9 or NaN.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    ea = math.exp(rapidity_from_velocity(v).alpha)
    dv = epsilon * ea
    du = epsilon / ea
    return NullStep(du=du, dv=dv, epsilon=epsilon), 0.5 * (du + dv), 0.5 * (dv - du)
