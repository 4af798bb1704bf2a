"""Multi-time wave functions on two-particle configuration space-time.

A model assigns a complex amplitude Psi(z1, t1, z2, t2) together with
analytic first derivatives with respect to each particle's own
coordinates; each particle carries its own time.  The built-in factors are
stationary modes of an infinite square well of width L,

    phi_n(z, t) = sqrt(2/L) sin(n pi z / L) exp(i omega_n t),
    omega_n = sqrt((n pi / L)**2 + m**2),

and two-particle states are ``ModeSum``s, sums of products of one mode per
particle: ``product_pair`` and the symmetrized ``entangled_pair`` are its
one- and two-term cases.  Everything downstream works with the log-polar
split Psi = exp(p + i s): the per-particle coordinate gradients of p and s
are the real and imaginary parts of (d Psi / Psi).

Evaluation is guarded twice: outside the well the analytic formulas no
longer describe the physical state (boundary error), and too close to a
node of Psi the log derivatives blow up (node-proximity error).  Float
coordinates raise at the first guard; arrays of coordinates (one entry
per ensemble member) are evaluated everywhere and return both guards as
masks.

A mode computes the factors that do not depend on the point (n pi / L,
sqrt(2/L), i omega and sqrt(2/L) n pi / L) once, when it is built, so an
evaluation does only the work that depends on the point: at float
coordinates through ``math`` and ``cmath``, at arrays through numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, replace

from ._numpy import np
from .errors import BoundaryError, NodeProximityError
from .minkowski import Rapidity

# Node guard: |Psi|^2 below this fraction of the model's squared amplitude
# scale counts as a node hit.
NODE_FLOOR_RATIO = 1e-12

# exp, sin and cos of a box mode evaluated at two floats; arrays use numpy's.
_FLOAT_FUNCS = (cmath.exp, math.sin, math.cos)


@dataclass(frozen=True)
class ConfigPoint:
    """One point of two-particle configuration space-time."""

    z1: float
    t1: float
    z2: float
    t2: float

    def particle(self, i: int) -> tuple[float, float]:
        """(t, z) coordinates of particle i in {1, 2}."""
        if i == 1:
            return self.t1, self.z1
        if i == 2:
            return self.t2, self.z2
        raise ValueError(f"particle index must be 1 or 2, got {i!r}")


def shift_particle(q: ConfigPoint, i: int, dt: float = 0.0, dz: float = 0.0) -> ConfigPoint:
    """New point with particle i's coordinates displaced by (dt, dz)."""
    if i == 1:
        return replace(q, t1=q.t1 + dt, z1=q.z1 + dz)
    if i == 2:
        return replace(q, t2=q.t2 + dt, z2=q.z2 + dz)
    raise ValueError(f"particle index must be 1 or 2, got {i!r}")


@dataclass(frozen=True)
class LogDerivatives:
    """Log-polar value and per-particle coordinate gradients at one point.

    p = ln|Psi| and s = arg Psi; the tuples hold the lower-index
    (coordinate) derivatives for particles 1 and 2 in order.
    """

    p: float
    s: float
    p_t: tuple[float, float]
    p_z: tuple[float, float]
    s_t: tuple[float, float]
    s_z: tuple[float, float]

    def particle(self, i: int) -> tuple[float, float, float, float]:
        """(p_t, p_z, s_t, s_z) for particle i in {1, 2}."""
        if i not in (1, 2):
            raise ValueError(f"particle index must be 1 or 2, got {i!r}")
        k = i - 1
        return self.p_t[k], self.p_z[k], self.s_t[k], self.s_z[k]


@dataclass(frozen=True)
class BoxMode:
    """Single-particle stationary mode of the infinite well.

    A frequency override detunes the mode from the dispersion relation;
    the detuned state no longer solves the field equation, which is what
    negative-control tests rely on.
    """

    n: int
    L: float
    m: float
    omega: float

    def __post_init__(self):
        # The factors of value_and_grads that do not depend on the point,
        # computed once per mode.  They live outside the dataclass fields,
        # so == and repr still see only (n, L, m, omega).
        k = self.n * math.pi / self.L
        amp = math.sqrt(2.0 / self.L)
        object.__setattr__(self, "_factors", (k, amp, 1j * self.omega, amp * k))

    def value_and_grads(self, z, t):
        """(phi, d phi/dt, d phi/dz); accepts scalars or arrays.

        Two floats go through ``math`` and ``cmath``, which cost a fraction
        of numpy's per-call overhead and give the same values; anything
        else goes through numpy and broadcasts.  k = n pi / L, sqrt(2/L),
        i omega and sqrt(2/L) k are the mode's, computed when it was built.
        """
        k, amp, i_omega, amp_k = self._factors
        if isinstance(z, float) and isinstance(t, float):
            exp, sin, cos = _FLOAT_FUNCS
        else:
            exp, sin, cos = np.exp, np.sin, np.cos
        phase = exp(i_omega * t)
        val = amp * sin(k * z) * phase
        return val, i_omega * val, amp_k * cos(k * z) * phase


def box_mode(n: int, L: float, m: float, frequency: float | None = None) -> BoxMode:
    """Stationary well mode with omega_n = sqrt((n pi / L)**2 + m**2).

    Raises ValueError for an invalid n, L or m, and when n pi / L or omega
    is not a finite float.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"mode index must be a positive integer, got {n!r}")
    if not L > 0.0:
        raise ValueError(f"well width must be positive, got {L!r}")
    if not m >= 0.0:
        raise ValueError(f"mass must be nonnegative, got {m!r}")
    try:
        k = n * math.pi / L
        omega = math.sqrt(k**2 + m * m) if frequency is None else float(frequency)
    except OverflowError:
        k = omega = math.inf
    if not (math.isfinite(k) and math.isfinite(omega)):
        raise ValueError("mode frequency overflows: n pi / L or omega is not finite")
    return BoxMode(n=n, L=L, m=m, omega=omega)


class WaveModel:
    """Two-particle amplitude with analytic per-particle first derivatives.

    Subclasses set ``mass``, ``well_width`` and ``amp2_floor`` and
    implement ``fields`` / ``contains``; both accept scalars or numpy
    arrays and broadcast.
    """

    mass: float
    well_width: float
    amp2_floor: float

    def fields(self, z1, t1, z2, t2):
        """(Psi, dPsi/dt1, dPsi/dz1, dPsi/dt2, dPsi/dz2)."""
        raise NotImplementedError

    def contains(self, z1, t1, z2, t2):
        """True where the configuration lies inside the well region."""
        raise NotImplementedError

    def amplitude(self, q: ConfigPoint) -> complex:
        return complex(self.fields(q.z1, q.t1, q.z2, q.t2)[0])

    def in_domain(self, q: ConfigPoint) -> bool:
        return bool(self.contains(q.z1, q.t1, q.z2, q.t2))


class ModeSum(WaveModel):
    """Sum of mode products Psi = sum over terms (a, b) of a(1) b(2).

    Each term pairs a mode of particle 1 with a mode of particle 2; every
    mode must live in the same well (same L and m).
    """

    def __init__(self, terms: tuple[tuple[BoxMode, BoxMode], ...]):
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("a mode sum needs at least one term")
        first = self.terms[0][0]
        for a, b in self.terms:
            for mode in (a, b):
                if mode.L != first.L or mode.m != first.m:
                    raise ValueError(
                        f"factor states live in different wells: (L={first.L!r}, "
                        f"m={first.m!r}) vs (L={mode.L!r}, m={mode.m!r})"
                    )
        self.mass = first.m
        self.well_width = first.L
        self.amp2_floor = NODE_FLOOR_RATIO * (2.0 / first.L) ** 2
        self._rest = self.terms[1:]  # not sliced per evaluation

    def fields(self, z1, t1, z2, t2):
        # Summed in term order from the first term's products, not from 0
        # (0 + -0.0 is 0.0), so one and two terms give exactly a1 b2 and
        # a1 b2 + b1 a2.
        a, b = self.terms[0]
        u, u_t, u_z = a.value_and_grads(z1, t1)
        w, w_t, w_z = b.value_and_grads(z2, t2)
        psi, dt1, dz1, dt2, dz2 = u * w, u_t * w, u_z * w, u * w_t, u * w_z
        for a, b in self._rest:
            u, u_t, u_z = a.value_and_grads(z1, t1)
            w, w_t, w_z = b.value_and_grads(z2, t2)
            psi += u * w
            dt1 += u_t * w
            dz1 += u_z * w
            dt2 += u * w_t
            dz2 += u * w_z
        return psi, dt1, dz1, dt2, dz2

    def contains(self, z1, t1, z2, t2):
        L = self.well_width
        return (z1 > 0.0) & (z1 < L) & (z2 > 0.0) & (z2 < L)


class LoneState(WaveModel):
    """Single-particle state embedded on configuration space.

    Psi depends on one particle's coordinates only; the other particle's
    gradients vanish identically.  Diagnostic model: it realizes
    single-mode stress tensors on the two-particle interfaces.
    """

    def __init__(self, state: BoxMode, particle: int = 1):
        if particle not in (1, 2):
            raise ValueError(f"particle index must be 1 or 2, got {particle!r}")
        self.state = state
        self.particle = particle
        self.mass = state.m
        self.well_width = state.L
        self.amp2_floor = NODE_FLOOR_RATIO * (2.0 / state.L)

    def fields(self, z1, t1, z2, t2):
        z, t = (z1, t1) if self.particle == 1 else (z2, t2)
        val, d_t, d_z = self.state.value_and_grads(z, t)
        zero = 0j if isinstance(val, complex) else np.zeros_like(val)
        if self.particle == 1:
            return val, d_t, d_z, zero, zero
        return val, zero, zero, d_t, d_z

    def contains(self, z1, t1, z2, t2):
        L = self.well_width
        z = z1 if self.particle == 1 else z2
        inside = (z > 0.0) & (z < L)
        if isinstance(inside, bool):
            return inside and math.isfinite(z1 + z2 + t1 + t2)
        # Keep broadcasting against the unused coordinates.
        return inside & np.isfinite(z1 + z2 + t1 + t2)


class BoostedModel(WaveModel):
    """Passive re-coordinatization Psi'(q') = Psi(inverse-boost q').

    Lower-index gradients pick up the inverse-transposed Jacobian, which
    for a boost is the same hyperbolic mixing applied to (d/dt, d/dz).
    """

    def __init__(self, base: WaveModel, alpha: Rapidity):
        self.base = base
        self.alpha = alpha
        self._c = math.cosh(alpha.alpha)
        self._s = math.sinh(alpha.alpha)
        self.mass = base.mass
        self.well_width = base.well_width
        self.amp2_floor = base.amp2_floor

    def _pull_back(self, z, t):
        # Coordinates of the same event in the unprimed frame.
        return self._s * t + self._c * z, self._c * t + self._s * z

    def fields(self, z1, t1, z2, t2):
        c, s = self._c, self._s
        x1, y1 = self._pull_back(z1, t1)
        x2, y2 = self._pull_back(z2, t2)
        psi, dt1, dz1, dt2, dz2 = self.base.fields(x1, y1, x2, y2)
        return (
            psi,
            c * dt1 + s * dz1,
            s * dt1 + c * dz1,
            c * dt2 + s * dz2,
            s * dt2 + c * dz2,
        )

    def contains(self, z1, t1, z2, t2):
        x1, y1 = self._pull_back(z1, t1)
        x2, y2 = self._pull_back(z2, t2)
        return self.base.contains(x1, y1, x2, y2)


class RescaledModel(WaveModel):
    """Constant complex multiple of another model."""

    def __init__(self, base: WaveModel, factor: complex):
        factor = complex(factor)
        if factor == 0:
            raise ValueError("rescaling factor must be nonzero")
        self.base = base
        self.factor = factor
        self.mass = base.mass
        self.well_width = base.well_width
        self.amp2_floor = base.amp2_floor * abs(factor) ** 2

    def fields(self, z1, t1, z2, t2):
        return tuple(self.factor * f for f in self.base.fields(z1, t1, z2, t2))

    def contains(self, z1, t1, z2, t2):
        return self.base.contains(z1, t1, z2, t2)


def product_pair(state_a: BoxMode, state_b: BoxMode) -> ModeSum:
    """Unsymmetrized product Psi = a(1) b(2)."""
    return ModeSum(((state_a, state_b),))


def entangled_pair(state_a: BoxMode, state_b: BoxMode) -> ModeSum:
    """Exchange-symmetric sum Psi = a(1) b(2) + b(1) a(2)."""
    return ModeSum(((state_a, state_b), (state_b, state_a)))


def lone_state(state: BoxMode, particle: int = 1) -> LoneState:
    return LoneState(state, particle)


def boosted(model: WaveModel, alpha: Rapidity) -> BoostedModel:
    return BoostedModel(model, alpha)


def rescaled(model: WaveModel, factor: complex) -> RescaledModel:
    return RescaledModel(model, factor)


def _checked_fields(model: WaveModel, z1, t1, z2, t2):
    """Evaluate fields after the domain and node guards.

    Returns |Psi|^2, the five fields as Python complex numbers and an
    empty tuple.  Arrays of coordinates are evaluated at every entry and
    return in its place the guard masks (outside, node), True wherever a
    float point would raise; the fields there are meaningless.
    """
    array = not isinstance(z1, float) and isinstance(z1, np.ndarray)
    if array:
        outside = ~model.contains(z1, t1, z2, t2)
    elif not model.contains(z1, t1, z2, t2):
        raise BoundaryError(
            f"configuration {ConfigPoint(z1, t1, z2, t2)} outside the well region"
        )
    psi, dt1, dz1, dt2, dz2 = model.fields(z1, t1, z2, t2)
    if not array:
        psi = complex(psi)
    a2 = psi.real * psi.real + psi.imag * psi.imag
    if array:
        return a2, psi, dt1, dz1, dt2, dz2, (outside, a2 < model.amp2_floor)
    if a2 < model.amp2_floor:
        raise NodeProximityError(
            f"|Psi|^2 = {a2!r} below node floor {model.amp2_floor!r} "
            f"at {ConfigPoint(z1, t1, z2, t2)}"
        )
    return a2, psi, complex(dt1), complex(dz1), complex(dt2), complex(dz2), ()


def log_derivatives(model: WaveModel, q: ConfigPoint) -> LogDerivatives:
    """Log-polar value and gradients of Psi at q.

    p_mu and s_mu are the real and imaginary parts of the per-particle
    complex ratios (d Psi / Psi), i.e. lower-index coordinate derivatives
    of p = ln|Psi| and s = arg Psi.
    """
    a2, psi, dt1, dz1, dt2, dz2, _ = _checked_fields(model, q.z1, q.t1, q.z2, q.t2)
    r1t, r1z, r2t, r2z = dt1 / psi, dz1 / psi, dt2 / psi, dz2 / psi
    return LogDerivatives(
        p=0.5 * math.log(a2),
        s=math.atan2(psi.imag, psi.real),
        p_t=(r1t.real, r2t.real),
        p_z=(r1z.real, r2z.real),
        s_t=(r1t.imag, r2t.imag),
        s_z=(r1z.imag, r2z.imag),
    )


def kg_residual(model: WaveModel, q: ConfigPoint, i: int, h: float) -> complex:
    """Finite-difference Klein-Gordon residual for particle i.

    Estimates (d^2/dt_i^2 - d^2/dz_i^2 + m^2) Psi by central-differencing
    the analytic first derivatives with step h, so the estimate carries an
    O(h^2) discretization error around the exact residual.  For a state
    satisfying the field equation the value converges to zero at second
    order in h; a detuned mode leaves a residual bounded away from zero.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
    if i not in (1, 2):
        raise ValueError(f"particle index must be 1 or 2, got {i!r}")
    idx = (2, 3) if i == 1 else (4, 5)
    psi = _checked_fields(model, *astuple(q))[1]
    f_tp = _checked_fields(model, *astuple(shift_particle(q, i, dt=+h)))[idx[0]]
    f_tm = _checked_fields(model, *astuple(shift_particle(q, i, dt=-h)))[idx[0]]
    f_zp = _checked_fields(model, *astuple(shift_particle(q, i, dz=+h)))[idx[1]]
    f_zm = _checked_fields(model, *astuple(shift_particle(q, i, dz=-h)))[idx[1]]
    d2t = (f_tp - f_tm) / (2.0 * h)
    d2z = (f_zp - f_zm) / (2.0 * h)
    return d2t - d2z + model.mass**2 * psi
