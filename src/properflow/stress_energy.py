"""Per-particle stress-energy tensors and the eigenflow guidance law.

For one particle of a multi-time state Psi = exp(p + i s), the mixed
tensor built from that particle's coordinate gradients is

    T^mu_nu = |Psi|^2 [m^2 - (P.P + S.S)] delta^mu_nu
              + 2 |Psi|^2 (P^mu P_nu + S^mu S_nu),

with P_mu = (p_t, p_z), S_mu = (s_t, s_z) lower-index derivatives and
indices raised by diag(+1, -1): X^t = X_t, X^z = -X_z.  The overall
normalization is twice the canonical tensor; eigenvectors, and hence the
guidance velocity, are insensitive to it.

The flow direction at a point is the future-pointing timelike eigenvector
of T^mu_nu.  ``eigenflows`` finds it in plain floats: the two roots come
from the characteristic discriminant, each eigenvector from the larger
row of T - lambda I, and the timelike one is picked by the sign of its
Minkowski norm.  The closed-form branch velocity
(``velocity_closed_form``) reproduces the same direction where its branch
parameter theta is defined and is kept only as a cross-check: it
degenerates on every pure product or stationary configuration (P.S = 0),
while the eigenvector route stays regular there.

In null coordinates u = t - z and v = t + z the tensor's diagonal entries
are equal, which gives the eigenvector in closed form.  With
D-+ = |dPsi/dt -+ dPsi/dz| for the particle,

    lambda_time = m^2 |Psi|^2 + D- D+,   lambda_space = m^2 |Psi|^2 - D- D+,
    v = (D- - D+) / (D- + D+),

so disc = (2 D- D+)^2 is never negative, the timelike/spacelike split
fails only where D- D+ = 0, and a particle is static where D- = D+.  A
boost scales D- by e^{-a} and D+ by e^{+a}, so the degeneracy floor
(D- D+)^2 <= 1e-12 (m^2 |Psi|^2)^2, ``eigenflows``' disc against
1e-12 (tr T)^2, is the same in every frame; holding at equality, it
also takes D- D+ = 0 at m = 0 as degenerate.

``null_flow`` is that closed form.  The integrator and the sampler read
every flow from it, on floats (raising) or on numpy arrays (returning a
mask) alike; ``log_derivatives`` -> ``assemble`` -> ``eigenflows`` stays
as the independent route it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import (
    DegenerateFlowError,
    DegenerateThetaError,
    LightlikeVelocityError,
    NoTimelikeFlowError,
)
from .minkowski import VELOCITY_LIMIT, FourVector
from .wavefield import ConfigPoint, LogDerivatives, WaveModel, log_derivatives, shift_particle

# Characteristic discriminants below this fraction of (tr T)^2, in
# null_flow (D- D+)^2 against (m^2 |Psi|^2)^2, are treated as degenerate
# rather than resolved into eigenvectors.
DEGENERACY_FLOOR_RATIO = 1e-12

# Relative floor on |2 P.S| under which the closed-form branch parameter
# is considered undefined.
THETA_FLOOR_RATIO = 1e-10


@dataclass(frozen=True)
class StressTensor:
    """Mixed components T^mu_nu at one point, plus |Psi|^2 there.

    Field order is tt = T^t_t, tz = T^t_z, zt = T^z_t, zz = T^z_z.  The
    covariant form obtained by lowering the first index is symmetric,
    which in mixed components reads tz = -zt.
    """

    tt: float
    tz: float
    zt: float
    zz: float
    amplitude2: float

    def component(self, mu: str, nu: str) -> float:
        if mu in ("t", "z") and nu in ("t", "z"):
            return getattr(self, mu + nu)
        raise ValueError(f"indices must be 't' or 'z', got ({mu!r}, {nu!r})")

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.tt, self.tz], [self.zt, self.zz]])

    def lowered(self) -> np.ndarray:
        """Covariant components T_{mu nu}."""
        return np.array([[self.tt, self.tz], [-self.zt, -self.zz]])

    @property
    def trace(self) -> float:
        return self.tt + self.zz

    @property
    def det(self) -> float:
        return self.tt * self.zz - self.tz * self.zt


@dataclass(frozen=True)
class TimelikeFlow:
    """Timelike eigenvalue, its spacelike companion and the flow velocity.

    v = w.z / w.t is the guidance velocity, strictly subluminal; the unit
    future-pointing timelike eigenvector w = gamma (1, v) is derived from
    it on demand.
    """

    lambda_time: float
    lambda_space: float
    v: float

    @property
    def w(self) -> FourVector:
        gamma = 1.0 / math.sqrt((1.0 - self.v) * (1.0 + self.v))
        return FourVector(t=gamma, z=gamma * self.v)


def assemble(ld: LogDerivatives, i: int, m: float) -> StressTensor:
    """Mixed stress tensor of particle i from log-polar gradients."""
    if not m >= 0.0:
        raise ValueError(f"mass must be nonnegative, got {m!r}")
    pt, pz, st, sz = ld.particle(i)
    a2 = math.exp(2.0 * ld.p)
    iso = a2 * (m * m - (pt * pt - pz * pz) - (st * st - sz * sz))
    two_a2 = 2.0 * a2
    # Raising the first index flips the sign of the z-row terms: T^z_t is
    # -T^t_z, bit for bit, as both products are rounded symmetrically.
    tz = two_a2 * (pt * pz + st * sz)
    return StressTensor(
        tt=iso + two_a2 * (pt * pt + st * st),
        tz=tz,
        zt=-tz,
        zz=iso - two_a2 * (pz * pz + sz * sz),
        amplitude2=a2,
    )


def _row_eigvec(tt, tz, zt, zz, lam):
    """Eigenvector of T for eigenvalue lam from the larger row of T - lam I.

    A row (a, b) of the rank-one matrix T - lam I annihilates the
    eigenvector, so the eigenvector is (b, -a) up to scale; the larger row
    carries the smaller relative rounding error.  Each entry subtracts
    exactly representable components, so nearly lightlike directions stay
    resolvable where a backward-stable solver rounds onto the light cone.
    """
    r1t, r1z = tz, lam - tt
    r2t, r2z = lam - zz, zt
    if max(abs(r1t), abs(r1z)) >= max(abs(r2t), abs(r2z)):
        return r1t, r1z
    return r2t, r2z


def eigenflows(T: StressTensor) -> TimelikeFlow:
    """Timelike flow of T and both eigenvalues, computed in plain floats.

    The roots lambda = (tr +/- sqrt(disc)) / 2 come from the characteristic
    discriminant disc = tr^2 - 4 det, and each eigenvector from the larger
    row of T - lambda I.  The timelike eigenvector is picked by the sign of
    its Minkowski norm, never by root order.  This is the reference route:
    the integrator reads the same flow from ``null_flow``'s closed form.

    Raises no-timelike-flow for a negative discriminant (complex roots),
    degenerate-flow when the discriminant falls below the degeneracy floor
    or the eigenvectors do not split into one timelike and one spacelike
    direction, and lightlike-velocity when the flow velocity reaches the
    light-speed guard.
    """
    tt, tz, zt, zz = T.tt, T.tz, T.zt, T.zz
    tr = tt + zz
    disc = tr * tr - 4.0 * (tt * zz - tz * zt)
    if disc < 0.0:
        raise NoTimelikeFlowError(f"complex eigenvalue pair (discriminant {disc!r})")
    if disc < DEGENERACY_FLOOR_RATIO * tr * tr:
        raise DegenerateFlowError(
            f"discriminant {disc!r} below degeneracy floor for trace {tr!r}"
        )
    root = math.sqrt(disc)
    lam_hi, lam_lo = 0.5 * (tr + root), 0.5 * (tr - root)
    ht, hz = _row_eigvec(tt, tz, zt, zz, lam_hi)
    lt, lz = _row_eigvec(tt, tz, zt, zz, lam_lo)
    n_hi, n_lo = (ht - hz) * (ht + hz), (lt - lz) * (lt + lz)
    if n_hi > 0.0 > n_lo:
        wt, wz, lam_time, lam_space = ht, hz, lam_hi, lam_lo
    elif n_lo > 0.0 > n_hi:
        wt, wz, lam_time, lam_space = lt, lz, lam_lo, lam_hi
    else:
        raise DegenerateFlowError(
            f"eigenvectors do not split timelike/spacelike (norms {n_hi!r}, {n_lo!r})"
        )
    # Adding +0.0 turns a -0.0 from an exactly vanishing row entry into 0.0.
    v = wz / wt + 0.0
    if not abs(v) < VELOCITY_LIMIT:
        raise LightlikeVelocityError(
            f"flow velocity {v!r} at or beyond the light-speed guard"
        )
    return TimelikeFlow(lam_time, lam_space, v)


def null_flow(m2a2, d_t, d_z):
    """(lambda_time, v, bad) of one particle from m^2 |Psi|^2 and its
    field derivatives d_t = dPsi/dt_i and d_z = dPsi/dz_i.

    With D-+ = |d_t -+ d_z|, lambda_time = m^2 |Psi|^2 + D- D+ and
    v = (D- - D+) / (D- + D+): ``eigenflows``' timelike eigenvalue and
    velocity in closed form.  Floats raise degenerate-flow where
    (D- D+)^2 is not above the degeneracy floor times (m^2 |Psi|^2)^2, and
    then lightlike-velocity at the light-speed guard, and give bad = False.
    Arrays are evaluated everywhere and give instead the mask bad, True
    wherever a float would raise; v there is meaningless.
    """
    d_minus, d_plus = abs(d_t - d_z), abs(d_t + d_z)
    dd = d_minus * d_plus
    floor = DEGENERACY_FLOOR_RATIO * m2a2 * m2a2
    if not isinstance(dd, float):
        v = (d_minus - d_plus) / (d_minus + d_plus)
        return m2a2 + dd, v, ~((dd * dd > floor) & (abs(v) < VELOCITY_LIMIT))
    if not dd * dd > floor:
        raise DegenerateFlowError(
            f"D-D+ = {dd!r} at or below the degeneracy floor for m^2|Psi|^2 = {m2a2!r}"
        )
    v = (d_minus - d_plus) / (d_minus + d_plus)
    if not abs(v) < VELOCITY_LIMIT:
        raise LightlikeVelocityError(
            f"flow velocity {v!r} at or beyond the light-speed guard"
        )
    return m2a2 + dd, v, False


def velocity_closed_form(ld: LogDerivatives, i: int) -> float:
    """Branch-form guidance velocity for particle i; cross-check only.

    Both candidate directions S +/- e^{+/-theta} P (indices raised before
    use) are evaluated with sinh(theta) = (P.P - S.S) / (2 P.S), and the
    timelike one is returned.  Undefined wherever |2 P.S| falls below the
    gradient scale floor, which includes every product or stationary
    state; the eigenvector route is the authority at such points.
    """
    pt, pz, st, sz = ld.particle(i)
    pp = pt * pt - pz * pz
    ss = st * st - sz * sz
    ps = pt * st - pz * sz
    if abs(2.0 * ps) < THETA_FLOOR_RATIO * (abs(pp) + abs(ss) + 1e-30):
        raise DegenerateThetaError(
            f"2 P.S = {2.0 * ps!r} below floor relative to gradient scale"
        )
    sh = (pp - ss) / (2.0 * ps)
    # e^{theta} without cancellation for either sign of sinh(theta).
    if sh >= 0.0:
        e_theta = sh + math.sqrt(1.0 + sh * sh)
    else:
        e_theta = 1.0 / (math.sqrt(1.0 + sh * sh) - sh)
    candidates = []
    for branch in (e_theta, -1.0 / e_theta):
        wt = st + branch * pt
        wz = -(sz + branch * pz)
        if wt * wt - wz * wz > 0.0:
            candidates.append(wz / wt)
    if len(candidates) != 1:
        raise DegenerateFlowError(
            f"branches do not yield a unique timelike direction ({len(candidates)} found)"
        )
    v = candidates[0]
    if not abs(v) < VELOCITY_LIMIT:
        raise LightlikeVelocityError(
            f"closed-form velocity {v!r} at or beyond the light-speed guard"
        )
    return v


def conservation_residual(model: WaveModel, q: ConfigPoint, i: int, nu: str, h: float) -> float:
    """Central-difference estimate of d_mu T^mu_nu for particle i.

    The tensor is assembled from analytic first derivatives at points
    displaced by +/- h in particle i's time and space coordinates, so the
    estimate converges to the exact divergence at second order in h; for
    a state solving the field equation that limit is zero.
    """
    if not h > 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
    if nu not in ("t", "z"):
        raise ValueError(f"free index must be 't' or 'z', got {nu!r}")
    m = model.mass

    def tensor_at(point: ConfigPoint) -> StressTensor:
        return assemble(log_derivatives(model, point), i, m)

    t_plus = tensor_at(shift_particle(q, i, dt=+h))
    t_minus = tensor_at(shift_particle(q, i, dt=-h))
    z_plus = tensor_at(shift_particle(q, i, dz=+h))
    z_minus = tensor_at(shift_particle(q, i, dz=-h))
    return (
        (t_plus.component("t", nu) - t_minus.component("t", nu))
        + (z_plus.component("z", nu) - z_minus.component("z", nu))
    ) / (2.0 * h)
