"""Exception types shared across the library.

``FlowError`` subclasses mark evaluation failures the trajectory
integrator absorbs into a termination tag instead of propagating; the
remaining types signal misuse or failed procedures and always propagate.

Each failure's termination tag (``tag``) and CLI exit code (``exit_code``)
are class attributes, written here once (``cli.ConfigError`` carries exit
code 2); a completed run exits 0.
"""


class FlowError(Exception):
    """Base class for per-point evaluation failures along a flow line.

    Its tag and exit code are those of degenerate, missing-timelike and
    lightlike flows: the guidance law stopped defining a direction.
    """

    tag = "degenerate_abort"
    exit_code = 4


class LightlikeVelocityError(FlowError):
    """Velocity at or beyond the light-speed guard; never clamped."""


class NodeProximityError(FlowError):
    """Squared amplitude below the node floor; log derivatives undefined."""

    tag = "node_abort"
    exit_code = 3


class NoTimelikeFlowError(FlowError):
    """Stress tensor has no real timelike eigenvector."""


class DegenerateFlowError(FlowError):
    """Eigenstructure too degenerate to single out a timelike direction."""


class BoundaryError(FlowError):
    """Configuration point left the well region where the state is defined."""

    tag = "boundary_abort"
    exit_code = 5


class DegenerateThetaError(Exception):
    """Closed-form velocity branch parameter undefined (gradient contraction
    P.S too close to zero relative to the gradient scale)."""


class SamplingError(Exception):
    """Rejection sampling exhausted its attempt budget."""

    exit_code = 4


class ComparisonFailure(Exception):
    """Frame comparison could not align two complete trajectories."""

    exit_code = 6
