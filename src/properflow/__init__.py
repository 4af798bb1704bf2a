"""Lorentz-covariant flow trajectories for multi-time two-particle states.

The library evaluates entangled multi-time wave functions on two-particle
configuration space-time, assembles each particle's stress-energy tensor
from the log-polar field split, takes the future-pointing timelike
eigenvector as that particle's four-velocity, and advances both particles
by equal proper-time increments along null coordinates.  The stepping rule
commutes with passive boosts, so trajectories computed in different
inertial frames are Lorentz transforms of one another, step by step.
"""

from .errors import (
    BoundaryError,
    ComparisonFailure,
    DegenerateFlowError,
    DegenerateThetaError,
    FlowError,
    LightlikeVelocityError,
    NodeProximityError,
    NoTimelikeFlowError,
    SamplingError,
)
from .minkowski import (
    VELOCITY_LIMIT,
    FourVector,
    NullStep,
    Rapidity,
    boost,
    minkowski_dot,
    proper_step,
    rapidity_from_velocity,
    velocity_addition,
)
from .wavefield import (
    BoxMode,
    ConfigPoint,
    LogDerivatives,
    ModeSum,
    WaveModel,
    boosted,
    box_mode,
    entangled_pair,
    kg_residual,
    log_derivatives,
    lone_state,
    product_pair,
    rescaled,
    shift_particle,
)
from .stress_energy import (
    StressTensor,
    TimelikeFlow,
    assemble,
    conservation_residual,
    eigenflows,
    velocity_closed_form,
)
from .integrator import (
    StepRecord,
    Trajectory,
    integrate,
    reverse_check,
    sample_hyperplane,
    step,
)
from .covariance import (
    ConvergenceReport,
    FrameComparison,
    boost_configuration,
    compare_frames,
    convergence_study,
    coordination_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "BoxMode",
    "ComparisonFailure",
    "ConfigPoint",
    "ConvergenceReport",
    "DegenerateFlowError",
    "DegenerateThetaError",
    "FlowError",
    "FourVector",
    "FrameComparison",
    "LightlikeVelocityError",
    "LogDerivatives",
    "ModeSum",
    "NodeProximityError",
    "NoTimelikeFlowError",
    "NullStep",
    "Rapidity",
    "SamplingError",
    "StepRecord",
    "StressTensor",
    "TimelikeFlow",
    "Trajectory",
    "VELOCITY_LIMIT",
    "WaveModel",
    "assemble",
    "boost",
    "boost_configuration",
    "boosted",
    "box_mode",
    "compare_frames",
    "conservation_residual",
    "convergence_study",
    "coordination_profile",
    "eigenflows",
    "entangled_pair",
    "integrate",
    "kg_residual",
    "log_derivatives",
    "lone_state",
    "minkowski_dot",
    "product_pair",
    "proper_step",
    "rapidity_from_velocity",
    "rescaled",
    "reverse_check",
    "sample_hyperplane",
    "shift_particle",
    "step",
    "velocity_addition",
    "velocity_closed_form",
]
