"""Time-optimal quadrotor trajectory planning through spatial racing gates."""

from .cost import CostReport, objective, penalty, samples
from .errors import (
    DimensionMismatch, EmptyAfterShrink, OutOfDomain, ParseError,
    RaceplanError, SingularFlatness, SingularSystem, ValidationError,
)
from .gates import (
    BallGate, DecisionVector, GateSequence, PolytopeGate, ball_contains,
    ball_surject, decode, polytope_contains, polytope_surject, shrink_margin,
    time_map, time_map_inverse,
)
from .model import (
    FlatSample, QuadParams, QuadState, RotorThrusts, constraint_residuals,
    dynamics, flat_to_control, flat_to_state, mixer_forward, mixer_inverse,
)
from .optimizer import OptimizerConfig, PlanResult, SolveDiagnostics, initialize, solve
from .spline import (
    BoundaryCondition, TrajectorySpline, construct, propagate_gradients,
)
from .trackio import (
    TrackFile, TrackOptions, build_sequence, concatenate_laps, parse, serialize,
)

__version__ = "0.1.0"
