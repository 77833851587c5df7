"""Time-optimal quadrotor trajectory planning through spatial racing gates."""

from ._flatjet import FlatOutputs, flat_outputs, mixer_matrix
from .checks import Check, verify
from .cost import CostReport, objective, penalty, samples
from .errors import RaceplanError, ValidationError
from .gates import (
    BallGate, DecisionVector, GateSequence, PolytopeGate, contains, decode,
    shrink_margin, surject, time_map, time_map_inverse,
)
from .model import QuadParams, dynamics, limit_residuals
from .optimizer import OptimizerConfig, PlanResult, SolveDiagnostics, initialize, solve
from .spline import (
    BoundaryCondition, TrajectorySpline, construct, propagate_gradients,
)
from .trackio import (
    TrackFile, TrackOptions, build_sequence, parse, serialize,
)

__version__ = "0.1.0"
