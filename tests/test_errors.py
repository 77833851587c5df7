"""The error contract: every library input check raises ValidationError,
which is a ValueError, and only two exception types exist."""

import numpy as np
import pytest

from conftest import mixed_sequence, unit_square_gate
from raceplan import errors
from raceplan.errors import RaceplanError, ValidationError
from raceplan.gates import BallGate, DecisionVector, decode, shrink_margin, surject
from raceplan.model import QuadParams, dynamics
from raceplan.spline import BoundaryCondition, construct, propagate_gradients
from raceplan.trackio import TrackOptions

HOVER = BoundaryCondition.hover([0.0, 0.0, 1.0])


def _one_segment():
    return construct(np.zeros((0, 3)), [1.0], HOVER, HOVER)


@pytest.mark.parametrize("call, message", [
    (lambda: DecisionVector.for_sequence(mixed_sequence(2)).with_flat(np.zeros(1)),
     "flat vector length does not match"),
    (lambda: decode(mixed_sequence(2), DecisionVector.for_sequence(mixed_sequence(3))),
     "decision vector does not match gate sequence"),
    (lambda: surject(unit_square_gate(), np.zeros((2, 3))),
     r"gate parameters must be \(N, 4\)"),
    (lambda: construct(np.zeros((2, 2)), [1.0, 1.0, 1.0], HOVER, HOVER),
     r"waypoints must be \(L, 3\)"),
    (lambda: construct(np.zeros((2, 3)), [1.0], HOVER, HOVER),
     r"need exactly len\(P\)\+1 durations"),
    (lambda: construct(np.zeros((0, 3)), [1.0], BoundaryCondition(np.zeros((2, 3))),
                       HOVER),
     "boundary conditions must provide s rows"),
    (lambda: propagate_gradients(_one_segment(), np.zeros((6, 3)), np.zeros(0)),
     "dJ_dT_direct must have one entry per segment"),
    (lambda: dynamics(np.zeros((2, 12)), np.zeros((2, 4)), QuadParams.quad_a()),
     r"dynamics takes states \(N, 13\) and thrusts \(N, 4\)"),
    (lambda: _one_segment().eval_batch([1.5], 4),
     r"evaluation time outside \[0, total_time\]"),
    (lambda: shrink_margin(BallGate(center=[0, 0, 0], radius=0.5), 0.6),
     "margin exceeds ball radius"),
    (lambda: shrink_margin(unit_square_gate(), 2.0),
     "margin consumes the polytope gate"),
    (lambda: BoundaryCondition.hover([np.nan, 0.0, 1.0]),
     "boundary condition must be finite"),
    (lambda: BoundaryCondition.hover([np.inf, 0.0, 1.0]),
     "boundary condition must be finite"),
    (lambda: BoundaryCondition(np.r_[[[0.0, 0.0, 1.0]], np.full((2, 3), -np.inf)]),
     "boundary condition must be finite"),
    (lambda: TrackOptions(margin="0.3"), "options.margin must be a number"),
    (lambda: TrackOptions(margin=None), "options.margin must be a number"),
    (lambda: TrackOptions(waypoint_tolerance="0.3"),
     "options.waypoint_tolerance must be a number"),
    (lambda: TrackOptions(waypoint_tolerance=None),
     "options.waypoint_tolerance must be a number"),
], ids=["with_flat", "decode", "surject", "construct-width", "construct-durations",
        "construct-boundary", "propagate_gradients", "dynamics", "eval_batch",
        "shrink-ball", "shrink-polytope", "boundary-nan", "boundary-inf",
        "boundary-derivative-inf", "margin-str",
        "margin-none", "tolerance-str", "tolerance-none"])
def test_input_checks_raise_value_errors(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert isinstance(info.value, ValidationError)


def test_two_exception_types():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {"RaceplanError", "ValidationError"}
    assert issubclass(ValidationError, RaceplanError)
