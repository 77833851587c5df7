"""The error contract: every library input check raises ValidationError,
which is a ValueError, and only two exception types exist."""

import numpy as np
import pytest

from conftest import mixed_sequence, unit_square_gate
from raceplan import errors
from raceplan.errors import RaceplanError, ValidationError
from raceplan.checks import verify
from raceplan.gates import (
    WORKSPACE, BallGate, DecisionVector, GateSequence, PolytopeGate, decode,
    shrink_margin, surject, time_map_inverse,
)
from raceplan.model import QuadParams, dynamics
from raceplan.spline import BoundaryCondition, construct, propagate_gradients
from raceplan.trackio import TrackOptions
from raceplan.tracks import enlarge_gate

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
    (lambda: BallGate(center=[0, 0, 0], radius=True),
     "ball gate radius must be a number, got True"),
    (lambda: BallGate(center=[0, 0, 0], radius="1.0"),
     "ball gate radius must be a number, got '1.0'"),
    (lambda: TrackOptions(waypoint_tolerance=0.0),
     "options.waypoint_tolerance must be > 0"),
    (lambda: TrackOptions(waypoint_tolerance=-1.0),
     "options.waypoint_tolerance must be > 0"),
    (lambda: GateSequence(()), "gate sequence must be nonempty"),
    (lambda: time_map_inverse([0.0]), "durations must be positive"),
    (lambda: shrink_margin(unit_square_gate(), -0.1), "margin must be >= 0"),
    (lambda: enlarge_gate(unit_square_gate(), 0.5), "factor must be >= 1"),
], ids=["with_flat", "decode", "surject", "construct-width", "construct-durations",
        "construct-boundary", "propagate_gradients", "dynamics", "eval_batch",
        "shrink-ball", "shrink-polytope", "boundary-nan", "boundary-inf",
        "boundary-derivative-inf", "margin-str",
        "margin-none", "tolerance-str", "tolerance-none", "radius-bool", "radius-str",
        "tolerance-zero", "tolerance-negative", "sequence-empty",
        "time_map_inverse", "shrink-negative", "enlarge-below-one"])
def test_input_checks_raise_value_errors(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert isinstance(info.value, ValidationError)


def test_two_exception_types():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {"RaceplanError", "ValidationError"}
    assert issubclass(ValidationError, RaceplanError)


def _verify_with(where, value):
    """verify of a three-sample hover at a ball, with the first entry of the
    times, positions or thrusts set to value."""
    times = np.array([0.0, 0.01, 0.02])
    states = np.zeros((3, 13))
    states[:, 2], states[:, 3] = 1.0, 1.0
    controls = np.full((3, 4), 2.0)
    {"times": times, "states": states, "controls": controls}[where].flat[0] = value
    seq = GateSequence((BallGate(center=[0.0, 0.0, 1.0], radius=0.5),))
    return verify(times, states, controls, seq, QuadParams.quad_a())


#: Each place a length, coordinate or sample enters, as a function of the
#: value it is given.
ENTRIES = {
    "ball-center": lambda x: BallGate(center=[x, 0.0, 0.0], radius=1.0),
    "ball-radius": lambda x: BallGate(center=[0.0, 0.0, 0.0], radius=x),
    "polytope-vertex": lambda x: PolytopeGate.from_vertices(
        [[x, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        planar=False),
    "boundary-condition": lambda x: BoundaryCondition.hover([0.0, x, 1.0]),
    "margin": lambda x: TrackOptions(margin=x),
    "waypoint-tolerance": lambda x: TrackOptions(waypoint_tolerance=x),
    **{f"verify-{where}": lambda x, where=where: _verify_with(where, x)
       for where in ("times", "states", "controls")},
}


@pytest.mark.parametrize("enter", ENTRIES.values(), ids=list(ENTRIES))
def test_workspace_bound_is_checked_where_values_enter(enter):
    """Exactly WORKSPACE is accepted; the next float above it, and NaN, are
    refused with a ValidationError."""
    enter(WORKSPACE)
    for value in (np.nextafter(WORKSPACE, np.inf), np.nan):
        with pytest.raises(ValidationError, match=r"must be finite and of "
                           r"magnitude at most 1e\+06$"):
            enter(value)
