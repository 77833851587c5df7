"""The error contract: every library input check raises ValidationError,
which is a ValueError, and only two exception types exist."""

from dataclasses import replace

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
from raceplan.optimizer import OptimizerConfig
from raceplan.spline import BoundaryCondition, construct, propagate_gradients
from raceplan.trackio import TrackOptions
from raceplan.tracks import enlarge_gate

HOVER = BoundaryCondition.hover([0.0, 0.0, 1.0])


def _one_segment():
    return construct(np.zeros((0, 3)), [1.0], HOVER, HOVER)


def _quad(**given):
    """quad_a with the given fields replaced."""
    return replace(QuadParams.quad_a(), **given)


#: The one check's refusal of a whole vector and of one of its entries.
_SHAPE = r" must be a \(3,\) array of numbers in "
_BOUNDARY = (r"^boundary condition\[{}, 0\] must be a number in "
             r"\[-1e\+06, 1e\+06\], got {}$")


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
    (lambda: BoundaryCondition.hover([np.nan, 0.0, 1.0]), _BOUNDARY.format(0, "nan")),
    (lambda: BoundaryCondition.hover([np.inf, 0.0, 1.0]), _BOUNDARY.format(0, "inf")),
    (lambda: BoundaryCondition(np.r_[[[0.0, 0.0, 1.0]], np.full((2, 3), -np.inf)]),
     _BOUNDARY.format(1, "-inf")),
    (lambda: TrackOptions(margin="0.3"), "options.margin must be a number"),
    (lambda: TrackOptions(margin=None), "options.margin must be a number"),
    (lambda: TrackOptions(waypoint_tolerance="0.3"),
     "options.waypoint_tolerance must be a number"),
    (lambda: TrackOptions(waypoint_tolerance=None),
     "options.waypoint_tolerance must be a number"),
    (lambda: BallGate(center=[0, 0, 0], radius=True),
     r"^ball gate radius must be a number in \[0, 1e\+06\], got True$"),
    (lambda: BallGate(center=[0, 0, 0], radius="1.0"),
     r"^ball gate radius must be a number in \[0, 1e\+06\], got '1.0'$"),
    (lambda: TrackOptions(waypoint_tolerance=0.0),
     r"^options.waypoint_tolerance must be a number in \(0, 1e\+06\], got 0.0$"),
    (lambda: TrackOptions(waypoint_tolerance=-1.0),
     r"^options.waypoint_tolerance must be a number in \(0, 1e\+06\], got -1.0$"),
    (lambda: GateSequence(()), "gate sequence must be nonempty"),
    (lambda: time_map_inverse([0.0]), "durations must be positive"),
    (lambda: shrink_margin(unit_square_gate(), -0.1),
     r"^margin must be a number in \[0, inf\], got -0.1$"),
    (lambda: enlarge_gate(unit_square_gate(), 0.5),
     r"^factor must be a number in \[1, inf\], got 0.5$"),
    (lambda: BallGate(center=[1, 2], radius=1.0), "^ball gate center" + _SHAPE),
    (lambda: _quad(inertia_diag=[1, 2]), "^inertia_diag" + _SHAPE),
    (lambda: _quad(f_max="6.88"),
     r"^f_max must be a number in \[1e-06, 1e\+06\], got '6.88'$"),
    (lambda: shrink_margin(unit_square_gate(), "a"),
     r"^margin must be a number in \[0, inf\], got 'a'$"),
    (lambda: enlarge_gate(unit_square_gate(), "a"),
     r"^factor must be a number in \[1, inf\], got 'a'$"),
    (lambda: _quad(mass=np.nextafter(WORKSPACE, np.inf)),
     r"^mass must be a number in \[1e-06, 1e\+06\], got 1000000.0000000001$"),
    (lambda: _quad(f_max=np.nextafter(1 / WORKSPACE, 0)),
     r"^f_max must be a number in \[1e-06, 1e\+06\], got 9.999999999999997e-07$"),
    (lambda: verify(np.zeros(2), np.zeros((3, 13)), np.zeros((3, 4)),
                    mixed_sequence(1), QuadParams.quad_a()),
     "^trajectory times, states and controls must have the same number of rows"),
    (lambda: verify(np.zeros(0), np.zeros((0, 13)), np.zeros((0, 4)),
                    mixed_sequence(1), QuadParams.quad_a()), ", at least 1$"),
], ids=["with_flat", "decode", "surject", "construct-width", "construct-durations",
        "construct-boundary", "propagate_gradients", "dynamics", "eval_batch",
        "shrink-ball", "shrink-polytope", "boundary-nan", "boundary-inf",
        "boundary-derivative-inf", "margin-str",
        "margin-none", "tolerance-str", "tolerance-none", "radius-bool", "radius-str",
        "tolerance-zero", "tolerance-negative", "sequence-empty",
        "time_map_inverse", "shrink-negative", "enlarge-below-one", "center-shape",
        "inertia-shape", "f_max-str", "shrink-str", "enlarge-str", "mass-above",
        "f_max-below", "verify-rows", "verify-empty"])
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
    times, positions or thrusts, given as lists, set to value."""
    arrays = {"times": [0.0, 0.01, 0.02],
              "states": np.tile([0.0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], (3, 1)),
              "controls": np.full((3, 4), 2.0)}
    rows = arrays[where] = np.asarray(arrays[where]).tolist()
    (rows if where == "times" else rows[0])[0] = value
    seq = GateSequence((BallGate(center=[0.0, 0.0, 1.0], radius=0.5),))
    return verify(*arrays.values(), seq, QuadParams.quad_a())


#: The least float above 0, the least value that an end open at 0 accepts.
_TINY = np.nextafter(0.0, 1.0)

#: Each place a number enters, as a function of the value it is given,
#: with the least and the greatest value it accepts.  None stands for an
#: end that another rule reaches first: hovering bounds the mass above and
#: the thrust below.
ENTRIES = {
    "ball-center": (lambda x: BallGate(center=[x, 0.0, 0.0], radius=1.0),
                    -WORKSPACE, WORKSPACE),
    "ball-radius": (lambda x: BallGate(center=[0.0, 0.0, 0.0], radius=x),
                    0.0, WORKSPACE),
    "polytope-vertex": (lambda x: PolytopeGate.from_vertices(
        [[x, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        planar=False), -WORKSPACE, WORKSPACE),
    "boundary-condition": (lambda x: BoundaryCondition(
        [[0.0, x, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), -WORKSPACE, WORKSPACE),
    "margin": (lambda x: TrackOptions(margin=x), 0.0, WORKSPACE),
    "waypoint-tolerance": (lambda x: TrackOptions(waypoint_tolerance=x),
                           _TINY, WORKSPACE),
    **{f"verify-{where}": (lambda x, where=where: _verify_with(where, x),
                           -WORKSPACE, WORKSPACE)
       for where in ("times", "states", "controls")},
    "initial-speed-guess": (lambda x: OptimizerConfig(initial_speed_guess=x),
                            _TINY, WORKSPACE),
    "dt": (lambda x: OptimizerConfig(dt=x), _TINY, WORKSPACE),
    "mass": (lambda x: _quad(mass=x), 1 / WORKSPACE, None),
    "arm-length": (lambda x: _quad(arm_length=x), 1 / WORKSPACE, WORKSPACE),
    "inertia-diag": (lambda x: _quad(inertia_diag=[1e-3, x, 1.7e-3]),
                     1 / WORKSPACE, WORKSPACE),
    "torque-const": (lambda x: _quad(torque_const=x), 1 / WORKSPACE, WORKSPACE),
    "f-min": (lambda x: _quad(f_min=x), 0.0, np.nextafter(6.88, 0.0)),
    "f-max": (lambda x: _quad(f_max=x), None, WORKSPACE),
    "omega-max": (lambda x: _quad(omega_max=[15.0, 15.0, x]),
                  1 / WORKSPACE, WORKSPACE),
}


@pytest.mark.parametrize("enter, least, greatest", ENTRIES.values(), ids=list(ENTRIES))
def test_workspace_bound_is_checked_where_values_enter(enter, least, greatest):
    """The least and the greatest value an entry accepts are accepted; the
    next float beyond each, NaN, a bool and a string are refused by the one
    number check, whose message states the range."""
    refused = [np.nan, True, "1.0"]
    for end, beyond in ((least, -np.inf), (greatest, np.inf)):
        if end is not None:
            enter(end)
            refused.append(np.nextafter(end, beyond))
    for value in refused:
        with pytest.raises(ValidationError, match=r" must be (a number|a \(.*\) array "
                           r"of numbers) in [\[(]"):
            enter(value)
