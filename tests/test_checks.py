"""verify's gate screen: pinned against a frozen copy of the per-gate search
it replaced, its distance bound, and the work it does as tracks grow; and
the refusal of tracks and samples past the workspace before it runs."""

import contextlib
import io
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from conftest import mixed_sequence, tetra_gate, unit_square_gate
from raceplan import checks, trackio, tracks
from raceplan.checks import GOLDEN, GOLDEN_STEPS, PASS_TOL, _residuals, verify
from raceplan.cli import EXIT_VALIDATION, _read_csv, _write_csv, main
from raceplan.errors import ValidationError
from raceplan.gates import (
    EPS_PLANE, BallGate, GateSequence, PolytopeGate, contains, contains_floor,
)
from raceplan.model import QuadParams
from raceplan.optimizer import solve
from raceplan.spline import BoundaryCondition


# ---------------------------------------------------------------------------
# the oracle: verify's gate containment as it ran gate by gate, frozen

def _oracle_contains(gate, p):
    p = np.asarray(p, dtype=float)
    if isinstance(gate, BallGate):
        res = np.linalg.norm(p - gate.center, axis=-1) - gate.radius
    else:
        a_mat, b_vec = gate.halfspaces
        res = np.max((p[..., None, :] * a_mat).sum(axis=-1) - b_vec, axis=-1)
        if gate.is_planar:
            normal, off = gate.plane
            res = np.maximum(res, np.abs((p * normal).sum(axis=-1) - off)
                             - EPS_PLANE)
    return res


def _oracle_residuals(gate, times, positions, velocities):
    """One gate's residual at every sample, as the per-gate verify found
    it: contains at the sample, lowered by the golden-section search of the
    Hermite piece after it where the Lipschitz screen keeps that piece."""
    res = _oracle_contains(gate, positions)
    dt = np.diff(times)[:, None]
    d0, d1 = dt * velocities[:-1], dt * velocities[1:]
    gap = np.diff(positions, axis=0)
    length = (np.linalg.norm(d0, axis=1) + np.linalg.norm(d1, axis=1)
              + np.linalg.norm(3 * gap - d0 - d1, axis=1)) / 3
    k = np.flatnonzero(np.maximum(res[:-1], res[1:]) - length <= PASS_TOL)
    p0, d0, d1, gap = positions[k], d0[k], d1[k], gap[k]
    c2, c3 = 3 * gap - 2 * d0 - d1, d0 + d1 - 2 * gap

    def measure(lam):
        lam = lam[:, None]
        return _oracle_contains(gate, p0 + lam * (d0 + lam * (c2 + lam * c3)))

    x = np.full(len(k), GOLDEN)
    lo, hi, fx = np.zeros(len(k)), np.ones(len(k)), measure(x)
    for _ in range(GOLDEN_STEPS):
        y = lo + hi - x
        fy = measure(y)
        x, worse = np.where(fy < fx, y, x), np.where(fy < fx, x, y)
        fx = np.minimum(fx, fy)
        lo, hi = np.where(worse < x, worse, lo), np.where(worse > x, worse, hi)
    res[k] = np.minimum(res[k], fx)
    return res


def _oracle_verdicts(times, states, seq):
    """Each gate's residuals, and the gate containment and traversal order
    verdicts of the per-gate sweep."""
    positions, velocities = states[:, :3], states[:, 7:10]
    residuals = [_oracle_residuals(g, times, positions, velocities)
                 for g in seq.gates]
    idx, contained, ordered = 0, True, True
    for res in residuals:
        passes = np.flatnonzero(res <= PASS_TOL)
        later = passes[passes >= idx]
        contained &= len(passes) > 0
        ordered &= len(later) > 0 or len(passes) == 0
        idx = later[0] if len(later) else idx
    return residuals, [contained, ordered]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _edit(rows, columns, value):
    """Set the columns of those state rows to value."""
    def edit(states):
        states = states.copy()
        states[rows, columns] = value
        return states
    return edit


def _set(path, value):
    """Set the node at path of a track document to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


#: Case -> the track planned and its mode; its export is checked as
#: exported against the same track.
CASES = {
    "loop7": ("loop", "togt"),
    "loop7-wp": ("loop", "togt-wp"),
    "random100": (100, "togt"),
    "random101": (101, "togt"),
    "random103": (103, "togt"),
    "random107": (107, "togt"),
}

_SAMPLES = "trajectory states[0, {}] must be a number in [-1e+06, 1e+06], got {}"
_CENTER = "gates[2]: ball gate center[0] must be a number in [-1e+06, 1e+06], got {}"
_RADIUS = "gates[{}]: ball gate radius must be a number in [0, 1e+06], got {}"
#: Case past the workspace -> the track planned, its mode, an edit of the
#: checked track's document and one of the exported states (None: as
#: planned), and the error that refuses it: the track where it is read, or
#: the samples where verify receives them.
REFUSED = {
    "nan-positions": ("loop", "togt", None,
                      _edit(slice(None), slice(0, 3), np.nan),
                      _SAMPLES.format(0, "nan")),
    "nan-every-7th": ("loop", "togt", None,
                      _edit(slice(None, None, 7), slice(0, 3), np.nan),
                      _SAMPLES.format(0, "nan")),
    "inf-every-9th": ("loop", "togt", None,
                      _edit(slice(None, None, 9), 0, np.inf),
                      _SAMPLES.format(0, "inf")),
    "inf-velocity": ("loop", "togt", None,
                     _edit(slice(None, None, 5), 7, -np.inf),
                     _SAMPLES.format(7, "-inf")),
    "far-samples": ("loop", "togt", None,
                    _edit(slice(None, None, 11), 1, 1.5e308),
                    _SAMPLES.format(1, "1.5e+308")),
    "far-ball": (103, "togt", _set(("gates", 2, "center", 0), 1e300), None,
                 _CENTER.format("1e+300")),
    "farthest-ball": (103, "togt", _set(("gates", 2, "center", 0), 1.7e308),
                      None, _CENTER.format("1.7e+308")),
    "ball-1e305": (103, "togt", _set(("gates", 2, "radius"), 1e305),
                   _edit(slice(100, 130), 1, 1e302), _RADIUS.format(2, "1e+305")),
    "ball-1e40": ("loop", "togt", _set(("gates", 3), {
        "type": "ball", "center": [1.0, 2.0, 1.0], "radius": 1e40}), None,
                  _RADIUS.format(3, "1e+40")),
}


@pytest.fixture(scope="module")
def plans():
    """Each planned track and mode's export: times, states, controls."""
    out = {}
    for source, mode, *_ in (*CASES.values(), *REFUSED.values()):
        if (source, mode) not in out:
            track = (tracks.loop_track() if source == "loop"
                     else tracks.random_track(source))
            seq = trackio.build_sequence(track, mode=mode)
            result = solve(seq, track.quad, BoundaryCondition.hover(track.start),
                           BoundaryCondition.hover(track.finish))
            out[source, mode] = (track, (result.sample_times, result.states,
                                         result.controls))
    return out


@pytest.fixture(scope="module", params=[*CASES, *REFUSED])
def case(request, plans, tmp_path_factory):
    """A case's planned track, the track file checked, the mode and the
    trajectory, as plan verifies it (in memory) and as check reads it back
    from its CSV.  A refused case's ``refused`` is its error."""
    if request.param in REFUSED:
        source, mode, redoc, edit, refused = REFUSED[request.param]
    else:
        (source, mode), redoc, edit, refused = CASES[request.param], None, None, None
    track, (times, states, controls) = plans[source, mode]
    states = edit(states) if edit else states
    root = tmp_path_factory.mktemp(request.param)
    csv, path = root / "trajectory.csv", root / "track.yaml"
    _write_csv(csv, times, states, controls)
    text = trackio.serialize(track)
    if redoc:
        doc = yaml.safe_load(text)
        redoc(doc)
        text = yaml.safe_dump(doc)
    path.write_text(text)
    data = _read_csv(csv)
    return SimpleNamespace(track=track, mode=mode, path=path, csv=csv,
                           refused=refused, trajectories={
                               "memory": (times, states, controls),
                               "csv": (data[:, 0], data[:, 1:14], data[:, 14:18])})


def _verify_as_read(case, source):
    """verify of the case's trajectory against its track file as read."""
    track = trackio.parse(case.path)
    seq = trackio.build_sequence(track, mode=case.mode)
    return verify(*case.trajectories[source], seq, track.quad)


class TestAgainstPerGateSearch:
    @pytest.mark.parametrize("source", ["memory", "csv"])
    def test_pass_sets_and_kept_residuals(self, case, source, monkeypatch):
        """Each gate passes at the same samples as under the per-gate
        search, and every (gate, sample) pair that the screen keeps has the
        residual that search found there, bit for bit.  A case past the
        workspace is refused before the screen sees it."""
        if case.refused:
            monkeypatch.setattr(checks, "_residuals",
                                lambda *args: pytest.fail("screened"))
            with pytest.raises(ValidationError):
                _verify_as_read(case, source)
            return
        times, states, _ = case.trajectories[source]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        expected, _ = _oracle_verdicts(times, states, seq)
        gate, row, res = _residuals(seq.gates, times, states[:, :3],
                                    states[:, 7:10])
        assert np.all(np.diff(gate * (len(times) + 1) + row) > 0)
        for g, oracle in enumerate(expected):
            mine = gate == g
            assert np.array_equal(row[mine & (res <= PASS_TOL)],
                                  np.flatnonzero(oracle <= PASS_TOL))
            assert np.array_equal(_bits(res[mine]), _bits(oracle[row[mine]]))

    @pytest.mark.parametrize("source", ["memory", "csv"])
    def test_verdicts(self, case, source):
        """verify's containment and order verdicts are the per-gate ones;
        a case past the workspace ends in its one error."""
        if case.refused:
            with pytest.raises(ValidationError) as info:
                _verify_as_read(case, source)
            assert str(info.value) == case.refused
            return
        times, states, controls = case.trajectories[source]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        _, expected = _oracle_verdicts(times, states, seq)
        found = verify(times, states, controls, seq, case.track.quad)
        assert [c.passed for c in found[:2]] == expected

    def test_check_stdout(self, case):
        """check prints what the per-gate verdicts and the other checks of
        the CSV give; for a case past the workspace, nothing, and its error
        as one stderr line with exit 1."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(case.csv), str(case.path),
                         "--mode", case.mode])
        if case.refused:
            assert (code, out.getvalue(), err.getvalue()) == (
                EXIT_VALIDATION, "", f"error: {case.refused}\n")
            return
        times, states, controls = case.trajectories["csv"]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        _, expected = _oracle_verdicts(times, states, seq)
        others = verify(times, states, controls, seq, case.track.quad)[2:]
        lines = [checks.Check("gate containment", expected[0]),
                 checks.Check("traversal order", expected[1]), *others]
        assert out.getvalue() == "".join(f"{c}\n" for c in lines)


# ---------------------------------------------------------------------------
# the screen's bound

def _polygon():
    """A skewed pentagon in a tilted plane."""
    angles = np.array([0.0, 1.1, 2.3, 3.9, 5.0])
    local = np.stack([2.0 * np.cos(angles), 0.7 * np.sin(angles)], axis=1)
    frame = np.linalg.qr(np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4],
                                   [0.3, 0.2, 1.0]]))[0]
    return PolytopeGate.from_vertices(
        np.array([3.0, -1.0, 2.0]) + local @ frame[:, :2].T, planar=True)


@pytest.mark.parametrize("gate", [
    BallGate(center=[1.0, -2.0, 0.5], radius=0.8), unit_square_gate(1.5),
    _polygon(), tetra_gate((2.0, 1.0, -1.0), 0.7),
    tracks.random_track(103).gates[1],
], ids=["ball", "square", "pentagon", "tetrahedron", "random103-polyhedron"])
def test_contains_floor_bounds_contains(gate):
    """contains(p) >= mu |p - c| - beta at random points near the gate and
    far from it, along random directions, along a polygon's normal and
    along the directions of a polytope's halfspace rows."""
    center, mu, beta = contains_floor(gate)
    assert 0 < mu <= 1 and beta >= 0
    rng = np.random.default_rng(7)
    directions = rng.normal(size=(3000, 3))
    if isinstance(gate, PolytopeGate):
        rows = gate.halfspaces[0]
        if gate.is_planar:
            rows = np.vstack([rows, gate.plane[0], -gate.plane[0]])
        directions = np.vstack([directions, rows, -rows])
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    for scale in (1e-6, 1e-3, 0.1, 1.0, 3.0, 30.0, 1e4, 1e8):
        dist = scale * rng.uniform(0.0, 1.0, size=(len(directions), 1))
        p = center + dist * directions
        bound = mu * np.linalg.norm(p - center, axis=1) - beta
        assert np.all(contains(gate, p) >= bound - 1e-12 * (1 + scale))


def test_contains_floor_of_a_polygon_counts_its_plane():
    """A unit square's edges lie 0.5 from its centroid and its plane rows
    EPS_PLANE, so beta = 0.5; its six normals, the in-plane four and the
    plane's two, span an octahedron, so mu = 1/sqrt(3)."""
    center, mu, beta = contains_floor(unit_square_gate())
    assert np.allclose(center, [0.5, 0.5, 0.0])
    assert mu == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    assert beta == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# the work, counted

@pytest.fixture
def counted(monkeypatch):
    """The number of points that verify hands to containment."""
    count = [0]
    batched = checks.containment

    def counting(gates, which):
        measure = batched(gates, which)

        def wrapped(p):
            count[0] += len(p)
            return measure(p)
        return wrapped

    monkeypatch.setattr(checks, "containment", counting)
    return count


def _straight_line(n_gates, spacing=4.0, speed=10.0, dt=0.01):
    """mixed_sequence(n_gates)'s gates and a straight flight through them
    along y = 0, z = 1.5 at a steady speed: times, states, controls."""
    times = np.arange(0.0, spacing * (n_gates + 1) / speed, dt)
    states = np.zeros((len(times), 13))
    states[:, 0], states[:, 2] = speed * times, 1.5
    states[:, 3], states[:, 7] = 1.0, speed
    return times, states, np.full((len(times), 4), 3.0)


def _laps(n_laps, radius=6.0, speed=8.0, dt=0.01):
    """Seven balls on a circle, repeated lap after lap as a lap track
    repeats its gate objects, and a circular flight through them."""
    angles = 2 * np.pi * (np.arange(7) + 0.5) / 7
    balls = tuple(BallGate(center=[radius * np.cos(a), radius * np.sin(a), 1.0],
                           radius=0.5) for a in angles)
    times = np.arange(0.0, n_laps * 2 * np.pi * radius / speed, dt)
    theta = speed / radius * times
    states = np.zeros((len(times), 13))
    states[:, 0], states[:, 1], states[:, 2] = (radius * np.cos(theta),
                                                radius * np.sin(theta), 1.0)
    states[:, 3] = 1.0
    states[:, 7], states[:, 8] = -speed * np.sin(theta), speed * np.cos(theta)
    return GateSequence(balls * n_laps), (times, states,
                                          np.full((len(times), 4), 3.0))


def test_flight_near_no_gate_fails_containment():
    """A flight 100 m above every gate leaves the screen no (gate, sample)
    pair at all: gate containment fails, and the empty order passes."""
    times, states, controls = _straight_line(7)
    states[:, 2] += 100.0
    result = verify(times, states, controls, mixed_sequence(7),
                    QuadParams.quad_a())
    assert [c.passed for c in result[:2]] == [False, True]


def test_containment_work_per_gate_is_bounded_on_a_line(counted):
    """Through 7, 56 and 224 gates in a row, verify hands containment the
    same number of points per gate, give or take the ends: the screen keeps
    the samples near each gate, not every sample."""
    quad = QuadParams.quad_a()
    per_gate = {}
    for n in (7, 56, 224):
        times, states, controls = _straight_line(n)
        counted[0] = 0
        result = verify(times, states, controls, mixed_sequence(n), quad)
        assert [c.passed for c in result[:2]] == [True, True]
        per_gate[n] = counted[0] / n
    assert per_gate[56] <= 1.05 * per_gate[7]
    assert per_gate[224] <= 1.05 * per_gate[7]
    # Far below the samples per gate the per-gate search evaluated.
    assert per_gate[224] < len(_straight_line(224)[0]) / 4


def test_containment_work_per_gate_is_bounded_over_laps(counted):
    """Over 1, 8 and 32 laps of the same seven gate objects, whose samples
    all lie near each gate, the work per gate stays the same."""
    quad = QuadParams.quad_a()
    per_gate = {}
    for laps in (1, 8, 32):
        seq, (times, states, controls) = _laps(laps)
        counted[0] = 0
        result = verify(times, states, controls, seq, quad)
        assert [c.passed for c in result[:2]] == [True, True]
        per_gate[laps] = counted[0] / len(seq)
    assert per_gate[8] <= 1.05 * per_gate[1]
    assert per_gate[32] <= 1.05 * per_gate[1]
