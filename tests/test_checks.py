"""verify's gate screen: pinned against a frozen copy of the per-gate search
it replaced, its distance bound, and the work it does as tracks grow."""

import contextlib
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mixed_sequence, tetra_gate, unit_square_gate
from raceplan import checks, trackio, tracks
from raceplan.checks import GOLDEN, GOLDEN_STEPS, PASS_TOL, _residuals, verify
from raceplan.cli import _read_csv, _write_csv, main
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


@np.errstate(over="ignore", invalid="ignore")
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


def _loop_with_huge_ball():
    track = tracks.loop_track()
    gates = list(track.gates)
    gates[3] = BallGate(center=[1.0, 2.0, 1.0], radius=1e40)
    return replace(track, gates=tuple(gates))


def _ball(x=None, radius=None):
    """random_track(103)'s ball gate moved to x or resized."""
    def edit(track):
        gates = list(track.gates)
        center, r = gates[2].center, gates[2].radius
        gates[2] = BallGate(center=[center[0] if x is None else x, *center[1:]],
                            radius=r if radius is None else radius)
        return replace(track, gates=tuple(gates))
    return edit


def _edit(rows, columns, value):
    """Set the columns of those state rows to value."""
    def edit(states):
        states = states.copy()
        states[rows, columns] = value
        return states
    return edit


#: Case -> the track planned, its mode, the track checked (None: the same)
#: and an edit of the exported states (None: as exported).
CASES = {
    "loop7": ("loop", "togt", None, None),
    "loop7-wp": ("loop", "togt-wp", None, None),
    "random100": (100, "togt", None, None),
    "random101": (101, "togt", None, None),
    "random103": (103, "togt", None, None),
    "random107": (107, "togt", None, None),
    "nan-positions": ("loop", "togt", None,
                      _edit(slice(None), slice(0, 3), np.nan)),
    "nan-every-7th": ("loop", "togt", None,
                      _edit(slice(None, None, 7), slice(0, 3), np.nan)),
    "inf-every-9th": ("loop", "togt", None,
                      _edit(slice(None, None, 9), 0, np.inf)),
    # Infinite pieces whose ends are finite, and samples beyond SCREEN_SPAN.
    "inf-velocity": ("loop", "togt", None,
                     _edit(slice(None, None, 5), 7, -np.inf)),
    "far-samples": ("loop", "togt", None,
                    _edit(slice(None, None, 11), 1, 1.5e308)),
    "far-ball": (103, "togt", _ball(x=1e300), None),
    "farthest-ball": (103, "togt", _ball(x=1.7e308), None),
    # A ball whose reach extends beyond SCREEN_SPAN, and a run of samples
    # beyond it, all but its ends between finite pieces.
    "ball-1e305": (103, "togt", _ball(radius=1e305),
                   _edit(slice(100, 130), 1, 1e302)),
    "ball-1e40": ("huge", "togt", None, None),
}

_TRACKS = {"loop": tracks.loop_track, "huge": _loop_with_huge_ball}


@pytest.fixture(scope="module")
def plans():
    """Each planned track and mode's export: times, states, controls."""
    out = {}
    for source, mode, _, _ in CASES.values():
        if (source, mode) not in out:
            track = (_TRACKS[source]() if source in _TRACKS
                     else tracks.random_track(source))
            seq = trackio.build_sequence(track, mode=mode)
            result = solve(seq, track.quad, BoundaryCondition.hover(track.start),
                           BoundaryCondition.hover(track.finish))
            out[source, mode] = (track, (result.sample_times, result.states,
                                         result.controls))
    return out


@pytest.fixture(scope="module", params=list(CASES))
def case(request, plans, tmp_path_factory):
    """A case's checked track, mode and trajectory, as plan verifies it
    (in memory) and as check reads it back from its CSV."""
    source, mode, retrack, edit = CASES[request.param]
    track, (times, states, controls) = plans[source, mode]
    track = retrack(track) if retrack else track
    states = edit(states) if edit else states
    root = tmp_path_factory.mktemp(request.param)
    csv, path = root / "trajectory.csv", root / "track.yaml"
    _write_csv(csv, times, states, controls)
    path.write_text(trackio.serialize(track))
    data = _read_csv(csv)
    return SimpleNamespace(track=track, mode=mode, path=path, csv=csv,
                           trajectories={
                               "memory": (times, states, controls),
                               "csv": (data[:, 0], data[:, 1:14], data[:, 14:18])})


class TestAgainstPerGateSearch:
    @pytest.mark.parametrize("source", ["memory", "csv"])
    def test_pass_sets_and_kept_residuals(self, case, source):
        """Each gate passes at the same samples as under the per-gate
        search, and every (gate, sample) pair that the screen keeps has the
        residual that search found there, bit for bit."""
        times, states, _ = case.trajectories[source]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        expected, _ = _oracle_verdicts(times, states, seq)
        with np.errstate(over="ignore", invalid="ignore"):
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
        times, states, controls = case.trajectories[source]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        _, expected = _oracle_verdicts(times, states, seq)
        found = verify(times, states, controls, seq, case.track.quad)
        assert [c.passed for c in found[:2]] == expected

    def test_check_stdout(self, case):
        """check prints what the per-gate verdicts and the other checks of
        the CSV give."""
        times, states, controls = case.trajectories["csv"]
        seq = trackio.build_sequence(case.track, mode=case.mode)
        _, expected = _oracle_verdicts(times, states, seq)
        others = verify(times, states, controls, seq, case.track.quad)[2:]
        lines = [checks.Check("gate containment", expected[0]),
                 checks.Check("traversal order", expected[1]), *others]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["check", str(case.csv), str(case.path), "--mode", case.mode])
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
