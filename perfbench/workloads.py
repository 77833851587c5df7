"""The benchmark's four workloads: their inputs, operations and validation.

Importing this module imports raceplan from the checkout's ``src/`` and
nothing else: a raceplan installed elsewhere must never be measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "raceplan" / "__init__.py").is_file():
    raise ImportError(f"no raceplan sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import raceplan  # noqa: E402
from raceplan import cli, cost, gates, optimizer, trackio, tracks  # noqa: E402
from raceplan.spline import BoundaryCondition  # noqa: E402

if Path(raceplan.__file__).resolve().parent != SRC / "raceplan":
    raise ImportError(f"raceplan imported from {raceplan.__file__}, not {SRC}")

NAMES = ("loop7", "laps28", "random3", "eval56")
LOOP7_MODES = ("togt", "togt-wp")
EVAL56_POOL = 512         # seeded decision vectors with stored references
EVAL56_PER_RUN = 16       # vectors one run draws from the pool by --seed
EVAL56_SPEED = 12.0       # initial_speed_guess of the vectors' centre
LIMIT_HEADROOM = 0.01     # thrust and body-rate tolerance, as in `check`
CONTAIN_TOL = 1e-9
LAP_TOL = 1e-3
TOTAL_RTOL = 1e-8
GRAD_RTOL = 1e-6
FD_STEP = 1e-6
FD_TOL = 1e-4

# Failures that the seed program already has.  An operation failing for
# exactly these reasons still counts in `failed`, but does not make the run
# incorrect; any other failure does.
KNOWN_DEFECTS = {
    # `check` approximates a ball gate by the closest approach of the chords
    # between 10 ms samples.  On the togt-wp loop the planned curve passes
    # the 0.3 m balls of gates 2, 3 and 6 near their rim, and the chords
    # miss them by up to 8.7e-5 m, above check's 1e-6 m threshold, so
    # `check` exits 1 although `plan` exited 0.
    "loop7/togt-wp": {"check: FAIL: gate containment"},
}


@dataclass
class Op:
    """Outcome of one timed operation."""

    name: str
    wall_s: float = 0.0
    failures: list = field(default_factory=list)
    evals: int = 0          # objective evaluations the solver reports
    solver_s: float = 0.0   # wall time the solver reports
    iterations: int = 0
    lap_time_s: float = math.nan
    total: float = math.nan  # eval56: objective value
    csv_rows: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def known(self) -> bool:
        return set(self.failures) <= KNOWN_DEFECTS.get(self.name, set())

    def signature(self):
        """What a traced run must reproduce exactly."""
        return (self.iterations, self.evals, self.lap_time_s, self.total,
                self.csv_rows)


# ---------------------------------------------------------------------------
# inputs

def _hover(track):
    return (BoundaryCondition.hover(track.start),
            BoundaryCondition.hover(track.finish))


def loop7_track_file() -> Path:
    """The 7-gate loop written as a track file, as `plan` users supply it."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "loop7.yaml"
    path.write_text(trackio.serialize(tracks.loop_track()))
    return path


def setup(name: str, random3_seeds=(), track_file=None) -> dict:
    """Build or parse the tracks, build the gate sequences and initialize,
    up to the first objective evaluation."""
    if name == "loop7":
        track = trackio.parse(track_file)
        seq = trackio.build_sequence(track, mode=LOOP7_MODES[0])
        optimizer.initialize(seq, *_hover(track))
        return {"track": track, "track_file": str(track_file)}
    if name == "laps28":
        track = tracks.loop_track()
        seq = trackio.build_sequence(track, laps=4)
        optimizer.initialize(seq, *_hover(track))
        return {"track": track, "seq": seq}
    if name == "random3":
        problems = []
        for s in random3_seeds:
            track = tracks.random_track(s, n_gates=3)
            seq = trackio.build_sequence(track)
            optimizer.initialize(seq, *_hover(track))
            problems.append((s, track, seq))
        return {"problems": problems}
    if name == "eval56":
        track = tracks.loop_track()
        seq = trackio.build_sequence(track, laps=8)
        dec0 = optimizer.initialize(
            seq, *_hover(track),
            optimizer.OptimizerConfig(initial_speed_guess=EVAL56_SPEED))
        return {"track": track, "seq": seq, "dec0": dec0}
    raise ValueError(f"unknown workload {name!r}")


def eval56_vector(dec0, index: int) -> np.ndarray:
    """Pool vector ``index``: the initial point with seeded gate-parameter
    and small time-variable perturbations."""
    rng = np.random.default_rng([2309_06837, index])
    x = dec0.to_flat()
    nd = len(dec0.D)
    x[:nd] += rng.normal(scale=0.3, size=nd)
    x[nd:] += rng.normal(scale=0.02, size=len(x) - nd)
    return x


def eval56_indices(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(EVAL56_POOL, EVAL56_PER_RUN,
                                             replace=False))


def gradient_probe(n: int) -> np.ndarray:
    """Fixed unit direction that condenses a gradient into one number."""
    r = np.random.default_rng(7).normal(size=n)
    return r / np.linalg.norm(r)


# ---------------------------------------------------------------------------
# operations: each is (name, run, check); only `run` is timed

def _limit_failures(thrusts, rates, quad) -> list:
    out = []
    f_range = quad.f_max - quad.f_min
    if (np.any(thrusts < quad.f_min - LIMIT_HEADROOM * f_range)
            or np.any(thrusts > quad.f_max + LIMIT_HEADROOM * f_range)):
        out.append("rotor thrust outside 1% headroom")
    if np.any(np.abs(rates) > quad.omega_max[None, :] * (1 + LIMIT_HEADROOM)):
        out.append("body rate outside 1% headroom")
    return out


def _lap_failures(lap, ref) -> list:
    if not math.isfinite(lap):
        return ["lap time is not finite"]
    if lap > ref + LAP_TOL:
        return [f"lap time {lap:.6f} s exceeds reference {ref:.6f} s"]
    return []


def _solve_check(op: Op, result, seq, quad, ref_lap):
    d = result.diagnostics
    op.evals, op.solver_s, op.iterations = d.function_evals, d.wall_time, d.iterations
    op.lap_time_s = result.total_time
    if not math.isfinite(result.objective):
        op.failures.append("objective is not finite")
    worst = max(gates.contains(g, p) for g, p in zip(seq.gates, result.waypoints))
    if worst > CONTAIN_TOL:
        op.failures.append(f"waypoint {worst:.3g} m outside its gate")
    op.failures += _limit_failures(result.controls, result.states[:, 10:13], quad)
    op.failures += _lap_failures(result.total_time, ref_lap)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def loop7_ops(inputs, ref):
    track, track_file = inputs["track"], inputs["track_file"]
    ops = []
    for mode in LOOP7_MODES:
        out_dir = OUT / f"loop7-{mode}"
        csv = out_dir / "trajectory.csv"

        def run(mode=mode, out_dir=out_dir, csv=csv):
            plan = _cli(["plan", track_file, "--mode", mode,
                         "--out-dir", str(out_dir)])
            check = _cli(["check", str(csv), track_file, "--mode", mode])
            return plan, check

        def check(op, outcome, out_dir=out_dir, csv=csv, mode=mode):
            (rc_plan, _, err_plan), (rc_check, out_check, err_check) = outcome
            if rc_plan != 0:
                op.failures.append(f"plan exited {rc_plan}: {err_plan.strip()}")
                return
            summary = json.loads((out_dir / "summary.json").read_text())
            solver = summary["solver"]
            op.evals, op.solver_s = solver["function_evals"], solver["wall_time"]
            op.iterations = solver["iterations"]
            op.lap_time_s = summary["total_time"]
            data = np.loadtxt(csv, delimiter=",", skiprows=2, ndmin=2)
            op.csv_rows = len(data)
            op.failures += _limit_failures(data[:, 14:18], data[:, 11:14],
                                           track.quad)
            op.failures += _lap_failures(op.lap_time_s, ref[f"loop7/{mode}"])
            if rc_check != 0:
                fails = [line.split(" (")[0] for line in out_check.splitlines()
                         if line.startswith("FAIL: ")]
                op.failures += [f"check: {f}" for f in fails] or [
                    f"check exited {rc_check}: {err_check.strip()}"]

        ops.append((f"loop7/{mode}", run, check))
    return ops


def laps28_ops(inputs, ref):
    track, seq = inputs["track"], inputs["seq"]

    def run():
        return optimizer.solve(seq, track.quad, *_hover(track))

    def check(op, result):
        _solve_check(op, result, seq, track.quad, ref["laps28"])

    return [("laps28", run, check)]


def random3_ops(inputs, ref):
    ops = []
    for s, track, seq in inputs["problems"]:
        key = f"random3/seed{s}"
        if key not in ref:
            raise KeyError(f"no reference lap time for {key}; "
                           "add it with perfbench/reference.py")

        def run(track=track, seq=seq):
            return optimizer.solve(
                seq, track.quad, *_hover(track),
                opt_cfg=optimizer.OptimizerConfig(restarts=2))

        def check(op, result, track=track, seq=seq, key=key):
            _solve_check(op, result, seq, track.quad, ref[key])

        ops.append((key, run, check))
    return ops


def eval56_ops(inputs, ref, seed):
    track, seq, dec0 = inputs["track"], inputs["seq"], inputs["dec0"]
    bc0, bcf = _hover(track)
    probe = gradient_probe(len(dec0.to_flat()))
    ops = []
    for i in eval56_indices(seed):
        dec = dec0.with_flat(eval56_vector(dec0, i))
        expect = ref["eval56"][i]

        def run(dec=dec):
            return cost.objective(dec, seq, track.quad, bc0, bcf)

        def check(op, report, expect=expect):
            op.evals, op.solver_s, op.total = 1, op.wall_s, report.total
            if report.gradient is None or not math.isfinite(report.total):
                op.failures.append("objective is not finite")
                return
            if abs(report.total - expect["total"]) > TOTAL_RTOL * abs(expect["total"]):
                op.failures.append(f"objective {report.total!r} differs from "
                                   f"reference {expect['total']!r}")
            g = report.gradient.to_flat()
            if (abs(np.linalg.norm(g) - expect["grad_norm"]) > GRAD_RTOL * expect["grad_norm"]
                    or abs(g @ probe - expect["grad_probe"]) > GRAD_RTOL * expect["grad_norm"]):
                op.failures.append("gradient differs from reference")

        ops.append((f"eval56/vec{i}", run, check))
    return ops


def eval56_fd_failures(inputs, seed, n_coords=3) -> list:
    """Central differences on seeded gate-parameter coordinates of the run's
    first vector.  Gate parameters move waypoints only, so the sample counts
    (a step function of the durations) stay fixed.  The objective is huge
    at these points (about 1e7), so an error is measured against the largest
    gate-parameter gradient entry rather than the entry itself, whose central
    difference is lost to rounding when it is small."""
    track, seq, dec0 = inputs["track"], inputs["seq"], inputs["dec0"]
    bc0, bcf = _hover(track)
    x = eval56_vector(dec0, eval56_indices(seed)[0])

    def f(v):
        return cost.objective(dec0.with_flat(v), seq, track.quad, bc0, bcf)

    g = f(x).gradient.to_flat()
    scale = max(1.0, np.abs(g[:len(dec0.D)]).max())
    rng = np.random.default_rng([seed, 1])
    out = []
    for k in rng.choice(len(dec0.D), n_coords, replace=False):
        e = np.zeros_like(x)
        e[k] = FD_STEP
        fd = (f(x + e).total - f(x - e).total) / (2 * FD_STEP)
        if abs(fd - g[k]) > FD_TOL * scale:
            out.append(f"gradient[{k}] = {g[k]!r}, central difference {fd!r}")
    return out


def operations(name, inputs, ref, seed):
    if name == "loop7":
        return loop7_ops(inputs, ref)
    if name == "laps28":
        return laps28_ops(inputs, ref)
    if name == "random3":
        return random3_ops(inputs, ref)
    return eval56_ops(inputs, ref, seed)
