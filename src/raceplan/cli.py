"""Command-line front end: plan trajectories and verify exported ones.

Exit codes: 0 ok, 1 validation/check failure, 2 solver failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import trackio
from .errors import ParseError, RaceplanError, ValidationError
from .gates import BallGate, contains
from .optimizer import OptimizerConfig, solve
from .spline import BoundaryCondition

CSV_HEADER = "# raceplan trajectory v1"
CSV_COLUMNS = (
    "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,wx,wy,wz,f1,f2,f3,f4"
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

#: Golden-section steps per sample interval when `check` searches a gate;
#: they shrink the bracket to 1e-10 of the interval.
GOLDEN_STEPS = 48
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Largest containment residual, m, that `check` counts as passing a gate.
PASS_TOL = 1e-6


def _write_csv(path: Path, times, states, controls):
    rows = np.hstack([times[:, None], states, controls])
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(CSV_COLUMNS + "\n")
        for row in rows:
            fh.write(",".join(format(x, ".12g") for x in row) + "\n")


def _read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValidationError(f"{path}: unrecognized trajectory header")
        columns = fh.readline().strip()
        if columns != CSV_COLUMNS:
            raise ValidationError(f"{path}: unexpected column layout")
        rows = [line for line in fh if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no trajectory rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if data.shape[1] != 18:
        raise ValidationError(f"{path}: expected 18 columns")
    return data


def _gate_outline(gate) -> dict:
    if isinstance(gate, BallGate):
        return {"type": "ball", "center": list(map(float, gate.center)),
                "radius": float(gate.radius)}
    return {"type": "polytope",
            "vertices": [list(map(float, v)) for v in gate.vertices]}


def cmd_plan(args) -> int:
    if not (args.dt > 0 and np.isfinite(args.dt)):
        print(f"error: --dt must be a finite number above 0, got {args.dt}",
              file=sys.stderr)
        return EXIT_VALIDATION
    for flag, value in (("--seed", args.seed), ("--restarts", args.restarts)):
        if value < 0:
            print(f"error: {flag} must be >= 0, got {value}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        track = trackio.parse(args.track, strict=args.strict)
        seq = trackio.build_sequence(
            track, mode=args.mode, margin=args.margin, laps=args.laps
        )
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    bc0 = BoundaryCondition.hover(track.start)
    bcf = BoundaryCondition.hover(track.finish)
    opt_cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    try:
        result = solve(
            seq, track.quad, bc0, bcf, opt_cfg=opt_cfg, sample_dt=args.dt,
        )
    except RaceplanError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "trajectory.csv", result.sample_times,
                   result.states, result.controls)
        positions = result.states[:, :3]
        path_length = float(
            np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1))
        )
        summary = {
            "total_time": result.total_time,
            "gate_times": [float(t) for t in result.gate_times],
            "path_length": path_length,
            "min_rotor_thrust": float(result.controls.min()),
            "max_rotor_thrust": float(result.controls.max()),
            "max_body_rate": float(np.abs(result.states[:, 10:13]).max()),
            "penalty": result.penalty,
            "max_violation": result.max_violation,
            "solver": {
                "iterations": result.diagnostics.iterations,
                "function_evals": result.diagnostics.function_evals,
                "termination": result.diagnostics.termination,
                "final_grad_norm": result.diagnostics.final_grad_norm,
                "wall_time": result.diagnostics.wall_time,
                "seed": result.diagnostics.seed,
            },
        }
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        if args.plot_data:
            plot = {
                "position": [list(map(float, p)) for p in positions],
                "gates": [_gate_outline(g) for g in seq.gates],
            }
            with open(out_dir / "plot.json", "w") as fh:
                json.dump(plot, fh)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"total time: {result.total_time:.4f} s "
          f"({result.diagnostics.termination}, "
          f"{result.diagnostics.iterations} iterations)")
    return EXIT_OK


def _residuals(gate, times, positions, velocities):
    """Containment residual of each sample: the lowest ``contains`` value
    found at sample k or on the path from it to sample k + 1.

    The optimum often grazes the gate boundary or passes a polyhedron vertex
    between samples, so the path between adjacent samples is reconstructed
    by cubic Hermite interpolation and searched by golden section for the
    minimum of ``contains``.  NaN samples give NaN residuals.
    """
    res = contains(gate, positions)
    # The piece after sample k is p_k + lam d0 + lam^2 (3 gap - 2 d0 - d1)
    # + lam^3 (d0 + d1 - 2 gap) for lam in [0, 1].  It is no longer than its
    # Bezier control polygon and ``contains`` is 1-Lipschitz, so a piece
    # with an end farther above PASS_TOL than that length cannot pass.
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
        return contains(gate, p0 + lam * (d0 + lam * (c2 + lam * c3)))

    x = np.full(len(k), GOLDEN)
    lo, hi, fx = np.zeros(len(k)), np.ones(len(k)), measure(x)
    for _ in range(GOLDEN_STEPS):
        # The other inner point mirrors x in the bracket: keep the better
        # of the two and cut the bracket at the worse.
        y = lo + hi - x
        fy = measure(y)
        x, worse = np.where(fy < fx, y, x), np.where(fy < fx, x, y)
        fx = np.minimum(fx, fy)
        lo, hi = np.where(worse < x, worse, lo), np.where(worse > x, worse, hi)
    res[k] = np.minimum(res[k], fx)
    return res


def cmd_check(args) -> int:
    try:
        track = trackio.parse(args.track, strict=args.strict)
        seq = trackio.build_sequence(
            track, mode=args.mode, margin=args.margin, laps=args.laps
        )
        data = _read_csv(Path(args.trajectory))
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    times = data[:, 0]
    positions = data[:, 1:4]
    velocities = data[:, 8:11]
    quats = data[:, 4:8]
    rates = data[:, 11:14]
    thrusts = data[:, 14:18]
    quad = track.quad
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok &= passed
        status = "pass" if passed else "FAIL"
        print(f"{status}: {name}" + (f" ({detail})" if detail else ""))

    # Gate containment and traversal order in one ordered sweep: each gate
    # is passed at its first passing sample at or after the previous gate's.
    idx = 0
    order_ok = True
    containment_ok = True
    for gate in seq.gates:
        passes = np.flatnonzero(
            _residuals(gate, times, positions, velocities) <= PASS_TOL)
        later = passes[passes >= idx]
        if len(passes) == 0:
            containment_ok = False
        elif len(later) == 0:
            order_ok = False
        else:
            idx = later[0]
    report("gate containment", containment_ok)
    report("traversal order", order_ok)

    f_range = quad.f_max - quad.f_min
    report(
        "rotor thrust bounds",
        bool(np.all(thrusts >= quad.f_min - 0.01 * f_range)
             and np.all(thrusts <= quad.f_max + 0.01 * f_range)),
        f"range [{thrusts.min():.3f}, {thrusts.max():.3f}] N",
    )
    report(
        "body rate bounds",
        bool(np.all(np.abs(rates) <= quad.omega_max[None, :] * 1.01)),
        f"max {np.abs(rates).max():.3f} rad/s",
    )
    norms = np.linalg.norm(quats, axis=1)
    report("quaternion norms", bool(np.all(np.abs(norms - 1) < 1e-6)))
    report("monotone timestamps", bool(np.all(np.diff(times) > 0)))

    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raceplan",
        description="Plan and verify time-optimal trajectories through "
                    "spatial racing gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=["togt", "togt-wp"], default=None,
                       help="gate-region or waypoint-ball planning mode")
        p.add_argument("--laps", type=int, default=None)
        p.add_argument("--margin", type=float, default=None)
        p.add_argument("--strict", action="store_true",
                       help="reject unknown keys in the track file")

    plan = sub.add_parser("plan", help="optimize a trajectory for a track")
    plan.add_argument("track")
    common(plan)
    plan.add_argument("--dt", type=float, default=0.01,
                      help="CSV sampling period, s")
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--restarts", type=int, default=0)
    plan.add_argument("--out-dir", default="out")
    plan.add_argument("--plot-data", action="store_true",
                      help="also write plot.json with path and gate outlines")
    plan.set_defaults(func=cmd_plan)

    check = sub.add_parser("check", help="verify an exported trajectory CSV")
    check.add_argument("trajectory")
    check.add_argument("track")
    common(check)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
