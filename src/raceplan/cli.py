"""Command-line front end: plan trajectories and verify exported ones.

Exit codes: 0 ok, 1 validation/check failure, 2 solver failure or a plan
that fails a check, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import trackio
from .checks import verify
from .errors import RaceplanError, ValidationError
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


def _write_artifact(path: Path, text: str):
    """Rewrite the file at path (or create it) in place, through a symlink,
    to hold text alone.

    Not opened with O_TRUNC, and not a temporary file renamed over it: ext4
    (auto_da_alloc) forces writeback when a file truncated to zero length or
    renamed over another is closed, and that close blocks for tens of ms.
    Truncating at the written length leaves no tail of a longer old file.
    A write that fails part way leaves the file unusable."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _write_csv(path: Path, times, states, controls):
    text = io.StringIO()
    np.savetxt(text, np.hstack([times[:, None], states, controls]),
               fmt="%.12g", delimiter=",", comments="",
               header=f"{CSV_HEADER}\n{CSV_COLUMNS}")
    _write_artifact(path, text.getvalue())


def _read_csv(path: Path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValidationError(f"{path}: unrecognized trajectory header")
            columns = fh.readline().strip()
            if columns != CSV_COLUMNS:
                raise ValidationError(f"{path}: unexpected column layout")
            rows = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
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
    """The gate as a track file writes it, with either polytope kind
    labelled "polytope"."""
    node = trackio._gate_node(gate)
    if node["type"] != "ball":
        node["type"] = "polytope"
    return node


def _load(args):
    """The track file and its gate sequence under the command's flags."""
    track = trackio.parse(args.track)
    return track, trackio.build_sequence(
        track, mode=args.mode, margin=args.margin, laps=args.laps)


def cmd_plan(args) -> int:
    try:  # each message opens with the field's name, which is its flag's
        opt_cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed,
                                  dt=args.dt)
    except ValidationError as exc:
        raise ValidationError(f"--{exc}") from None
    track, seq = _load(args)
    bc0 = BoundaryCondition.hover(track.start)
    bcf = BoundaryCondition.hover(track.finish)
    result = solve(seq, track.quad, bc0, bcf, opt_cfg=opt_cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv", result.sample_times,
               result.states, result.controls)
    positions = result.states[:, :3]
    path_length = float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))
    summary = {
        "total_time": result.total_time,
        "gate_times": [float(t) for t in result.gate_times],
        "path_length": path_length,
        "penalty": result.penalty,
        "checks": {c.name: {"passed": c.passed, "worst": list(c.worst)}
                   for c in result.checks},
        # The solve's diagnostics but its per-iteration trace, then its settings.
        "solver": {
            **{f.name: getattr(result.diagnostics, f.name)
               for f in dataclasses.fields(result.diagnostics)
               if f.name != "objective_trace"},
            **dataclasses.asdict(opt_cfg),
        },
    }
    _write_artifact(out_dir / "summary.json", json.dumps(summary, indent=2))
    if args.plot_data:
        plot = {
            "position": [list(map(float, p)) for p in positions],
            "gates": [_gate_outline(g) for g in seq.gates],
        }
        _write_artifact(out_dir / "plot.json", json.dumps(plot))
    else:  # an earlier plan's plot.json would describe another path
        (out_dir / "plot.json").unlink(missing_ok=True)

    print(f"total time: {result.total_time:.4f} s "
          f"({result.diagnostics.termination}, "
          f"{result.diagnostics.iterations} iterations)")
    failed = [c.name for c in result.checks if not c.passed]
    if failed:
        print(f"error: the plan fails {', '.join(failed)}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_check(args) -> int:
    track, seq = _load(args)
    data = _read_csv(Path(args.trajectory))
    checks = verify(data[:, 0], data[:, 1:14], data[:, 14:18], seq, track.quad)
    print("\n".join(map(str, checks)))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ValidationError: exit 1, not 2."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run one command; the one place where an error becomes its exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RaceplanError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
