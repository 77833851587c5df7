"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raceplan.checks import HEADROOM, _residuals, verify
from raceplan.cli import (
    CSV_COLUMNS, CSV_HEADER, EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
    _write_csv, main,
)
from raceplan import _flatjet, cli, optimizer, tracks, trackio
from raceplan.errors import ValidationError
from raceplan.gates import WORKSPACE, BallGate, GateSequence, PolytopeGate
from raceplan.model import QuadParams

TRACK = """
schema_version: 1
quad: quad_a
start: [0, 0, 1.5]
finish: [7, 0, 1.5]
gates:
  - type: ball
    center: [2.5, 0.8, 1.5]
    radius: 0.8
  - type: polygon
    vertices:
      - [5, -1.6, 0.5]
      - [5, 0.4, 0.5]
      - [5, 0.4, 2.5]
      - [5, -1.6, 2.5]
options:
  margin: 0.2
"""

#: quad_a as a track-file mapping.
QUAD = ("mass: 0.85, arm_length: 0.15, inertia: [1, 1, 1.7], "
        "torque_const: 0.05, f_max: 6.88, omega_max: [15, 15, 3]")


#: TRACK with quad_a written out as QUAD, so that a fuzz test reaches its fields.
FUZZ_TRACK = {**yaml.safe_load(TRACK), "quad": yaml.safe_load("{" + QUAD + "}")}
#: random_track(103)'s track document: a polygon, a polyhedron and a ball.
RANDOM103 = yaml.safe_load(trackio.serialize(tracks.random_track(103)))
#: What the fuzz test puts at one node of a track document.
FUZZ_VALUES = (0, -1, 1e-300, 1e300, -1e300, float("inf"), float("nan"),
               "word", None, [], {}, True, [1.0, 2.0], [[1.0, 2.0, 3.0]])


#: Flag values that plan refuses before it solves, each with exit code 1.
BAD_FLAGS = (["--laps", "0"], ["--laps", "101"], ["--laps", "abc"],
             ["--laps", "2.5"], ["--margin", "nan"], ["--margin", "-1"],
             ["--margin", "1e300"], ["--margin", "wide"], ["--dt", "0"],
             ["--dt", "nan"], ["--dt", "inf"], ["--seed", "-1"],
             ["--seed", "1.5"], ["--restarts", "-1"],
             ["--restarts", str(optimizer.MAX_RESTARTS + 1)],
             ["--restarts", str(10**18)], ["--mode", "fastest"], ["--bogus"],
             ["--strict"])


class _Pairs(list):
    """A mapping given as its (key, value) pairs, so that a key can repeat."""


class _PairsDumper(yaml.SafeDumper):
    """safe_dump's dumper, which also writes _Pairs as YAML mappings."""


_PairsDumper.add_representer(_Pairs, lambda dumper, pairs: dumper.represent_mapping(
    "tag:yaml.org,2002:map", pairs))


def _outcome(argv):
    """main(argv)'s exit code and stderr, each warning counted as the stderr
    line it would print outside a test run.  Fails unless the code is
    documented and stderr is empty or one error line, empty only on exit 0
    or beside check's verdicts."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER, EXIT_IO)
    if err:
        assert code != EXIT_OK and err.count("\n") == 1, err
        assert err.startswith(("error: ", "solver error: ", "i/o error: ")), err
    else:
        assert code == EXIT_OK or out.getvalue().startswith(("pass:", "FAIL:"))
    return code, err


def _nodes(node, path=()):
    """The path of every node of a YAML document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _nodes(child, path + (key,))


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """One planned track reused by the CLI assertions below."""
    root = tmp_path_factory.mktemp("cli")
    track = root / "track.yaml"
    track.write_text(TRACK)
    out = root / "out"
    code = main(["plan", str(track), "--out-dir", str(out)])
    assert code == EXIT_OK
    return track, out


@pytest.fixture(scope="module")
def planned_random103(tmp_path_factory):
    """random_track(103) planned once: its track and the exported CSV."""
    root = tmp_path_factory.mktemp("random103")
    track = tracks.random_track(103)
    path = root / "track.yaml"
    path.write_text(trackio.serialize(track))
    assert main(["plan", str(path), "--out-dir", str(root)]) == EXIT_OK
    return track, root / "trajectory.csv"


class TestPlan:
    def test_artifacts_written(self, planned):
        _, out = planned
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()

    def test_csv_layout(self, planned):
        _, out = planned
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == CSV_COLUMNS
        first = np.fromstring(lines[2], sep=",")
        assert len(first) == 18
        assert first[0] == 0.0

    def test_summary_contents(self, planned):
        _, out = planned
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_time"] > 0
        assert len(summary["gate_times"]) == 2
        assert summary["path_length"] >= 7.0  # at least the crow-flies span
        assert summary["penalty"] < 1e-4
        assert summary["solver"]["iterations"] >= 1
        assert summary["solver"]["function_evals_all_starts"] \
            == summary["solver"]["function_evals"]
        assert summary["solver"]["restore_scale"] >= 1.0

    def test_summary_solver_block_is_the_dataclasses(self, planned):
        """The solver block holds each diagnostics field but the
        per-iteration trace, then the plan's settings."""
        _, out = planned
        solver = json.loads((out / "summary.json").read_text())["solver"]
        names = [f.name for f in fields(optimizer.SolveDiagnostics)
                 if f.name != "objective_trace"]
        config = asdict(optimizer.OptimizerConfig())
        assert list(solver) == names + list(config)
        assert {name: solver[name] for name in config} == config

    def test_summary_checks_match_check(self, planned, capsys):
        """The checks plan writes are the verdicts and worst values that
        check prints for the exported CSV."""
        track, out = planned
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert main(["check", str(out / "trajectory.csv"), str(track)]) \
            == EXIT_OK
        report = capsys.readouterr().out.splitlines()
        assert len(report) == len(summary["checks"]) == 6
        for line, (name, c) in zip(report, summary["checks"].items()):
            assert line.startswith(f"{'pass' if c['passed'] else 'FAIL'}: {name}")
            assert all(f"{w:.3f}" in line for w in c["worst"])

    def test_deterministic_output(self, planned, tmp_path):
        track, out = planned
        assert main(["plan", str(track), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "trajectory.csv").read_bytes() == \
            (out / "trajectory.csv").read_bytes()

    def test_plot_data(self, planned, tmp_path):
        track, _ = planned
        code = main(["plan", str(track), "--out-dir", str(tmp_path),
                     "--plot-data"])
        assert code == EXIT_OK
        plot = json.loads((tmp_path / "plot.json").read_text())
        assert {g["type"] for g in plot["gates"]} == {"ball", "polytope"}
        assert len(plot["position"]) > 10

    def test_replan_over_larger_artifacts(self, tmp_path):
        """A plan into a directory holding 1 MB artifacts of another plan
        writes what a plan into a fresh directory writes, with no tail of
        the old files, and without --plot-data removes the old plot.json."""
        track = tmp_path / "loop.yaml"
        track.write_text(trackio.serialize(tracks.loop_track()))
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        old.mkdir()
        for name in ("trajectory.csv", "summary.json", "plot.json"):
            (old / name).write_bytes(b"9" * 2**20)
        for out in (fresh, old):
            assert main(["plan", str(track), "--out-dir", str(out)]) == EXIT_OK
        assert (old / "trajectory.csv").read_bytes() == \
            (fresh / "trajectory.csv").read_bytes()
        summaries = [json.loads((out / "summary.json").read_text())
                     for out in (fresh, old)]
        for summary in summaries:
            del summary["solver"]["wall_time"]
        assert summaries[0] == summaries[1]
        assert sorted(p.name for p in old.iterdir()) == \
            ["summary.json", "trajectory.csv"]

    def test_replan_writes_in_place(self, planned, tmp_path):
        """A re-plan rewrites trajectory.csv in its own inode and writes
        through an artifact that is a symlink."""
        track, out = planned
        out_dir, target = tmp_path / "out", tmp_path / "elsewhere.json"
        assert main(["plan", str(track), "--out-dir", str(out_dir)]) == EXIT_OK
        inode = (out_dir / "trajectory.csv").stat().st_ino
        target.write_text("stale " * 1000)
        (out_dir / "summary.json").unlink()
        (out_dir / "summary.json").symlink_to(target)
        assert main(["plan", str(track), "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "trajectory.csv").stat().st_ino == inode
        assert (out_dir / "trajectory.csv").read_bytes() == \
            (out / "trajectory.csv").read_bytes()
        assert (out_dir / "summary.json").is_symlink()
        written = json.loads(target.read_text())
        assert written["total_time"] == \
            json.loads((out / "summary.json").read_text())["total_time"]

    @pytest.mark.parametrize("blocker", ["out-dir", "trajectory.csv"])
    def test_unwritable_artifact_exits_io(self, blocker, planned, tmp_path,
                                          capsys):
        """An --out-dir that is a regular file, or a trajectory.csv that is
        a directory, exits 3 with one i/o error line."""
        track, _ = planned
        out_dir = tmp_path / "out"
        if blocker == "out-dir":
            out_dir.write_text("not a directory")
        else:
            (out_dir / "trajectory.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["plan", str(track), "--out-dir", str(out_dir)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ")
        assert captured.err.count("\n") == 1, captured.err
        assert captured.out == ""

    def test_invalid_track_exits_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(TRACK.replace("schema_version: 1", "schema_version: 9"))
        assert main(["plan", str(bad)]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_missing_track_exits_io(self, tmp_path):
        code, err = _outcome(["plan", str(tmp_path / "absent.yaml")])
        assert code == EXIT_IO and err.startswith("i/o error: "), err

    def test_far_track_round_trip(self, tmp_path, capsys):
        """A 200 m straight, whose 3 m/s initial guess exceeds the spline's
        60 s duration guard, plans from a clamped guess and passes check."""
        far = tmp_path / "far.yaml"
        far.write_text(
            "schema_version: 1\nquad: quad_a\nstart: [0, 0, 1.5]\n"
            "finish: [200, 0, 1.5]\n"
            "gates:\n  - type: ball\n    center: [1, 0, 1.5]\n    radius: 0.5\n"
        )
        out = tmp_path / "out"
        assert main(["plan", str(far), "--out-dir", str(out)]) == EXIT_OK
        code = main(["check", str(out / "trajectory.csv"), str(far)])
        assert code == EXIT_OK, capsys.readouterr().out

    @pytest.mark.parametrize("move", ["start", "gate"])
    def test_far_start_or_gate_exits_solver(self, move, tmp_path, capsys):
        """The loop track with its start 1e6 m away, on the workspace bound,
        or a gate moved by 9e5 m.  Restoration would stretch durations past
        the spline's 60 s guard, so it is out of reach: plan exits 2 with one
        error line, not a traceback."""
        track = tracks.loop_track()
        if move == "start":
            track = replace(track, start=np.array([1e6, 0.0, 1.0]))
        else:
            gates = list(track.gates)
            gates[3] = PolytopeGate.from_vertices(gates[3].vertices + [9e5, 0.0, 0.0],
                                                  planar=True)
            track = replace(track, gates=tuple(gates))
        path = tmp_path / "far.yaml"
        path.write_text(trackio.serialize(track))
        code = main(["plan", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["solver"]["restore_scale"] is None

    @pytest.mark.parametrize("path, value, message", [
        (("gates", 2, "center", 0), 1e200,
         "gates[2]: ball gate center[0] must be a number in [-1e+06, 1e+06], got 1e+200"),
        (("start", 0), 1e7,
         "start[0] must be a number in [-1e+06, 1e+06], got 10000000.0"),
        (("options", "waypoint_tolerance"), 1e300,
         "options.waypoint_tolerance must be a number in (0, 1e+06], got 1e+300"),
        (("gates", 2, "radius"), 1e40,
         "gates[2]: ball gate radius must be a number in [0, 1e+06], got 1e+40"),
        (("gates", 2, "radius"), 1e52,
         "gates[2]: ball gate radius must be a number in [0, 1e+06], got 1e+52"),
    ], ids=["ball-at-1e200", "start-at-1e7", "tolerance-1e300",
            "ball-radius-1e40", "ball-radius-1e52"])
    def test_far_track_exits_validation(self, path, value, message, tmp_path):
        """random_track(103) with its ball gate's centre at 1e200 m or its
        radius 1e40 or 1e52 m, its start at 1e7 m, or a waypoint tolerance
        of 1e300, lies past the workspace: plan refuses the track file with
        one error line naming the field and exit 1, without a numpy warning
        and before it solves."""
        doc = copy.deepcopy(RANDOM103)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        track = tmp_path / "far.yaml"
        track.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert _outcome(["plan", str(track), "--out-dir", str(out)]) == (
            EXIT_VALIDATION, f"error: {message}\n")
        assert not out.exists()

    def test_failed_check_exits_solver(self, planned, tmp_path, capsys,
                                       monkeypatch):
        """A plan whose export fails a check still writes every artifact,
        reports the failure in summary.json and exits 2 with one error."""
        track, _ = planned
        solve = cli.solve

        def scaled_solve(seq, params, *args, **kwargs):
            result = solve(seq, params, *args, **kwargs)
            result.controls = 1.5 * result.controls
            result.checks = verify(result.sample_times, result.states,
                                   result.controls, seq, params)
            return result

        monkeypatch.setattr(cli, "solve", scaled_solve)
        assert main(["plan", str(track), "--out-dir", str(tmp_path)]) \
            == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rotor thrust bounds" in err
        assert (tmp_path / "trajectory.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["rotor thrust bounds"]["passed"] is False
        assert summary["checks"]["gate containment"]["passed"] is True

    @pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
    def test_bad_dt_exits_validation(self, dt, tmp_path, capsys):
        """An export period that is not a finite number above 0 is refused
        before the track is parsed or solved."""
        track = tmp_path / "track.yaml"
        track.write_text(TRACK)
        out = tmp_path / "out"
        assert main(["plan", str(track), "--dt", dt, "--out-dir", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: --dt")
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e-9", "1e-300"])
    def test_tiny_dt_exits_solver(self, dt, tmp_path, capsys):
        """An export period so small that the export would have more than
        MAX_EXPORT_SAMPLES rows ends, after the solve, in one solver error
        line and no artifact, before the export allocates its rows."""
        track = tmp_path / "track.yaml"
        track.write_text(TRACK)
        out = tmp_path / "out"
        assert main(["plan", str(track), "--dt", dt, "--out-dir", str(out)]) \
            == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert f"more than {optimizer.MAX_EXPORT_SAMPLES} samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--restarts"])
    def test_negative_seed_or_restarts_exits_validation(self, flag, tmp_path,
                                                        capsys):
        """A negative seed or restart count is refused before the track is
        parsed or solved."""
        track = tmp_path / "track.yaml"
        track.write_text(TRACK)
        out = tmp_path / "out"
        assert main(["plan", str(track), flag, "-1", "--out-dir", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "check"])
    @pytest.mark.parametrize("margin", ["-1", "5"])
    def test_bad_margin_exits_validation(self, command, margin, planned,
                                         tmp_path, capsys):
        """A negative margin fails the same validation as the track file's,
        and one that consumes a gate is a validation error, not a crash."""
        track, out = planned
        argv = {"plan": ["plan", str(track), "--out-dir", str(tmp_path)],
                "check": ["check", str(out / "trajectory.csv"), str(track)]}
        assert main(argv[command] + ["--margin", margin]) == EXIT_VALIDATION
        want = {"-1": "--margin must be a number in [0, 1e+06], got -1.0",
                "5": "margin exceeds ball radius"}
        assert capsys.readouterr().err == f"error: {want[margin]}\n"

    @pytest.mark.parametrize("old, new", [
        ("radius: 0.8", "radius: .nan"),
        ("radius: 0.8", "radius: .inf"),
        ("center: [2.5, 0.8, 1.5]", "center: [2.5, .nan, 1.5]"),
        ("start: [0, 0, 1.5]", "start: [0, .inf, 1.5]"),
        ("[5, 0.4, 2.5]", "[5, .nan, 2.5]"),
        ("quad: quad_a", "quad: {" + QUAD.replace("0.85", ".nan") + "}"),
        ("quad: quad_a", "quad: {" + QUAD.replace("6.88", ".inf") + "}"),
    ], ids=["radius-nan", "radius-inf", "center-nan", "start-inf",
            "vertex-nan", "mass-nan", "f_max-inf"])
    def test_non_finite_track_numbers_exit_validation(self, old, new,
                                                      tmp_path, capsys):
        """A NaN or infinite number in the track file is refused with one
        error line before anything is solved, without numpy warnings."""
        track = tmp_path / "track.yaml"
        track.write_text(TRACK.replace(old, new))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plan", str(track), "--out-dir", str(out)]) \
                == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_huge_lap_count_exits_validation(self, where, tmp_path, capsys):
        """A lap count of 10**18, in the file or as a flag, is refused with
        one error line before the gate list is repeated."""
        track = tmp_path / "track.yaml"
        huge = str(10**18)
        track.write_text(TRACK + (f"  laps: {huge}\n" if where == "file" else ""))
        flags = ["--laps", huge] if where == "flag" else []
        out = tmp_path / "out"
        assert main(["plan", str(track), "--out-dir", str(out), *flags]) \
            == EXIT_VALIDATION
        name = {"file": "options.laps", "flag": "--laps"}[where]
        captured = capsys.readouterr()
        assert captured.err == (f"error: {name} must be an integer in "
                                f"[1, {trackio.MAX_LAPS}], got {huge}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("radius: 0.8", "radius: wide",
         "gates[0]: ball gate radius must be a number in [0, 1e+06], got 'wide'"),
        ("vertices:\n      - [5, -1.6, 0.5]\n      - [5, 0.4, 0.5]\n"
         "      - [5, 0.4, 2.5]\n      - [5, -1.6, 2.5]", "vertices: wide",
         "gates[1]: polytope vertices must be a (n, 3) array of numbers in "
         "[-1e+06, 1e+06]"),
    ], ids=["radius-word", "vertices-word"])
    def test_non_numeric_gate_values_exit_validation(self, old, new, message,
                                                     tmp_path, capsys):
        """A word where a gate's number or vertex list belongs is refused
        with one error line naming the field, not a traceback."""
        track = tmp_path / "track.yaml"
        track.write_text(TRACK.replace(old, new))
        assert new in track.read_text()
        out = tmp_path / "out"
        assert main(["plan", str(track), "--out-dir", str(out)]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "check"])
    @pytest.mark.parametrize("vertices", ["collinear", "1e306", "1e-300"])
    def test_degenerate_polygon_exits_validation_in_one_line(
            self, command, vertices, planned, tmp_path, capsys):
        """random_track(103) with its first gate, a polygon, given four
        collinear vertices or its own scaled by 1e-300: Qhull rejects it
        with a report of over 50 lines, of which both commands print the
        first line only, and exit 1.  Scaled by 1e306, it lies past the
        workspace and is refused before Qhull sees it."""
        doc = yaml.safe_load(trackio.serialize(tracks.random_track(103)))
        gate = doc["gates"][0]
        assert gate["type"] == "polygon"
        if vertices == "collinear":
            gate["vertices"] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
        else:
            gate["vertices"] = (float(vertices) * np.array(gate["vertices"])).tolist()
        track = tmp_path / "degenerate.yaml"
        track.write_text(yaml.safe_dump(doc))
        _, out = planned
        argv = {"plan": ["plan", str(track), "--out-dir", str(tmp_path / "out")],
                "check": ["check", str(out / "trajectory.csv"), str(track)]}
        assert main(argv[command]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        if vertices == "1e306":
            assert captured.err == (
                "error: gates[0]: polytope vertices[0, 0] must be a number in "
                "[-1e+06, 1e+06], got 1.4135707194264886e+306\n")
        else:
            assert captured.err.startswith(
                "error: gates[0]: degenerate polytope vertex set: QH")
            assert captured.err.count("\n") == 1, captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", BAD_FLAGS, ids=" ".join)
    def test_bad_flag_value_exits_validation(self, flag, planned, tmp_path,
                                             monkeypatch):
        """A flag value out of range, not a number or of the wrong kind, or
        an unknown flag, ends in one error line and exit 1, not argparse's
        usage block and exit 2, before anything is solved.  solve is
        replaced, so a restart count past the cap can never draw its starts."""
        track, _ = planned
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        out = tmp_path / "out"
        code, err = _outcome(["plan", str(track), "--out-dir", str(out), *flag])
        assert code == EXIT_VALIDATION and err.startswith("error: "), err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["plan"], ["check", "t.csv"], [],
                                      ["fly", "track.yaml"]], ids=" ".join)
    def test_malformed_command_line_exits_validation(self, argv):
        """A missing argument or an unknown command is exit 1 too."""
        code, err = _outcome(argv)
        assert code == EXIT_VALIDATION and err.startswith("error: "), err

    @pytest.mark.parametrize("command", ["plan", "check"])
    def test_misspelled_option_exits_validation(self, command, planned, tmp_path):
        """`margin` misspelled `marign` is refused in one error line naming
        its node, exit 1, not planned as a margin of 0."""
        _, out = planned
        track = tmp_path / "track.yaml"
        track.write_text(TRACK.replace("margin:", "marign:"))
        argv = {"plan": ["plan", str(track), "--out-dir", str(tmp_path / "out")],
                "check": ["check", str(out / "trajectory.csv"), str(track)]}
        assert _outcome(argv[command]) == (
            EXIT_VALIDATION, "error: options: unknown keys ['marign']\n")

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["plan", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: raceplan plan")

    @given(path=st.sampled_from(list(_nodes(FUZZ_TRACK))[1:]),
           value=st.sampled_from(FUZZ_VALUES))
    @example(path=("finish", 2), value=-1)  # plans, exit 0
    @example(path=("gates", 0, "radius"), value=1e300)  # past the workspace, exit 1
    @example(path=("quad", "arm_length"), value=1e-300)  # below the quad's range
    @example(path=("quad", "torque_const"), value=1e-300)
    @example(path=("quad", "omega_max", 2), value=1e-300)
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_mutated_small_track_plans(self, path, value):
        """One node of a 2-gate track document, its quad's included, set to
        an extreme number, another type or nothing: plan ends in a
        documented exit code with at most one error line, exit 2 included.
        Every quad number the document holds is at least 1e-6, so 1e-300 in
        the quad is refused with exit 1."""
        doc = copy.deepcopy(FUZZ_TRACK)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            track = Path(tmp) / "track.yaml"
            track.write_text(yaml.safe_dump(doc))
            code, err = _outcome(["plan", str(track), "--out-dir", tmp])
        if path[0] == "quad" and value == 1e-300:
            assert code == EXIT_VALIDATION and err.startswith("error: quad: "), err

    def test_singular_export_sample_exits_solver(self, planned, tmp_path,
                                                 capsys, monkeypatch):
        """A plan whose export has a flatness-singular sample, here marked
        at t = 0.05 s, has no attitude to write there: it exits 2 with one
        solver error line naming that time and writes no artifact."""
        track, _ = planned

        def marked(derivs, params):
            out = _flatjet.flat_outputs(derivs, params)
            out.singular[5] = True
            return out

        monkeypatch.setattr(optimizer, "_flatjet", SimpleNamespace(
            **{**vars(_flatjet), "flat_outputs": marked}))
        out_dir = tmp_path / "out"
        assert main(["plan", str(track), "--out-dir", str(out_dir)]) \
            == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == ("solver error: the export's attitude is "
                                "undefined at t = 0.05 s (zero thrust, or "
                                "thrust along the heading)\n")
        assert not out_dir.exists()


class TestCheck:
    def test_ball_grazed_between_samples(self):
        """A circular arc of radius 5 m at 10 m/s, sampled every 10 ms,
        passes 1e-5 m inside a ball's rim midway between two samples.  The
        chord between those samples cuts 2.5e-4 m inward, away from the
        ball; the Hermite reconstruction follows the arc."""
        radius, speed, dt, inside = 5.0, 10.0, 0.01, 1e-5
        times = np.arange(21) * dt
        theta = speed / radius * (times - 0.105)  # graze between samples 10, 11
        positions = radius * np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        velocities = speed * np.stack(
            [-np.sin(theta), np.cos(theta), np.zeros_like(theta)], axis=1)
        ball = BallGate(center=[radius + 0.3 - inside, 0.0, 0.0], radius=0.3)
        _, rows, r = _residuals((ball,), times, positions, velocities)
        assert r.min() == pytest.approx(-inside, abs=1e-8)
        assert rows[r.argmin()] == 10

    @pytest.mark.parametrize("shift", [0.0, 1e-4])
    def test_polyhedron_vertex_passed_between_samples(self, shift):
        """A straight pass at 10 m/s, sampled every 10 ms, through an
        octahedron's vertex midway between two samples that lie 2.9 cm
        outside.  Shifted 1e-4 m outward, the same line misses the vertex
        and must fail the 1e-6 m containment tolerance."""
        octahedron = PolytopeGate.from_vertices(
            np.vstack([np.eye(3), -np.eye(3)]), planar=False)
        times = np.arange(21) * 0.01
        positions = np.zeros((21, 3))
        positions[:, 0] = 1.0 + shift
        positions[:, 1] = 10.0 * (times - 0.105)
        velocities = np.tile([0.0, 10.0, 0.0], (21, 1))
        _, rows, r = _residuals((octahedron,), times, positions, velocities)
        assert r.min() == pytest.approx(shift / np.sqrt(3), abs=1e-9)
        assert (r.min() <= 1e-6) == (shift == 0.0)
        assert rows[r.argmin()] == 10

    @pytest.mark.parametrize("seed", [103, 107, 110])
    def test_random_track_round_trip(self, seed, tmp_path, capsys):
        """Each of these plans passes its polyhedron gate between two
        export samples that both lie outside it."""
        track = tmp_path / "track.yaml"
        track.write_text(trackio.serialize(tracks.random_track(seed)))
        assert main(["plan", str(track), "--out-dir", str(tmp_path)]) == EXIT_OK
        code = main(["check", str(tmp_path / "trajectory.csv"), str(track)])
        assert code == EXIT_OK, capsys.readouterr().out

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_random_track_round_trip_property(self, seed):
        """Any random_track seed plans, and check passes the export."""
        with tempfile.TemporaryDirectory() as tmp:
            track = Path(tmp) / "track.yaml"
            track.write_text(trackio.serialize(tracks.random_track(seed)))
            assert main(["plan", str(track), "--out-dir", tmp]) == EXIT_OK
            assert main(["check", str(Path(tmp) / "trajectory.csv"),
                         str(track)]) == EXIT_OK

    def test_closed_loop(self, planned, capsys):
        track, out = planned
        code = main(["check", str(out / "trajectory.csv"), str(track)])
        assert code == EXIT_OK
        report = capsys.readouterr().out
        assert "FAIL" not in report
        assert "gate containment" in report

    def test_second_lap_passes_more_centrally(self, tmp_path, capsys):
        """A two-lap helix through two balls that contain both laps' passes
        but hold the second lap's nearer their centers.  Each gate is passed
        at its first pass after the previous gate's, so lap 1 passes in lap
        1 and lap 2 in lap 2."""
        radius, climb, speed, dt = 3.0, 0.5, 5.0, 0.01
        times = np.arange(0.0, 4 * np.pi * radius / speed, dt)
        theta = speed / radius * times
        rise = climb * theta / (2 * np.pi)
        positions = np.stack([radius * np.cos(theta),
                              radius * np.sin(theta), 1.0 + rise], axis=1)
        velocities = np.stack([-speed * np.sin(theta), speed * np.cos(theta),
                               np.full_like(theta, climb * speed
                                            / (2 * np.pi * radius))], axis=1)
        quad = QuadParams.quad_a()
        states = np.zeros((len(times), 13))
        states[:, 0:3], states[:, 3], states[:, 7:10] = positions, 1.0, velocities
        controls = np.full((len(times), 4), (quad.f_min + quad.f_max) / 2)
        csv = tmp_path / "helix.csv"
        _write_csv(csv, times, states, controls)
        # Both balls sit at the second lap's height, 0.5 m above the first.
        track = tmp_path / "helix.yaml"
        track.write_text(
            "schema_version: 1\nquad: quad_a\nstart: [3, 0, 1]\n"
            "finish: [3, 0, 2]\ngates:\n"
            "  - {type: ball, center: [0, 3, 1.625], radius: 0.8}\n"
            "  - {type: ball, center: [0, -3, 1.875], radius: 0.8}\n"
        )
        code = main(["check", str(csv), str(track), "--laps", "2"])
        report = capsys.readouterr().out
        assert code == EXIT_OK, report
        assert "pass: traversal order" in report

    @pytest.mark.parametrize("value", [np.nextafter(WORKSPACE, np.inf), np.nan,
                                       WORKSPACE], ids=["past", "nan", "on"])
    def test_positions_past_the_workspace_exit_validation(self, value, planned,
                                                          tmp_path):
        """A CSV whose every position is just past 1e6 or NaN is refused
        before any check: one error line, exit 1.  At exactly 1e6 it is
        checked, and fails gate containment."""
        track, out = planned
        rows = (out / "trajectory.csv").read_text().splitlines()
        corrupted = rows[:2]
        for line in rows[2:]:
            cols = line.split(",")
            cols[1:4] = [repr(float(value))] * 3
            corrupted.append(",".join(cols))
        bad_csv = tmp_path / "far.csv"
        bad_csv.write_text("\n".join(corrupted) + "\n")
        refusal = ("" if value == WORKSPACE else "error: trajectory states[0, 0] "
                   f"must be a number in [-1e+06, 1e+06], got {float(value)!r}\n")
        assert _outcome(["check", str(bad_csv), str(track)]) == (
            EXIT_VALIDATION, refusal)

    @pytest.mark.parametrize("column", range(7))
    @pytest.mark.parametrize("upper", [False, True])
    def test_limits_allow_headroom_and_no_more(self, column, upper, quad_a):
        """verify passes a rotor thrust or body rate past its bound by just
        under HEADROOM of the limit's range, and fails one just past that, at
        either bound, and refuses NaN there; every other check passes, and
        the worst values are the raw extremes."""
        params = replace(quad_a, f_min=0.5)
        times = np.array([0.0, 0.01, 0.02])
        states = np.zeros((3, 13))
        states[:, 2], states[:, 3] = 1.0, 1.0  # at the gate, identity attitude
        seq = GateSequence(gates=(BallGate(center=[0.0, 0.0, 1.0], radius=0.5),))
        bound = (params.upper if upper else params.lower)[column]
        step = (1.0 if upper else -1.0) * HEADROOM * params.scale[column]
        limit = "rotor thrust bounds" if column < 4 else "body rate bounds"
        for factor, passes in ((1 - 1e-9, True), (1 + 1e-9, False), (np.nan, None)):
            x = np.tile(0.5 * (params.lower + params.upper), (3, 1))
            x[1, column] = bound + factor * step
            controls, states[:, 10:] = x[:, :4], x[:, 4:]
            if passes is None:
                with pytest.raises(ValidationError, match=r"\[1, \d+\] must be a number "
                                   r"in \[-1e\+06, 1e\+06\], got nan$"):
                    verify(times, states, controls, seq, params)
                continue
            checks = verify(times, states, controls, seq, params)
            assert [c.passed for c in checks if c.name != limit] == [True] * 5
            assert [c.passed for c in checks if c.name == limit] == [passes]
            if passes:
                assert checks[2].worst == (controls.min(), controls.max())
                assert checks[3].worst == (np.abs(x[:, 4:]).max(),)

    def test_scaled_thrusts_fail(self, planned, tmp_path, capsys):
        track, out = planned
        rows = (out / "trajectory.csv").read_text().splitlines()
        corrupted = rows[:2]
        for line in rows[2:]:
            cols = line.split(",")
            cols[14:18] = [str(2 * float(c)) for c in cols[14:18]]
            corrupted.append(",".join(cols))
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(corrupted) + "\n")
        assert main(["check", str(bad_csv), str(track)]) == EXIT_VALIDATION
        assert "FAIL: rotor thrust bounds" in capsys.readouterr().out

    def test_scaled_rates_name_the_failing_axis(self, tmp_path, capsys):
        """The 7-gate loop's export with every body rate x1.01: yaw fails
        its 3 rad/s bound while roll, at a larger |rate|, keeps within its
        15 rad/s, so the line and summary.json give yaw's peak."""
        track = tmp_path / "loop.yaml"
        track.write_text(trackio.serialize(tracks.loop_track()))
        assert main(["plan", str(track), "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        scaled = rows[:2]
        for line in rows[2:]:
            cols = line.split(",")
            cols[11:14] = [repr(1.01 * float(c)) for c in cols[11:14]]
            scaled.append(",".join(cols))
        csv = tmp_path / "scaled.csv"
        csv.write_text("\n".join(scaled) + "\n")
        capsys.readouterr()
        assert main(["check", str(csv), str(track)]) == EXIT_VALIDATION
        roll, _, yaw = np.abs(
            np.loadtxt(csv, delimiter=",", skiprows=2)[:, 11:14]).max(axis=0)
        bound = (1 + HEADROOM) * tracks.loop_track().quad.omega_max
        assert yaw < roll < bound[0] and yaw > bound[2]
        assert f"FAIL: body rate bounds (max yaw rate {yaw:.3f} rad/s)" \
            in capsys.readouterr().out.splitlines()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["body rate bounds"]["worst"] == \
            [pytest.approx(yaw / 1.01, rel=1e-9)]

    def test_swapped_gate_order_fails_traversal(self, planned, tmp_path,
                                                capsys):
        import yaml

        track, out = planned
        doc = yaml.safe_load(track.read_text())
        doc["gates"] = doc["gates"][::-1]
        swapped_track = tmp_path / "swapped.yaml"
        swapped_track.write_text(yaml.safe_dump(doc))
        code = main(["check", str(out / "trajectory.csv"), str(swapped_track)])
        assert code == EXIT_VALIDATION
        assert "FAIL: traversal order" in capsys.readouterr().out

    def test_unrecognized_header_rejected(self, planned, tmp_path):
        track, out = planned
        mangled = tmp_path / "m.csv"
        body = (out / "trajectory.csv").read_text().splitlines()[1:]
        mangled.write_text("\n".join(["# other format"] + body))
        assert main(["check", str(mangled), str(track)]) == EXIT_VALIDATION

    def test_header_only_csv_is_validation_error(self, planned, tmp_path,
                                                 capsys):
        """A table with no rows is refused with one error line, not numpy's
        warning about empty input."""
        track, _ = planned
        empty = tmp_path / "empty.csv"
        empty.write_text(f"{CSV_HEADER}\n{CSV_COLUMNS}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(empty), str(track)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: no trajectory rows\n"
        assert captured.out == ""

    def test_malformed_row_is_validation_error(self, planned, tmp_path,
                                              capsys):
        """A row that numpy cannot read ends in one error line naming the
        file, not a traceback."""
        track, out = planned
        bad = tmp_path / "bad.csv"
        bad.write_text((out / "trajectory.csv").read_text() + "1,2,abc\n")
        assert main(["check", str(bad), str(track)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_missing_csv_is_io_error(self, planned, tmp_path):
        track, _ = planned
        assert main(["check", str(tmp_path / "none.csv"), str(track)]) == EXIT_IO

    def test_far_gate_fails_without_warnings(self, planned_random103,
                                             tmp_path):
        """random_track(103)'s plan against its track with the ball gate
        moved to x = 1e300, past the workspace: check refuses the track in
        one error line, exit 1, with nothing on stdout and no warning."""
        _, csv = planned_random103
        doc = copy.deepcopy(RANDOM103)
        doc["gates"][2]["center"][0] = 1e300
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert _outcome(["check", str(csv), str(path)]) == (
            EXIT_VALIDATION, "error: gates[2]: ball gate center[0] must be a number "
            "in [-1e+06, 1e+06], got 1e+300\n")

    @given(path=st.sampled_from(list(_nodes(RANDOM103))),
           value=st.sampled_from(FUZZ_VALUES))
    @example(path=("gates", 2, "center", 0), value=1e300)  # the far ball
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mutated_track_document(self, planned_random103, path, value):
        """One node of random_track(103)'s track document, the whole
        document included, set to an extreme number, another type or
        nothing: check prints its verdicts with nothing on stderr, or
        exactly one error line, and ends in a documented exit code."""
        _, csv = planned_random103
        doc = copy.deepcopy(RANDOM103)
        if path:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            doc = value
        track = csv.parent / "mutated.yaml"
        track.write_text(yaml.safe_dump(doc))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["check", str(csv), str(track)])
        # Outside a test run, each warning would print to stderr.
        err = err.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER, EXIT_IO)
        if out.getvalue():
            assert err == ""
        else:
            assert err.count("\n") == 1, err
            assert err.startswith(("error:", "i/o error:")), err

    @given(path=st.sampled_from(list(_nodes(RANDOM103))[1:]),
           repeat=st.booleans())
    @example(path=("gates", 1), repeat=False)
    @example(path=("gates", 2), repeat=True)
    @example(path=("quad", "mass"), repeat=True)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_dropped_or_repeated_node(self, planned_random103, path, repeat):
        """One key or list item of random_track(103)'s track document, a
        gate or a vertex among them, dropped or written twice (a list item
        beside its copy, a key twice in its mapping): check prints its
        verdicts with nothing on stderr, or exactly one error line, and ends
        in a documented exit code."""
        _, csv = planned_random103
        doc = copy.deepcopy(RANDOM103)
        *above, last = path
        parent = doc
        for key in above:
            grandparent, parent = parent, parent[key]
        if not repeat:
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            pairs = _Pairs([*parent.items(), (last, parent[last])])
            if above:
                grandparent[above[-1]] = pairs
            else:
                doc = pairs
        track = csv.parent / "edited.yaml"
        track.write_text(yaml.dump(doc, Dumper=_PairsDumper))
        _outcome(["check", str(csv), str(track)])

    @pytest.mark.parametrize("command", ["plan", "check"])
    @pytest.mark.parametrize("text, message", [
        (TRACK.encode().replace(b"quad:", b"\xff\xfequad:"),
         "'utf-8' codec can't decode byte 0xff"),
        (b"a: " + b"[" * 5000 + b"]" * 5000 + b"\n",
         f"lists and mappings nest deeper than {trackio.MAX_DEPTH}"),
    ], ids=["not-utf8", "nested-5000"])
    def test_unreadable_track_exits_validation(self, command, text, message,
                                               planned, tmp_path):
        """A track file that is no UTF-8 text, or whose lists nest deeper
        than MAX_DEPTH, ends in one error line naming it, exit 1."""
        _, out = planned
        track = tmp_path / "track.yaml"
        track.write_bytes(text)
        argv = {"plan": ["plan", str(track), "--out-dir", str(tmp_path / "out")],
                "check": ["check", str(out / "trajectory.csv"), str(track)]}
        code, err = _outcome(argv[command])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: {track}: {message}"), err

    @pytest.mark.parametrize("command", ["plan", "check"])
    def test_deeply_nested_track_exits_validation(self, command, planned,
                                                  tmp_path):
        """A track file of 100,000 nested lists, which libyaml's composer
        would recurse through until the C stack overflows: the command, in
        a fresh interpreter, ends in one error line and exit 1."""
        _, out = planned
        track = tmp_path / "deep.yaml"
        track.write_text("a: " + "[" * 100_000 + "]" * 100_000 + "\n")
        argv = {"plan": ["plan", str(track), "--out-dir", str(tmp_path / "out")],
                "check": ["check", str(out / "trajectory.csv"), str(track)]}
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "raceplan.cli",
                               *argv[command]], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert proc.stderr == (f"error: {track}: lists and mappings nest "
                               f"deeper than {trackio.MAX_DEPTH}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:2] + ["\udcff\udcfe"] + rows[2:],
         "'utf-8' codec can't decode byte 0xff"),
        (lambda rows: rows[:1] + [rows[1].replace("qw", "q0")] + rows[2:],
         "unexpected column layout"),
        (lambda rows: rows[:2] + [r.rpartition(",")[0] for r in rows[2:]],
         "expected 18 columns"),
    ], ids=["not-utf8", "columns-renamed", "17-columns"])
    def test_malformed_csv_exits_validation(self, edit, message, planned,
                                            tmp_path):
        """A trajectory CSV that is no UTF-8 text past its header, names
        other columns, or has 17 columns, ends in one error line naming it,
        exit 1."""
        track, out = planned
        rows = (out / "trajectory.csv").read_text().splitlines()
        csv = tmp_path / "edited.csv"
        csv.write_bytes("\n".join(edit(rows)).encode(errors="surrogateescape"))
        code, err = _outcome(["check", str(csv), str(track)])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: {csv}: {message}"), err
