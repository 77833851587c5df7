"""Tests for track-file parsing, validation and sequence building."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml

from raceplan import trackio
from raceplan.errors import RaceplanError, ValidationError
from raceplan.gates import BallGate, PolytopeGate
from raceplan.trackio import (
    MAX_DEPTH, MAX_LAPS, TrackOptions, build_sequence, loads, parse, serialize,
    to_waypoint_mode,
)
from raceplan.tracks import loop_track, random_track


def _says(message, mutate):
    """Mark a document mutation whose error must read exactly ``message``."""
    mutate.message = message
    return mutate

MINIMAL = """
schema_version: 1
quad: quad_a
start: [0, 0, 1.5]
finish: [6, 0, 1.5]
gates:
  - type: ball
    center: [3, 0, 1.5]
    radius: 1.0
"""

SQUARE = """
schema_version: 1
quad: quad_a
start: [0, 0, 1.5]
finish: [6, 0, 1.5]
gates:
  - type: polygon
    vertices:
      - [3, -1.2, 0.3]
      - [3, 1.2, 0.3]
      - [3, 1.2, 2.7]
      - [3, -1.2, 2.7]
options:
  margin: 0.3
"""

QUAD = {"mass": 0.85, "arm_length": 0.15, "inertia": [1.0, 1.0, 1.7],
        "torque_const": 0.05, "f_max": 6.88, "omega_max": [15, 15, 3]}


class TestParse:
    def test_minimal_ball_track(self):
        track = loads(MINIMAL)
        assert len(track.gates) == 1
        assert isinstance(track.gates[0], BallGate)
        assert track.quad.mass == 0.85
        assert np.allclose(track.finish, [6, 0, 1.5])

    def test_margin_shrinks_square_side(self):
        track = loads(SQUARE)
        seq = build_sequence(track)
        gate = seq.gates[0]
        extent = gate.vertices.max(axis=0) - gate.vertices.min(axis=0)
        assert max(extent) == pytest.approx(2.1, abs=1e-9)

    def test_coincident_vertices_rejected(self):
        bad = SQUARE.replace("[3, 1.2, 0.3]", "[3, -1.2, 0.3]")
        with pytest.raises(ValidationError, match="gates"):
            loads(bad)

    def test_wrong_schema_version(self):
        with pytest.raises(ValidationError, match="schema_version"):
            loads(MINIMAL.replace("schema_version: 1", "schema_version: 99"))

    def test_strict_mode_rejects_unknown_keys(self):
        doc = MINIMAL + "\nmystery_key: 1\n"
        with pytest.raises(ValidationError) as info:
            loads(doc)
        assert str(info.value) == "track: unknown keys ['mystery_key']"

    def test_quad_mapping_with_units(self):
        doc = yaml.safe_load(MINIMAL)
        doc["quad"] = {
            "mass": 0.85, "arm_length": 0.15, "inertia": [1.0, 1.0, 1.7],
            "torque_const": 0.05, "f_max": 6.88, "omega_max": [15, 15, 3],
        }
        track = loads(yaml.safe_dump(doc))
        assert np.allclose(track.quad.inertia_diag, [1e-3, 1e-3, 1.7e-3])
        doc["quad"]["inertia_units"] = "kg_m2"
        track = loads(yaml.safe_dump(doc))
        assert np.allclose(track.quad.inertia_diag, [1.0, 1.0, 1.7])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse(tmp_path / "nope.yaml")

    def test_parse_file_round_trip(self, tmp_path):
        path = tmp_path / "track.yaml"
        path.write_text(MINIMAL)
        assert parse(path).quad.f_max == 6.88

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("gates"),
        lambda d: d.pop("start"),
        lambda d: d.__setitem__("gates", []),
        _says("gates[0]: missing required key 'radius'",
              lambda d: d["gates"][0].pop("radius")),
        _says("gates[0].type: unknown gate type 'pentagram'",
              lambda d: d["gates"][0].__setitem__("type", "pentagram")),
        _says("gates[0].center: expected a 3-vector",
              lambda d: d["gates"][0].__setitem__("center", [1, 2])),
        lambda d: d.__setitem__("options", {"laps": 0}),
        lambda d: d.__setitem__("options", {"mode": "fastest"}),
        lambda d: d.__setitem__("options", {"margin": -1}),
        lambda d: d.__setitem__("quad", "quad_z"),
        lambda d: d.__setitem__("options", {"laps": 1.5}),
        lambda d: d.__setitem__("options", {"margin": float("nan")}),
        _says("options.margin: not a number",
              lambda d: d.__setitem__("options", {"margin": "wide"})),
        lambda d: d.__setitem__("options", 5),
        _says("gates[0]: ball gate radius must be finite and of magnitude at "
              "most 1e+06",
              lambda d: d["gates"][0].__setitem__("radius", float("nan"))),
        lambda d: d["gates"][0].__setitem__("radius", float("inf")),
        _says("gates[0].center must be finite and of magnitude at most 1e+06",
              lambda d: d["gates"][0].__setitem__("center", [3, float("nan"), 1.5])),
        lambda d: d["gates"][0].__setitem__("center", [float("inf"), 0, 1.5]),
        lambda d: d.__setitem__("start", [0, 0, float("nan")]),
        lambda d: d.__setitem__("finish", [float("-inf"), 0, 1.5]),
        lambda d: d.__setitem__("gates", [{"type": "polygon", "vertices": [
            [3, -1, 0.5], [3, 1, 0.5], [3, 1, 2.5], [3, float("nan"), 2.5]]}]),
        lambda d: d.__setitem__("quad", {**QUAD, "mass": float("nan")}),
        lambda d: d.__setitem__("quad", {**QUAD, "f_max": float("inf")}),
        lambda d: d.__setitem__("quad", {**QUAD, "inertia": [1, float("nan"), 1.7]}),
        lambda d: d.__setitem__("quad", {**QUAD, "omega_max": [15, 15, float("nan")]}),
        lambda d: d.__setitem__("options", {"waypoint_tolerance": float("nan")}),
        lambda d: d.__setitem__("options", {"waypoint_tolerance": float("inf")}),
        _says("gates[0].radius: not a number",
              lambda d: d["gates"][0].__setitem__("radius", "wide")),
        _says("gates[0].vertices: not a numeric array",
              lambda d: d.__setitem__("gates", [{"type": "polygon", "vertices": "wide"}])),
        _says("quad.mass: not a number",
              lambda d: d.__setitem__("quad", {**QUAD, "mass": [0.85]})),
        _says("quad.inertia: not a numeric array",
              lambda d: d.__setitem__("quad", {**QUAD, "inertia": "wide"})),
        _says("quad.inertia: expected a 3-vector",
              lambda d: d.__setitem__("quad", {**QUAD, "inertia": [1, 2]})),
        # YAML booleans are no numbers, though float(True) is 1.0.
        _says("options.margin: not a number",
              lambda d: d.__setitem__("options", {"margin": True})),
        _says("options.laps must be an integer >= 1",
              lambda d: d.__setitem__("options", {"laps": True})),
        _says("gates[0].radius: not a number",
              lambda d: d["gates"][0].__setitem__("radius", True)),
        _says("quad.mass: not a number",
              lambda d: d.__setitem__("quad", {**QUAD, "mass": True})),
        _says("options.waypoint_tolerance: not a number",
              lambda d: d.__setitem__("options", {"waypoint_tolerance": [1]})),
        _says("quad: expected a preset name or a mapping",
              lambda d: d.__setitem__("quad", 5)),
        _says("gates[0]: polytope gate needs at least 3 vertices",
              lambda d: d.__setitem__("gates", [{"type": "polygon", "vertices": [
                  [3, -1, 0.5], [3, 1, 0.5]]}])),
        _says("quad: arm length and torque constant give no finite mixer",
              lambda d: d.__setitem__("quad", {**QUAD, "arm_length": 5e-324,
                                               "torque_const": 5e-324})),
        # A key outside the format is refused at every level, named with
        # its node; YAML keys need not be strings.
        _says("quad: unknown keys ['mas']",
              lambda d: d.__setitem__("quad", {**QUAD, "mas": 0.85})),
        _says("gates[0]: unknown keys ['tunnel']",
              lambda d: d["gates"][0].__setitem__("tunnel", True)),
        _says("options: unknown keys ['marign']",
              lambda d: d.__setitem__("options", {"marign": 0.2})),
        _says("track: unknown keys [1, None, 'z']",
              lambda d: d.update({1: "a", None: "b", "z": "c"})),
        # Each gate type has its own keys; a type that is no string is
        # still refused as a type.
        _says("gates[0]: unknown keys ['center', 'radius']",
              lambda d: d.__setitem__("gates", [{"type": "polygon", "vertices": [
                  [3, -1, 0.5], [3, 1, 0.5], [3, 1, 2.5]],
                  "center": [3, 0, 1.5], "radius": 0.5}])),
        _says("gates[0]: unknown keys ['vertices']",
              lambda d: d["gates"][0].__setitem__("vertices", [[3, 0, 1.5]])),
        _says("gates[0]: unknown keys ['radius']",
              lambda d: d.__setitem__("gates", [{"type": "polyhedron", "vertices": [
                  [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "radius": 0.5}])),
        _says("gates[0].type: unknown gate type [1, 2]",
              lambda d: d["gates"][0].__setitem__("type", [1, 2])),
        # Only a missing key or null means the default options.
        *(_says("options: expected a mapping",
                lambda d, v=v: d.__setitem__("options", v))
          for v in ([], 0, False, "")),
        # f_min and omega_max are named once, as the other quad keys are.
        _says("quad.f_min: not a number",
              lambda d: d.__setitem__("quad", {**QUAD, "f_min": "low"})),
        _says("quad.omega_max: expected a 3-vector",
              lambda d: d.__setitem__("quad", {**QUAD, "omega_max": [15, 15]})),
        # A track file's numbers are YAML numbers: a string that float()
        # would parse is none, nor is true in an array.
        _says("quad.mass: not a number",
              lambda d: d.__setitem__("quad", {**QUAD, "mass": "0.85"})),
        _says("options.margin: not a number",
              lambda d: d.__setitem__("options", {"margin": "0.3"})),
        _says("gates[0].radius: not a number",
              lambda d: d["gates"][0].__setitem__("radius", "1.0")),
        _says("start: not a numeric array",
              lambda d: d.__setitem__("start", ["0", "0", "1.5"])),
        _says("gates[0].center: not a numeric array",
              lambda d: d["gates"][0].__setitem__("center", [True, 0, 1.5])),
        _says("gates[0].vertices: not a numeric array",
              lambda d: d.__setitem__("gates", [{"type": "polygon", "vertices": [
                  [3, -1, 0.5], [3, 1, 0.5], [3, 1, "2.5"]]}])),
        # An integer past the float range is refused, not an OverflowError.
        _says("quad.mass: not a number",
              lambda d: d.__setitem__("quad", {**QUAD, "mass": 10**400})),
        _says("start: not a numeric array",
              lambda d: d.__setitem__("start", [10**400, 0, 1.5])),
        # The version is the integer 1, though true and 1.0 compare equal to it.
        _says("schema_version: expected 1, got True",
              lambda d: d.__setitem__("schema_version", True)),
        _says("schema_version: expected 1, got 1.0",
              lambda d: d.__setitem__("schema_version", 1.0)),
    ])
    def test_mutated_documents_raise_structured_errors(self, mutate):
        doc = yaml.safe_load(MINIMAL)
        mutate(doc)
        with pytest.raises(RaceplanError) as info:
            loads(yaml.safe_dump(doc))
        if hasattr(mutate, "message"):
            assert str(info.value) == mutate.message

    def test_invalid_yaml_is_parse_error(self):
        with pytest.raises(ValidationError, match="<string>: "):
            loads("gates: [unclosed")

    def test_lone_surrogate_is_parse_error(self):
        with pytest.raises(ValidationError, match="<string>: "):
            loads(MINIMAL.replace("quad_a", "quad_\udcff"))

    @pytest.mark.parametrize("options", ["", "options:\n", "options: null\n"])
    def test_missing_or_null_options_are_the_defaults(self, options):
        assert loads(MINIMAL + options).options == TrackOptions()


class TestSerialize:
    def test_round_trip_identity(self):
        for track in (loads(MINIMAL), loads(SQUARE), loop_track(),
                      random_track(seed=0)):
            back = loads(serialize(track))
            assert len(back.gates) == len(track.gates)
            assert np.allclose(back.start, track.start)
            assert back.options == track.options
            assert back.quad.mass == track.quad.mass
            assert np.allclose(back.quad.inertia_diag, track.quad.inertia_diag)
            for a, b in zip(back.gates, track.gates):
                assert type(a) is type(b)
                if isinstance(a, BallGate):
                    assert np.allclose(a.center, b.center)
                    assert a.radius == b.radius
                else:
                    assert np.allclose(a.vertices, b.vertices)


def _same(a, b):
    """Whether a and b hold the same types and bits, arrays and dataclass
    fields included."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    return type(a) is type(b) and a == b


class TestLoaders:
    """loads gives the same tracks and errors with libyaml's loader and
    with the pure-Python one it falls back to."""

    @pytest.fixture(autouse=True, params=[yaml.SafeLoader, *(
        [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])],
        ids=lambda loader: loader.__name__)
    def loader(self, request, monkeypatch):
        monkeypatch.setattr(trackio, "_LOADER", request.param)

    def test_serialized_track_loads_to_the_same_track(self):
        track = loop_track()
        assert _same(loads(serialize(track)), track)

    def test_nesting_past_the_depth_limit_is_refused(self):
        def nested(depth):  # the top mapping and depth - 1 lists in it
            return "a: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"

        with pytest.raises(ValidationError, match="unknown keys"):
            loads(nested(MAX_DEPTH))
        with pytest.raises(ValidationError) as info:
            loads(nested(MAX_DEPTH + 1))
        assert str(info.value) == (
            f"<string>: lists and mappings nest deeper than {MAX_DEPTH}")

    def test_lone_surrogate_is_parse_error(self):
        with pytest.raises(ValidationError, match="<string>: "):
            loads(MINIMAL.replace("quad_a", "quad_\udcff"))


class TestWaypointMode:
    def test_square_becomes_tolerance_ball(self):
        track = loads(SQUARE)
        wp = to_waypoint_mode(track)
        gate = wp.gates[0]
        assert isinstance(gate, BallGate)
        assert gate.radius == 0.3
        assert np.allclose(gate.center, [3, 0, 1.5])

    def test_ball_radius_overwritten(self):
        wp = to_waypoint_mode(loads(MINIMAL))
        assert wp.gates[0].radius == 0.3

    def test_build_sequence_wp_mode_ignores_margin(self):
        track = loads(SQUARE)
        seq = build_sequence(track, mode="togt-wp", margin=0.3)
        assert isinstance(seq.gates[0], BallGate)
        assert seq.gates[0].radius == 0.3


class TestLaps:
    def test_single_lap_count(self):
        seq = build_sequence(loop_track(), laps=1)
        assert len(seq) == 7

    def test_multi_lap_repetition(self):
        track = loop_track()
        for laps in (2, 3, 5):
            seq = build_sequence(track, laps=laps)
            assert len(seq) == 7 * laps
            for lap in range(laps):
                assert type(seq.gates[7 * lap]) is type(track.gates[0])

    def test_integral_lap_count(self):
        """A lap count of any integer type but bool builds, as a restart
        count does, and options of numpy types serialize as plain YAML."""
        assert len(build_sequence(loop_track(), laps=np.int64(2))) == 14
        options = TrackOptions(margin=np.float64(0.1), laps=np.int64(2))
        text = serialize(replace(loop_track(), options=options))
        assert loads(text).options == TrackOptions(margin=0.1, laps=2)

    def test_bad_lap_count(self):
        with pytest.raises(ValidationError):
            build_sequence(loop_track(), laps=0)

    def test_lap_count_bounded_before_repeating(self):
        """MAX_LAPS laps build; one more is refused before the gate list is
        repeated."""
        assert len(build_sequence(loop_track(), laps=MAX_LAPS)) == 7 * MAX_LAPS
        with pytest.raises(ValidationError, match=f"--laps must be at most {MAX_LAPS}"):
            build_sequence(loop_track(), laps=MAX_LAPS + 1)


class TestBuildSequence:
    def test_polyhedron_gate_type(self):
        doc = yaml.safe_load(MINIMAL)
        doc["gates"] = [{
            "type": "polyhedron",
            "vertices": [[3, 0, 1], [4, 1, 1], [4, -1, 1], [3.5, 0, 2]],
        }]
        track = loads(yaml.safe_dump(doc))
        seq = build_sequence(track)
        assert isinstance(seq.gates[0], PolytopeGate)
        assert not seq.gates[0].is_planar

    def test_flag_overrides(self):
        track = loads(SQUARE)
        seq = build_sequence(track, margin=0.0, laps=2)
        assert len(seq) == 2
        extent = seq.gates[0].vertices.max(axis=0) - seq.gates[0].vertices.min(axis=0)
        assert max(extent) == pytest.approx(2.4)

    @pytest.mark.parametrize("override", [
        {"margin": -1.0}, {"margin": float("nan")}, {"laps": 0},
        {"mode": "fastest"}, {"margin": 5.0},
    ])
    def test_overrides_validated_like_the_file(self, override):
        """A flag is checked as the same key in the file would be, and a
        margin that consumes a gate is a validation error too.  A bad flag
        is named by the flag, the same value in the file by its key."""
        ((key, value),) = override.items()
        with pytest.raises(ValidationError) as from_flag:
            build_sequence(loads(SQUARE), **override)
        doc = yaml.safe_load(SQUARE)
        doc["options"][key] = value
        with pytest.raises(ValidationError) as from_file:
            build_sequence(loads(yaml.safe_dump(doc)))
        flag_message, file_message = str(from_flag.value), str(from_file.value)
        if value == 5.0:  # the margin is valid; the gate it consumes is named
            assert flag_message == file_message == "margin consumes the polytope gate"
        else:
            assert file_message.startswith(f"options.{key}")
            assert flag_message == file_message.replace(f"options.{key}", f"--{key}")
