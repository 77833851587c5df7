"""Race-track description files: parsing, validation, margin application,
waypoint-mode conversion and multi-lap concatenation.

The on-disk format is YAML with a ``schema_version`` key.  All lengths are
meters and masses kilograms; inertia defaults to g*m^2 (the common datasheet
unit) with an explicit ``inertia_units`` key to override.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import ValidationError
from .gates import (
    BallGate, Gate, GateSequence, PolytopeGate, gate_center, require_workspace,
    shrink_margin,
)
from .model import QuadParams

SCHEMA_VERSION = 1

_QUAD_KEYS = {
    "mass", "arm_length", "inertia", "inertia_units", "torque_const",
    "f_min", "f_max", "omega_max",
}
_GATE_KEYS = {"ball": {"type", "center", "radius"},
              "polygon": {"type", "vertices"}, "polyhedron": {"type", "vertices"}}
_OPTION_KEYS = {"margin", "laps", "mode", "waypoint_tolerance"}
_TOP_KEYS = {"schema_version", "quad", "start", "finish", "gates", "options"}
#: libyaml's loader where PyYAML was built with it, else the pure-Python one.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
#: The deepest nesting of lists and mappings a track file may have; a track
#: needs 5, down to a polytope vertex.
MAX_DEPTH = 16
#: The most laps a track may ask for.  build_sequence repeats the gate list
#: that many times, so a huge count would only exhaust memory.
MAX_LAPS = 100


@dataclass(frozen=True)
class TrackOptions:
    margin: float = 0.0
    laps: int = 1
    mode: str = "togt"
    waypoint_tolerance: float = 0.3

    def __post_init__(self):
        if self.mode not in ("togt", "togt-wp"):
            raise ValidationError(f"options.mode: unknown mode {self.mode!r}")
        # bool is an int, but YAML's true is no lap count.
        if isinstance(self.laps, bool) or not (isinstance(self.laps, numbers.Integral)
                                               and self.laps >= 1):
            raise ValidationError("options.laps must be an integer >= 1")
        if self.laps > MAX_LAPS:
            raise ValidationError(f"options.laps must be at most {MAX_LAPS}")
        for name in ("margin", "waypoint_tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"options.{name} must be a number, got {value!r}")
            require_workspace(value, f"options.{name}")
        if self.margin < 0:
            raise ValidationError("options.margin must be >= 0")
        if self.waypoint_tolerance <= 0:
            raise ValidationError("options.waypoint_tolerance must be > 0")


@dataclass(frozen=True)
class TrackFile:
    quad: QuadParams
    start: np.ndarray
    finish: np.ndarray
    gates: tuple            # of Gate
    options: TrackOptions


def _require(mapping, key, context):
    if key not in mapping:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping, allowed, context):
    unknown = set(mapping) - allowed
    if unknown:
        # key=str: YAML keys may be numbers, None or dates beside strings.
        raise ValidationError(f"{context}: unknown keys {sorted(unknown, key=str)}")


def _is_number(value):
    """Whether value is a YAML number: no string, which float() would parse,
    and no true/false, which it takes as 1/0."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, context):
    if not _is_number(value):
        raise ValidationError(f"{context}: not a number")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise ValidationError(f"{context}: not a number") from exc


def _array(value, context):
    def numeric(node):
        return all(map(numeric, node)) if isinstance(node, list) else _is_number(node)

    if not numeric(value):
        raise ValidationError(f"{context}: not a numeric array")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged lists, or a huge integer
        raise ValidationError(f"{context}: not a numeric array") from exc


def _vec3(value, context):
    v = _array(value, context)
    if v.shape != (3,):
        raise ValidationError(f"{context}: expected a 3-vector")
    require_workspace(v, context)
    return v


def _parse_quad(node) -> QuadParams:
    if isinstance(node, str):
        presets = {"quad_a": QuadParams.quad_a, "quad_b": QuadParams.quad_b}
        if node not in presets:
            raise ValidationError(f"quad: unknown preset {node!r}")
        return presets[node]()
    if not isinstance(node, dict):
        raise ValidationError("quad: expected a preset name or a mapping")
    _check_keys(node, _QUAD_KEYS, "quad")
    units = node.get("inertia_units", "g_m2")
    if units not in ("g_m2", "kg_m2"):
        raise ValidationError(f"quad.inertia_units: unknown unit {units!r}")
    inertia = _vec3(_require(node, "inertia", "quad"), "quad.inertia")
    if units == "g_m2":
        inertia = inertia * 1e-3
    scalars = {key: _number(_require(node, key, "quad"), f"quad.{key}")
               for key in ("mass", "arm_length", "torque_const", "f_max")}
    f_min = _number(node.get("f_min", 0.0), "quad.f_min")
    omega_max = _vec3(_require(node, "omega_max", "quad"), "quad.omega_max")
    try:
        return QuadParams(**scalars, inertia_diag=inertia, f_min=f_min,
                          omega_max=omega_max)
    except ValidationError as exc:
        raise ValidationError(f"quad: {exc}") from exc


def _parse_gate(node, index) -> Gate:
    ctx = f"gates[{index}]"
    if not isinstance(node, dict):
        raise ValidationError(f"{ctx}: expected a mapping")
    gtype = node.get("type")
    # A missing, unknown or unhashable type meets every type's keys; refused below.
    allowed = _GATE_KEYS.get(gtype) if isinstance(gtype, str) else None
    _check_keys(node, allowed or set().union(*_GATE_KEYS.values()), ctx)
    gtype = _require(node, "type", ctx)
    try:
        if gtype == "ball":
            gate = BallGate(
                center=_vec3(_require(node, "center", ctx), f"{ctx}.center"),
                radius=_number(_require(node, "radius", ctx), f"{ctx}.radius"),
            )
        elif gtype in ("polygon", "polyhedron"):
            verts = _array(_require(node, "vertices", ctx), f"{ctx}.vertices")
            gate = PolytopeGate.from_vertices(verts, planar=(gtype == "polygon"))
        else:
            raise ValidationError(f"{ctx}.type: unknown gate type {gtype!r}")
    except ValidationError as exc:
        message = str(exc) if str(exc).startswith(ctx) else f"{ctx}: {exc}"
        raise ValidationError(message) from exc
    return gate


def loads(text: str, name: str = "<string>") -> TrackFile:
    """Parse a track document from a string; unknown keys are errors."""
    try:
        # libyaml composes nested collections by recursion in C, which a
        # deep enough document overflows: count the depth in its events,
        # which it reads without recursion, before it composes them.
        depth = 0
        for event in yaml.parse(text, Loader=_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ValidationError(
                        f"{name}: lists and mappings nest deeper than {MAX_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        doc = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeError) as exc:  # libyaml: a lone surrogate
        raise ValidationError(f"{name}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: track document must be a mapping")
    _check_keys(doc, _TOP_KEYS, "track")
    version = doc.get("schema_version")
    # Exactly the integer: true and 1.0 compare equal to 1 too.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    quad = _parse_quad(_require(doc, "quad", "track"))
    start = _vec3(_require(doc, "start", "track"), "start")
    finish = _vec3(_require(doc, "finish", "track"), "finish")
    gate_nodes = _require(doc, "gates", "track")
    if not isinstance(gate_nodes, list) or not gate_nodes:
        raise ValidationError("gates: must be a nonempty list")
    gates = tuple(_parse_gate(g, i) for i, g in enumerate(gate_nodes))
    # Only a missing key or YAML's null means the default options.
    opt_node = {} if doc.get("options") is None else doc["options"]
    if not isinstance(opt_node, dict):
        raise ValidationError("options: expected a mapping")
    _check_keys(opt_node, _OPTION_KEYS, "options")
    given = {k: opt_node[k] for k in _OPTION_KEYS if k in opt_node}
    for key in ("margin", "waypoint_tolerance"):
        if key in given:
            given[key] = _number(given[key], f"options.{key}")
    return TrackFile(
        quad=quad,
        start=start,
        finish=finish,
        gates=gates,
        options=TrackOptions(**given),
    )


def parse(path) -> TrackFile:
    """Parse and validate a track file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return loads(text, name=str(path))


def _gate_node(gate: Gate) -> dict:
    if isinstance(gate, BallGate):
        return {
            "type": "ball",
            "center": [float(x) for x in gate.center],
            "radius": float(gate.radius),
        }
    return {
        "type": "polygon" if gate.is_planar else "polyhedron",
        "vertices": [[float(x) for x in v] for v in gate.vertices],
    }


def serialize(track: TrackFile) -> str:
    """Inverse of :func:`loads` on the structured representation."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "quad": {
            "mass": track.quad.mass,
            "arm_length": track.quad.arm_length,
            "inertia": [float(x) for x in track.quad.inertia_diag],
            "inertia_units": "kg_m2",
            "torque_const": track.quad.torque_const,
            "f_min": track.quad.f_min,
            "f_max": track.quad.f_max,
            "omega_max": [float(x) for x in track.quad.omega_max],
        },
        "start": [float(x) for x in track.start],
        "finish": [float(x) for x in track.finish],
        "gates": [_gate_node(g) for g in track.gates],
        "options": {
            "margin": float(track.options.margin),
            "laps": int(track.options.laps),
            "mode": track.options.mode,
            "waypoint_tolerance": float(track.options.waypoint_tolerance),
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def to_waypoint_mode(track: TrackFile) -> TrackFile:
    """Replace every gate by a small ball at its center/centroid."""
    tol = track.options.waypoint_tolerance
    new_gates = tuple(
        BallGate(center=gate_center(g), radius=tol) for g in track.gates
    )
    return replace(track, gates=new_gates)


def build_sequence(track: TrackFile, mode: str | None = None,
                   margin: float | None = None,
                   laps: int | None = None) -> GateSequence:
    """Apply mode conversion, safety margin and lap concatenation (the gate
    list repeated verbatim).

    The arguments that are not None override the file's options, validated
    as they are but named by their flag (``--margin``).  Waypoint mode
    replaces gates by tolerance balls at the original centers (margins do
    not apply); gate mode shrinks each gate by the margin, and a margin
    that consumes a gate raises ``ValidationError``.
    """
    options = track.options
    for key, value in {"mode": mode, "margin": margin, "laps": laps}.items():
        if value is not None:
            try:
                options = replace(options, **{key: value})
            except ValidationError as exc:
                raise ValidationError(
                    str(exc).replace(f"options.{key}", f"--{key}", 1)) from None
    if options.mode == "togt-wp":
        track = to_waypoint_mode(track)
    elif options.margin > 0:
        track = replace(track, gates=tuple(
            shrink_margin(g, options.margin) for g in track.gates))
    return GateSequence(gates=track.gates * options.laps)
