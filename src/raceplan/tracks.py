"""Synthetic track construction helpers for demos, benchmarks and tests."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .gates import BallGate, Gate, PolytopeGate
from .model import QuadParams
from .trackio import TrackFile, TrackOptions


def _frame(normal):
    """Two unit axes spanning the plane normal to ``normal``, the first
    horizontal unless the normal is vertical."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    u = np.cross(np.array([0.0, 0.0, 1.0]), n)
    if np.linalg.norm(u) < 1e-9:
        u = np.cross([1.0, 0.0, 0.0], n)
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    return u, w


def square_gate(center, normal, side: float) -> PolytopeGate:
    """Square polygon gate centered at ``center`` facing ``normal``."""
    u, w = _frame(normal)
    c = np.asarray(center, dtype=float)
    h = side / 2.0
    verts = [c + h * (su * u + sw * w)
             for su, sw in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    return PolytopeGate.from_vertices(np.array(verts), planar=True)


def loop_track() -> TrackFile:
    """The paper's 7-gate loop: 2.4 m square gates on a circle of radius 8 m,
    tangent-facing, at 1.5 m height with a 0.7 m wobble, under a 0.3 m
    margin.  Start and finish hover at the same point on the ring."""
    n_gates, radius, base_height = 7, 8.0, 1.5
    gates = []
    for i in range(n_gates):
        theta = 2.0 * np.pi * i / n_gates
        z = base_height + 0.7 * np.sin(2.0 * theta)
        center = np.array([radius * np.cos(theta), radius * np.sin(theta), z])
        normal = np.array([-np.sin(theta), np.cos(theta), 0.0])
        gates.append(square_gate(center, normal, 2.4))
    theta0 = -np.pi / n_gates
    start = np.array(
        [radius * np.cos(theta0), radius * np.sin(theta0), base_height]
    )
    return TrackFile(
        quad=QuadParams.quad_a(),
        start=start,
        finish=start.copy(),
        gates=tuple(gates),
        options=TrackOptions(margin=0.3),
    )


def _octahedron(center, scale: float) -> PolytopeGate:
    c = np.asarray(center, dtype=float)
    verts = np.vstack([c + scale * e for e in np.vstack([np.eye(3), -np.eye(3)])])
    return PolytopeGate.from_vertices(verts, planar=False)


def random_track(seed: int, n_gates: int = 3) -> TrackFile:
    """Randomized track of ball, polygon and polyhedron gates, 5 m apart
    along a meandering path, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    kinds, spacing = ("ball", "polygon", "polyhedron"), 5.0
    heading = rng.uniform(0, 2 * np.pi)
    pos = np.array([0.0, 0.0, 1.5])
    gates: list[Gate] = []
    for i in range(n_gates):
        heading += rng.uniform(-0.8, 0.8)
        step = np.array([np.cos(heading), np.sin(heading), 0.0])
        pos = pos + spacing * step + np.array([0.0, 0.0, rng.uniform(-0.4, 0.4)])
        pos[2] = max(pos[2], 0.8)
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "ball":
            gates.append(BallGate(center=pos.copy(), radius=rng.uniform(0.5, 1.2)))
        elif kind == "polygon":
            gates.append(square_gate(pos, step, rng.uniform(1.5, 2.5)))
        else:
            gates.append(_octahedron(pos, rng.uniform(0.8, 1.5)))
    start = np.array([0.0, 0.0, 1.5]) - spacing * np.array(
        [np.cos(heading), np.sin(heading), 0.0]
    ) * 0.3
    finish = pos + spacing * 0.5 * np.array([np.cos(heading), np.sin(heading), 0.0])
    return TrackFile(
        quad=QuadParams.quad_a(),
        start=start,
        finish=finish,
        gates=tuple(gates),
        options=TrackOptions(),
    )


def enlarge_gate(gate: Gate, factor: float) -> Gate:
    """Scale a gate about its center; factor >= 1 gives a superset region."""
    if factor < 1.0:
        raise ValidationError("factor must be >= 1 to enlarge")
    if isinstance(gate, BallGate):
        return BallGate(center=gate.center, radius=gate.radius * factor)
    c = gate.vertices.mean(axis=0)
    verts = c[None, :] + factor * (gate.vertices - c[None, :])
    return PolytopeGate.from_vertices(verts, planar=gate.is_planar)
