"""Shared fixtures and helpers for the raceplan test suite."""

import numpy as np
import pytest

from raceplan.gates import BallGate, GateSequence, PolytopeGate
from raceplan.model import QuadParams
from raceplan.spline import BoundaryCondition


@pytest.fixture(scope="session")
def quad_a() -> QuadParams:
    return QuadParams.quad_a()


@pytest.fixture(scope="session")
def quad_b() -> QuadParams:
    return QuadParams.quad_b()


def unit_square_gate(z: float = 0.0) -> PolytopeGate:
    """Unit square polygon in the z=z plane with vertices at (0,0),(1,0),(1,1),(0,1)."""
    verts = np.array(
        [[0.0, 0.0, z], [1.0, 0.0, z], [1.0, 1.0, z], [0.0, 1.0, z]]
    )
    return PolytopeGate.from_vertices(verts, planar=True)


def tetra_gate(center=(0.0, 0.0, 0.0), scale: float = 1.0) -> PolytopeGate:
    """Regular-ish tetrahedron polyhedron gate."""
    c = np.asarray(center, dtype=float)
    verts = c + scale * np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return PolytopeGate.from_vertices(verts, planar=False)


def mixed_sequence(n: int, spacing: float = 4.0) -> GateSequence:
    """Gate sequence cycling through ball / polygon / polyhedron types."""
    gates = []
    for i in range(n):
        center = np.array([spacing * (i + 1), 0.3 * (-1) ** i, 1.5])
        kind = i % 3
        if kind == 0:
            gates.append(BallGate(center=center, radius=0.8))
        elif kind == 1:
            verts = center + np.array(
                [[0.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0],
                 [0.0, -1.0, 1.0]]
            )
            gates.append(PolytopeGate.from_vertices(verts, planar=True))
        else:
            gates.append(tetra_gate(center, scale=0.9))
    return GateSequence(gates=tuple(gates))


def rk4_rollout(traj, params: QuadParams, starts, duration: float,
                h: float = 1e-4):
    """Open-loop RK4 integration of the rigid-body dynamics driven by the
    flatness-mapped rotor thrusts along ``traj``, one window of ``duration``
    s from each time in ``starts`` (W,), each starting from the
    flatness-mapped state there.  All windows step together, as rows of one
    (W, 13) state.

    Returns the integrated and the reference positions, each (W, n + 1, 3)
    at the n + 1 step times of each window.
    """
    from scipy.spatial.transform import Rotation

    from raceplan import _flatjet
    from raceplan.model import dynamics

    starts = np.asarray(starts, dtype=float)
    n_steps = int(round(duration / h))
    # Stage times on a half-step grid so every RK4 stage reuses a
    # precomputed control sample.
    stage_times = starts[:, None] + 0.5 * h * np.arange(2 * n_steps + 1)
    derivs = traj.eval_batch(stage_times.ravel(), max_order=4)
    out = _flatjet.flat_outputs(derivs[:, 2:], params)
    assert not out.singular.any()
    derivs = derivs.reshape(*stage_times.shape, *derivs.shape[1:])
    controls = out.rotor.reshape(*stage_times.shape, 4)

    def f(x, u):
        x = x.copy()
        x[:, 3:7] /= np.linalg.norm(x[:, 3:7], axis=1, keepdims=True)
        return dynamics(x, u, params)

    first = stage_times.shape[1] * np.arange(len(starts))
    xyzw = Rotation.from_matrix(out.rotation[first]).as_quat()
    x = np.hstack([derivs[:, 0, 0], xyzw[:, [3, 0, 1, 2]], derivs[:, 0, 1],
                   out.omega[first]])
    positions = np.empty((len(starts), n_steps + 1, 3))
    positions[:, 0] = x[:, :3]
    for i in range(n_steps):
        u0, u_half, u1 = (controls[:, 2 * i + j] for j in range(3))
        k1 = f(x, u0)
        k2 = f(x + 0.5 * h * k1, u_half)
        k3 = f(x + 0.5 * h * k2, u_half)
        k4 = f(x + h * k3, u1)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x[:, 3:7] /= np.linalg.norm(x[:, 3:7], axis=1, keepdims=True)
        positions[:, i + 1] = x[:, :3]
    return positions, derivs[:, ::2, 0, :3]


def hover_pair(n: int, spacing: float = 4.0):
    """Hover boundary conditions bracketing a mixed_sequence(n) track."""
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.5])
    bcf = BoundaryCondition.hover([spacing * (n + 1), 0.0, 1.5])
    return bc0, bcf
