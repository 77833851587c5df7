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


def rk4_rollout(traj, params: QuadParams, t0: float, duration: float,
                h: float = 1e-4):
    """Open-loop RK4 integration of the rigid-body dynamics driven by the
    flatness-mapped rotor thrusts along ``traj``, starting from the
    flatness-mapped state at ``t0``.

    Returns (times, integrated positions, reference positions).
    """
    from scipy.spatial.transform import Rotation

    from raceplan import _flatjet
    from raceplan.model import dynamics

    n_steps = int(round(duration / h))
    # Stage times on a half-step grid so every RK4 stage reuses a
    # precomputed control sample.
    stage_times = t0 + 0.5 * h * np.arange(2 * n_steps + 1)
    derivs = traj.eval_batch(stage_times, max_order=4)
    out = _flatjet.flat_outputs(derivs[:, 2:], params)
    assert not out.singular.any()
    controls = out.rotor

    def f(x, u):
        q = x[3:7] / np.linalg.norm(x[3:7])
        return dynamics(np.concatenate([x[0:3], q, x[7:13]]), u, params)

    xyzw = Rotation.from_matrix(out.rotation[0]).as_quat()
    x = np.concatenate([derivs[0, 0], xyzw[[3, 0, 1, 2]], derivs[0, 1],
                        out.omega[0]])
    times = np.empty(n_steps + 1)
    positions = np.empty((n_steps + 1, 3))
    times[0], positions[0] = t0, x[:3]
    for i in range(n_steps):
        u0, u_half, u1 = controls[2 * i], controls[2 * i + 1], controls[2 * i + 2]
        k1 = f(x, u0)
        k2 = f(x + 0.5 * h * k1, u_half)
        k3 = f(x + 0.5 * h * k2, u_half)
        k4 = f(x + h * k3, u1)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x[3:7] /= np.linalg.norm(x[3:7])
        times[i + 1] = t0 + (i + 1) * h
        positions[i + 1] = x[:3]
    reference = derivs[::2, 0, :3]
    return times, positions, reference


def hover_pair(n: int, spacing: float = 4.0):
    """Hover boundary conditions bracketing a mixed_sequence(n) track."""
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.5])
    bcf = BoundaryCondition.hover([spacing * (n + 1), 0.0, 1.5])
    return bc0, bcf
