"""The one acceptance rule for a sampled trajectory, run by solve and check."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .gates import GateSequence, containment, contains_floor, require_workspace
from .model import QuadParams, limit_residuals

#: Fraction of a thrust or body-rate limit's range that samples may exceed.
HEADROOM = 0.01
#: Golden-section steps per sample interval when a gate is searched; they
#: shrink the bracket to 1e-10 of the interval.
GOLDEN_STEPS = 48
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Largest containment residual, m, that counts as passing a gate.
PASS_TOL = 1e-6
#: The body axes of the three body rates, in their column order.
RATE_AXES = ("roll", "pitch", "yaw")


class Check(NamedTuple):
    """One check's verdict and worst values, printed by ``fmt``: the thrust
    range (min, max) in N, or the peak |rate| (max,) in rad/s of the body
    axis with the largest |rate| / omega_max, which ``fmt`` names; else ()."""

    name: str
    passed: bool
    worst: tuple = ()
    fmt: str = ""

    def __str__(self) -> str:
        detail = f" ({self.fmt.format(*self.worst)})" if self.worst else ""
        return f"{'pass' if self.passed else 'FAIL'}: {self.name}{detail}"


def _residuals(gates, times, positions, velocities):
    """Containment residuals of the (gate, sample) pairs that may pass: the
    gates' indices, the samples' rows and the residuals, ordered by gate,
    then row.  Every pair left out has a residual above PASS_TOL.

    A pair's residual is the lowest ``contains`` value found at sample k or
    on the path from it to sample k + 1.  The optimum often grazes the gate
    boundary or passes a polyhedron vertex between samples, so the path
    between adjacent samples is reconstructed by cubic Hermite
    interpolation and searched by golden section for the minimum of
    ``contains``, for every pair at once.
    """
    # The piece after sample k is p_k + lam d0 + lam^2 (3 gap - 2 d0 - d1)
    # + lam^3 (d0 + d1 - 2 gap) for lam in [0, 1].  It is no longer than its
    # Bezier control polygon and ``contains`` is 1-Lipschitz, so a piece
    # with an end farther above PASS_TOL than that length cannot pass.
    dt = np.diff(times)[:, None]
    d0, d1 = dt * velocities[:-1], dt * velocities[1:]
    gap = np.diff(positions, axis=0)
    length = (np.linalg.norm(d0, axis=1) + np.linalg.norm(d1, axis=1)
              + np.linalg.norm(3 * gap - d0 - d1, axis=1)) / 3

    # Screen by distance.  contains >= mu |p - c| - beta, so a sample that
    # passes or ends a piece that may pass lies within reach = (PASS_TOL +
    # the longest piece + beta) / mu of c, with room for rounding.  The tree
    # measures the largest coordinate difference, never below the distance.
    center, mu, beta = map(np.array, zip(*map(contains_floor, gates)))
    reach = (PASS_TOL + length.max(initial=0.0) + beta) / mu
    reach += 1e-9 * (reach + np.abs(center).max(axis=1))
    rows = cKDTree(positions).query_ball_point(center, reach, p=np.inf,
                                               return_sorted=True)
    gate = np.repeat(np.arange(len(gates)), list(map(len, rows)))
    row = np.concatenate(rows).astype(np.intp, copy=False)  # float if all empty
    res = containment(gates, gate)(positions[row])

    # The pieces whose both ends were kept, screened as above.
    i = np.flatnonzero((gate[1:] == gate[:-1]) & (row[1:] == row[:-1] + 1))
    i = i[np.maximum(res[i], res[i + 1]) - length[row[i]] <= PASS_TOL]
    k = row[i]
    p0, d0, d1, gap = positions[k], d0[k], d1[k], gap[k]
    c2, c3 = 3 * gap - 2 * d0 - d1, d0 + d1 - 2 * gap
    contains_at = containment(gates, gate[i])

    def measure(lam):
        lam = lam[:, None]
        return contains_at(p0 + lam * (d0 + lam * (c2 + lam * c3)))

    x = np.full(len(i), GOLDEN)
    lo, hi, fx = np.zeros(len(i)), np.ones(len(i)), measure(x)
    for _ in range(GOLDEN_STEPS):
        # The other inner point mirrors x in the bracket: keep the better
        # of the two and cut the bracket at the worse.
        y = lo + hi - x
        fy = measure(y)
        better = fy < fx
        x, worse = np.where(better, y, x), np.where(better, x, y)
        fx = np.minimum(fx, fy)
        lo, hi = np.where(worse < x, worse, lo), np.where(worse > x, worse, hi)
    res[i] = np.minimum(res[i], fx)
    return gate, row, res


def verify(times, states, controls, seq: GateSequence,
           params: QuadParams) -> list[Check]:
    """Check a sampled trajectory: times (N,), states (N, 13) as p, q(wxyz),
    v, omega, and rotor thrusts controls (N, 4).  Thrusts and body rates may
    exceed their limits by HEADROOM of the limit's range.  Raises
    ValidationError unless every value is within WORKSPACE."""
    require_workspace(times, "trajectory times")
    require_workspace(states, "trajectory states")
    require_workspace(controls, "trajectory controls")
    positions, quats, velocities, rates = np.split(states, [3, 7, 10], axis=1)
    # The laps of a lap track repeat their gate objects, whose passes are
    # the same: each distinct gate is searched once.
    distinct = {id(gate): gate for gate in seq.gates}
    gate, row, res = _residuals(tuple(distinct.values()), times, positions,
                                velocities)
    passing = res <= PASS_TOL
    passes_of = dict(zip(distinct, np.split(row[passing], np.searchsorted(
        gate[passing], np.arange(1, len(distinct))))))
    # Gate containment and traversal order in one ordered sweep: each gate
    # is passed at its first passing sample at or after the previous gate's.
    idx, contained, ordered = 0, True, True
    for passes in map(passes_of.get, map(id, seq.gates)):
        later = passes[passes >= idx]
        contained &= len(passes) > 0
        ordered &= len(later) > 0 or len(passes) == 0
        idx = later[0] if len(later) else idx
    res, _, scale = limit_residuals(controls, rates, params)
    within = res <= HEADROOM * scale
    peaks = np.abs(rates).max(axis=0)
    axis = int(np.argmax(peaks / params.omega_max))
    norms = np.linalg.norm(quats, axis=1)
    return [
        Check("gate containment", contained),
        Check("traversal order", ordered),
        Check("rotor thrust bounds", bool(within[:, :4].all()),
              (float(controls.min()), float(controls.max())),
              "range [{:.3f}, {:.3f}] N"),
        Check("body rate bounds", bool(within[:, 4:].all()),
              (float(peaks[axis]),), f"max {RATE_AXES[axis]} rate {{:.3f}} rad/s"),
        Check("quaternion norms", bool(np.all(np.abs(norms - 1) < 1e-6))),
        Check("monotone timestamps", bool(np.all(np.diff(times) > 0))),
    ]
