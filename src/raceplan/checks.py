"""The one acceptance rule for a sampled trajectory, run by solve and check."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import GateSequence, contains
from .model import QuadParams, limit_residuals

#: Fraction of a thrust or body-rate limit's range that samples may exceed.
HEADROOM = 0.01
#: Golden-section steps per sample interval when a gate is searched; they
#: shrink the bracket to 1e-10 of the interval.
GOLDEN_STEPS = 48
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Largest containment residual, m, that counts as passing a gate.
PASS_TOL = 1e-6


class Check(NamedTuple):
    """One check's verdict and worst values, printed by ``fmt``: the thrust
    range (min, max) in N or the peak body rate (max,) in rad/s, else ()."""

    name: str
    passed: bool
    worst: tuple = ()
    fmt: str = ""

    def __str__(self) -> str:
        detail = f" ({self.fmt.format(*self.worst)})" if self.worst else ""
        return f"{'pass' if self.passed else 'FAIL'}: {self.name}{detail}"


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


# A far gate or sample overflows its residual to +inf, which fails the check
# as it should, so numpy's warnings are off here as in solve.
@np.errstate(over="ignore", invalid="ignore")
def verify(times, states, controls, seq: GateSequence,
           params: QuadParams) -> list[Check]:
    """Check a sampled trajectory: times (N,), states (N, 13) as p, q(wxyz),
    v, omega, and rotor thrusts controls (N, 4).  Thrusts and body rates may
    exceed their limits by HEADROOM of the limit's range."""
    positions, quats, velocities, rates = np.split(states, [3, 7, 10], axis=1)
    # Gate containment and traversal order in one ordered sweep: each gate
    # is passed at its first passing sample at or after the previous gate's.
    idx, contained, ordered = 0, True, True
    for gate in seq.gates:
        passes = np.flatnonzero(
            _residuals(gate, times, positions, velocities) <= PASS_TOL)
        later = passes[passes >= idx]
        contained &= len(passes) > 0
        ordered &= len(later) > 0 or len(passes) == 0
        idx = later[0] if len(later) else idx
    res, _, scale = limit_residuals(controls, rates, params)
    within = res <= HEADROOM * scale
    norms = np.linalg.norm(quats, axis=1)
    return [
        Check("gate containment", contained),
        Check("traversal order", ordered),
        Check("rotor thrust bounds", bool(within[:, :4].all()),
              (float(controls.min()), float(controls.max())),
              "range [{:.3f}, {:.3f}] N"),
        Check("body rate bounds", bool(within[:, 4:].all()),
              (float(np.abs(rates).max()),), "max {:.3f} rad/s"),
        Check("quaternion norms", bool(np.all(np.abs(norms - 1) < 1e-6))),
        Check("monotone timestamps", bool(np.all(np.diff(times) > 0))),
    ]
