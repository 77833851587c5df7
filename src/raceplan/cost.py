"""Objective assembly: total flight time plus the sampled constraint penalty.

The penalty samples the flatness-mapped thrust and body-rate residuals on a
per-segment grid and integrates a cubic hinge of the violations, which keeps
the objective C^2.  All gradients are analytic and flow back through the
spline adjoint and the gate/time parameter maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _flatjet, gates, spline as spline_mod
from ._frozen import freeze
from .gates import DecisionVector, GateSequence
from .model import QuadParams, limit_residuals
from .spline import BoundaryCondition, TrajectorySpline


#: Sample grid: each segment gets at least MIN_SAMPLES intervals, at most
#: SAMPLE_DT s long.
MIN_SAMPLES = 8
SAMPLE_DT = 0.02


def samples(durations, refine: int = 1) -> np.ndarray:
    """Per-segment sample counts kappa, ``refine`` times finer than the
    optimization grid."""
    counts = np.ceil(np.asarray(durations) / (SAMPLE_DT / refine)).astype(int)
    return np.maximum(refine * MIN_SAMPLES, counts)


#: Dimensionless weights on the 7 normalized two-sided limit residuals, 4
#: rotor thrusts then 3 body rates.  They are large so the converged time/
#: violation tradeoff sits at violations well under the 1% actuation headroom.
PENALTY_WEIGHTS = freeze(np.full(7, 1e4))
#: d/dh of the cubic hinge's w h^3 is (3 w) h^2.
_CUBE_SLOPE = freeze(3.0 * PENALTY_WEIGHTS)


@dataclass
class CostReport:
    total: float
    time_term: float
    penalty_term: float
    gradient: DecisionVector | None
    spline: TrajectorySpline | None = None


def _sample_grid(durations: np.ndarray, kappa=None):
    """Per-segment sample layout: segment ids, sample ranks j, local times,
    trapezoid weights and counts kappa (``samples(durations)`` unless
    given)."""
    if kappa is None:
        kappa = samples(durations)
    counts = kappa + 1
    seg_ids = np.repeat(np.arange(len(durations)), counts)
    firsts = np.cumsum(counts) - counts
    j = np.arange(len(seg_ids)) - np.repeat(firsts, counts)
    weights = np.repeat(durations / kappa, counts)
    local = j * weights
    weights[np.concatenate([firsts, firsts + kappa])] *= 0.5  # segment ends
    return seg_ids, j, local, weights, kappa


def penalty(traj: TrajectorySpline, params: QuadParams, kappa=None):
    """Sampled cubic-hinge penalty, and on demand its exact partial
    derivatives with respect to polynomial coefficients and (directly)
    segment durations.

    Returns (value, grad); (+inf, None) when a sample hits the flatness
    singularity.  On the samples where a limit is active, ``grad()`` builds
    the cotangent and the crackle, runs the flatness VJP and the coefficient
    scatter and returns (dJ_dC (L+1, 2s, 3), dJ_dT_direct (L+1,)), so a
    caller that reads only the value never pays for any of it.  ``kappa``
    pins the per-segment sample counts, by default ``samples(durations)``.
    """
    durations = traj.durations
    num_seg = len(durations)
    ncoef = spline_mod.NCOEF
    seg_ids, j, local, weights, kappa = _sample_grid(durations, kappa)

    # The flatness map reads orders 2-4.  Every large array here is dropped
    # after its last use, so that one evaluation's working set stays small.
    out = _flatjet.flat_outputs(
        traj.eval_local(seg_ids, local, max_order=4, min_order=2), params)
    if out.singular.any():
        return math.inf, None

    # The rest runs on the active samples alone, the rows where one of the 7
    # limit residuals is not <= 0, NaN included: any other sample has a zero
    # hinge, rho and cotangent.  Every gradient step is elementwise per
    # sample, and a zero-cotangent sample adds exactly +0.0 to each sum, so
    # the result is bit for bit that of all samples.  The gather runs once,
    # here, so that the flatness map's kept values of the other samples are
    # freed now and grad() never holds them.
    hinge, sign, scale = limit_residuals(out.rotor, out.omega, params)
    rows = np.flatnonzero(~(hinge <= 0.0).all(axis=1))
    hinge, sign = hinge[rows], sign[rows]
    kept = np.take(out.kept, rows, axis=1)  # C order: the VJP reads rows
    del out
    hinge /= scale
    np.maximum(hinge, 0.0, out=hinge)

    # pow only on the few residuals past their limit; the rest cube to +0.0.
    cube = np.power(hinge, 3, out=np.zeros_like(hinge), where=hinge > 0.0)
    rho = np.zeros(len(local))
    rho[rows] = np.einsum("k,nk->n", PENALTY_WEIGHTS, cube)
    del cube
    value = float(weights @ rho)
    seg_ids, j, local, weights, rho = (
        seg_ids[rows], j[rows], local[rows], weights[rows], rho[rows])

    def grad():
        # d rho / d flat-outputs, the 4 rotor thrusts then the 3 body rates.
        cot = np.square(hinge)
        cot *= _CUBE_SLOPE
        cot *= sign / scale
        # d rho / d flat-inputs, (n, 9): one vector-Jacobian product of the
        # flatness map.
        g_inputs = _flatjet.vjp(kept, params, cot[:, :4], cot[:, 4:])
        del cot

        # rho_dot's inputs, the flat inputs one derivative order up: the kept
        # jerk and snap, and the crackle, summed as eval_local sums it.  They
        # fill one (n, 9) allocated C-contiguous, as einsum rounds by memory
        # layout: np.hstack would take its order from its inputs, F here.
        basis = spline_mod._basis(local, 5, min_order=2)  # orders 2-5
        inputs_dot = np.empty((len(rows), 9))
        inputs_dot[:, :6] = _flatjet._views(kept)[1][1:3].reshape(6, -1).T
        inputs_dot[:, 6:] = np.einsum("nm,nmd->nd", basis[:, 3],
                                      traj.segment_coefficients(seg_ids))

        # Time derivative of rho along the trajectory.
        rho_dot = np.einsum("np,np->n", g_inputs, inputs_dot)

        # Scatter input gradients onto coefficient blocks, (n, 3, 2s).
        contrib = np.zeros((len(rows), 3, ncoef))
        for o in range(3):
            contrib += basis[:, o, None, :] * g_inputs[:, 3 * o:3 * o + 3, None]
        contrib *= weights[:, None, None]
        # One bincount: each (segment, input dim, coefficient) entry sums
        # its samples in sample order onto +0.0, so the skipped samples'
        # exact +0.0 terms would not have changed a bit.
        bins = seg_ids[:, None] * (3 * ncoef) + np.arange(3 * ncoef)
        dJ_dC = np.bincount(bins.ravel(), weights=contrib.ravel(),
                            minlength=num_seg * 3 * ncoef)
        dJ_dC = dJ_dC.reshape(num_seg, 3, ncoef).transpose(0, 2, 1)

        # Direct duration dependence: quadrature weights scale with T_i and
        # the sample times move as xi = j T_i / kappa_i.
        t_contrib = weights * rho / durations[seg_ids]
        t_contrib += weights * rho_dot * j / kappa[seg_ids]
        dJ_dT_direct = np.bincount(seg_ids, weights=t_contrib, minlength=num_seg)
        return dJ_dC, dJ_dT_direct

    return value, grad


def objective(dec: DecisionVector, seq: GateSequence, params: QuadParams,
              bc0: BoundaryCondition, bcf: BoundaryCondition,
              kappa=None) -> CostReport:
    """Full objective: decode -> construct -> penalty, with the assembled
    analytic gradient in decision-variable coordinates.  ``kappa`` pins the
    per-segment sample counts; by default they follow the durations."""
    waypoints, durations, jacs, dt_dk = gates.decode(seq, dec)
    if not np.all((durations > 0) & (durations <= spline_mod.MAX_SEGMENT_DURATION)):
        # Line searches may probe absurd time variables, whose durations
        # underflow to 0, overflow past the spline's conditioning guard or
        # are NaN; report +inf so they backtrack.
        return CostReport(total=math.inf, time_term=float(np.sum(durations)),
                          penalty_term=math.inf, gradient=None)
    traj = spline_mod.construct(waypoints, durations, bc0, bcf)
    pen, pen_grad = penalty(traj, params, kappa)
    time_term = float(np.sum(durations))

    if not math.isfinite(pen):
        return CostReport(total=math.inf, time_term=time_term,
                          penalty_term=pen, gradient=None, spline=traj)

    dJ_dP, dJ_dT = spline_mod.propagate_gradients(traj, *pen_grad())
    grad_k = (dJ_dT + 1.0) * dt_dk
    grad_d = np.empty_like(dec.D)
    for (index, columns, _), jac in zip(seq.groups, jacs):
        grad_d[columns] = np.matmul(jac.transpose(0, 2, 1),
                                    dJ_dP[index, :, None])[..., 0]

    return CostReport(
        total=time_term + pen,
        time_term=time_term,
        penalty_term=pen,
        gradient=DecisionVector(D=grad_d, K=grad_k),
        spline=traj,
    )


@dataclass(frozen=True)
class Evaluator:
    """One solve's problem, as plain data so that it pickles."""

    dec0: DecisionVector
    seq: GateSequence
    params: QuadParams
    bc0: BoundaryCondition
    bcf: BoundaryCondition

    def __call__(self, x, grid=None):
        """(f, flat gradient) at the flat vector x, laid out as ``dec0``, or
        (+inf, None); on the sample grid of the point ``grid`` if given."""
        kappa = None if grid is None else samples(
            gates.time_map(self.dec0.with_flat(grid).K)[0])
        rep = objective(self.dec0.with_flat(x), self.seq, self.params,
                        self.bc0, self.bcf, kappa)
        g = rep.gradient   # None exactly where the objective is +inf
        return rep.total, None if g is None else g.to_flat()

    def fine_penalty(self, dec: DecisionVector) -> float:
        """The penalty at ``dec`` on a grid 4 times finer than the
        objective's, so that peaks between its samples show."""
        waypoints, durations, _, _ = gates.decode(self.seq, dec)
        traj = spline_mod.construct(waypoints, durations, self.bc0, self.bcf)
        return penalty(traj, self.params, samples(durations, refine=4))[0]
