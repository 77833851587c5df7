"""Unconstrained minimization of the planning objective.

A limited-memory quasi-Newton loop with a strong-Wolfe line search drives
the decision variables (gate parameters D, time variables K).  Infinite
objective values (flatness singularities) are handled by the line search
backtracking, so the solver never crashes on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cost as cost_mod
from . import gates as gates_mod
from .cost import SamplingConfig
from .errors import RaceplanError
from .gates import DecisionVector, GateSequence
from .model import QuadParams, rotation_to_quat
from . import _flatjet
from .spline import BoundaryCondition, TrajectorySpline


# L-BFGS: history length, iteration cap, relative gradient tolerance, strong
# Wolfe constants, and the stall test (this many iterations in a row that
# lower f by less than STALL_DECREASE end the solve as converged).
MEMORY = 8
MAX_ITERATIONS = 3000
GRAD_TOLERANCE = 1e-6
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
STALL_ITERATIONS = 20
STALL_DECREASE = 1e-10
# Post-optimization feasibility restoration: uniformly stretch segment
# durations (waypoints fixed), by at most RESTORE_MAX_SCALE, until the
# sampled penalty is at most RESTORE_PENALTY_TOL.
RESTORE_PENALTY_TOL = 1e-8
RESTORE_MAX_SCALE = 1.5


@dataclass(frozen=True)
class OptimizerConfig:
    initial_speed_guess: float = 3.0
    restarts: int = 0
    seed: int = 0


@dataclass
class SolveDiagnostics:
    iterations: int
    objective_trace: list
    final_grad_norm: float
    wall_time: float
    termination: str  # converged | max_iter | line_search_failure
    seed: int = 0
    function_evals: int = 0


@dataclass
class PlanResult:
    spline: TrajectorySpline
    decision: DecisionVector
    waypoints: np.ndarray        # (L, 3)
    durations: np.ndarray        # (L+1,)
    gate_times: np.ndarray       # (L,) cumulative traversal times
    total_time: float
    objective: float
    penalty: float
    max_violation: dict
    sample_times: np.ndarray     # (N,)
    states: np.ndarray           # (N, 13): p, q(wxyz), v, omega
    controls: np.ndarray         # (N, 4) rotor thrusts
    diagnostics: SolveDiagnostics


def initialize(seq: GateSequence, bc0: BoundaryCondition, bcf: BoundaryCondition,
               cfg: OptimizerConfig = OptimizerConfig()) -> DecisionVector:
    """Initial decision vector: gate parameters slightly off the polytope
    convention point, durations from straight-line distances at a guessed
    speed."""
    dec = DecisionVector.for_sequence(seq, fill=0.1)
    waypoints, _, _, _ = gates_mod.decode(seq, dec)
    chain = np.vstack(
        [bc0.derivatives[0, :3], waypoints, bcf.derivatives[0, :3]]
    )
    dists = np.maximum(np.linalg.norm(np.diff(chain, axis=0), axis=1), 0.1)
    durations = dists / cfg.initial_speed_guess
    dec.K = gates_mod.time_map_inverse(durations)
    return dec


def _two_loop(grad, s_list, y_list):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(list(zip(s_list, y_list, _rhos(s_list, y_list)))):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, _rhos(s_list, y_list)),
                              reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def _rhos(s_list, y_list):
    return [1.0 / (s @ y) for s, y in zip(s_list, y_list)]


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa, da), (b, fb, db); None if
    degenerate."""
    d1 = da + db - 3 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0:
        return None
    d2 = np.sqrt(disc) * np.sign(b - a)
    denom = db - da + 2 * d2
    if denom == 0:
        return None
    return b - (b - a) * (db + d2 - d1) / denom


def _zoom(fg, x, d, lo, f_lo, d_lo, hi, f_hi, d_hi, f0, dphi0, max_iter=30):
    evals = 0
    for _ in range(max_iter):
        trial = None
        if np.isfinite(f_hi):
            trial = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi if np.isfinite(d_hi) else 0.0)
        width = abs(hi - lo)
        if trial is None or not np.isfinite(trial) or \
                not (min(lo, hi) + 0.1 * width <= trial <= max(lo, hi) - 0.1 * width):
            trial = 0.5 * (lo + hi)
        f, g = fg(x + trial * d)
        evals += 1
        if not np.isfinite(f) or f > f0 + WOLFE_C1 * trial * dphi0 or f >= f_lo:
            hi, f_hi, d_hi = trial, f, np.nan
        else:
            dphi = g @ d
            if abs(dphi) <= -WOLFE_C2 * dphi0:
                return trial, f, g, evals
            if dphi * (hi - lo) >= 0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = trial, f, dphi
        if abs(hi - lo) < 1e-14:
            break
    if np.isfinite(f_lo) and f_lo < f0:
        # Sufficient decrease only; accept the best point found.
        f, g = fg(x + lo * d)
        evals += 1
        return lo, f, g, evals
    return None, None, None, evals


def _strong_wolfe(fg, x, d, f0, g0, max_iter=20):
    """Strong-Wolfe line search; returns (alpha, f, g, evals) or alpha None."""
    dphi0 = g0 @ d
    if dphi0 >= 0:
        return None, None, None, 0
    alpha_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = 1.0
    evals = 0
    for i in range(max_iter):
        f, g = fg(x + alpha * d)
        evals += 1
        if not np.isfinite(f) or f > f0 + WOLFE_C1 * alpha * dphi0 or \
                (f >= f_prev and i > 0):
            a, fa, ga, e = _zoom(fg, x, d, alpha_prev, f_prev, d_prev,
                                 alpha, f, np.nan, f0, dphi0)
            return a, fa, ga, evals + e
        dphi = g @ d
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return alpha, f, g, evals
        if dphi >= 0:
            a, fa, ga, e = _zoom(fg, x, d, alpha, f, dphi,
                                 alpha_prev, f_prev, d_prev, f0, dphi0)
            return a, fa, ga, evals + e
        alpha_prev, f_prev, d_prev = alpha, f, dphi
        alpha = min(2.0 * alpha, 1e4)
    return None, None, None, evals


def _minimize(fg, x0):
    """L-BFGS with strong Wolfe; returns (x_best, f_best, diagnostics)."""
    x = x0.copy()
    f, g = fg(x)
    evals = 1
    if not np.isfinite(f):
        raise RaceplanError("objective is not finite at the initial point")
    trace = [f]
    s_list, y_list = [], []
    best_x, best_f = x.copy(), f
    stall = 0
    termination = "max_iter"
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        gnorm = np.linalg.norm(g)
        if gnorm / max(1.0, abs(f)) < GRAD_TOLERANCE:
            termination = "converged"
            break
        d = _two_loop(g, s_list, y_list)
        if d @ g >= 0:  # safeguard: fall back to steepest descent
            d = -g
            s_list, y_list = [], []
        alpha, f_new, g_new, e = _strong_wolfe(fg, x, d, f, g)
        evals += e
        if alpha is None:
            termination = "line_search_failure"
            break
        s = alpha * d
        y = g_new - g
        if s @ y > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        decrease = f - f_new
        x = x + s
        f, g = f_new, g_new
        trace.append(f)
        if f < best_f:
            best_f, best_x = f, x.copy()
        stall = stall + 1 if decrease < STALL_DECREASE else 0
        if stall >= STALL_ITERATIONS:
            termination = "converged"
            break
    diag = SolveDiagnostics(
        iterations=it,
        objective_trace=trace,
        final_grad_norm=float(np.linalg.norm(g)),
        wall_time=0.0,
        termination=termination,
        function_evals=evals,
    )
    return best_x, best_f, diag


def _restore_feasibility(dec: DecisionVector, penalty_of):
    """Stretch all durations by the smallest uniform factor that drives the
    sampled penalty below tolerance.  Waypoints are untouched, so gate
    traversal is preserved exactly."""
    durations, _ = gates_mod.time_map(dec.K)

    def scaled(gamma):
        out = DecisionVector(D=dec.D, K=gates_mod.time_map_inverse(gamma * durations),
                             offsets=dec.offsets)
        return out

    if penalty_of(scaled(1.0)) <= RESTORE_PENALTY_TOL:
        return dec
    hi = RESTORE_MAX_SCALE
    if penalty_of(scaled(hi)) > RESTORE_PENALTY_TOL:
        return dec  # restoration out of reach; keep the optimizer's iterate
    lo = 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if penalty_of(scaled(mid)) <= RESTORE_PENALTY_TOL:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-4:
            break
    return scaled(hi)


def _sample_trajectory(traj: TrajectorySpline, params: QuadParams, dt: float):
    n = max(2, int(np.floor(traj.total_time / dt)) + 1)
    times = np.minimum(np.arange(n) * dt, traj.total_time)
    if times[-1] < traj.total_time - 1e-12:
        times = np.append(times, traj.total_time)
    derivs = traj.eval_batch(times, max_order=4)
    out = _flatjet.flat_outputs(derivs, params)
    states = np.empty((len(times), 13))
    states[:, :3] = derivs[:, 0, :3]
    for i in range(len(times)):
        states[i, 3:7] = rotation_to_quat(out.rotation[i])
    states[:, 7:10] = derivs[:, 1, :3]
    states[:, 10:13] = out.omega
    return times, states, out.rotor.copy()


def solve(seq: GateSequence, params: QuadParams,
          bc0: BoundaryCondition, bcf: BoundaryCondition,
          opt_cfg: OptimizerConfig = OptimizerConfig(),
          sample_dt: float = 0.01) -> PlanResult:
    """Plan a trajectory through the gate sequence.

    Runs the quasi-Newton loop from the deterministic initialization (plus
    optional seeded random restarts) and returns the best iterate with
    sampled state/control trajectories and diagnostics.
    """
    t_start = time.perf_counter()
    dec0 = initialize(seq, bc0, bcf, opt_cfg)

    def fg(x):
        rep = cost_mod.objective(dec0.with_flat(x), seq, params, bc0, bcf)
        if rep.gradient is None:
            return np.inf, None
        return rep.total, rep.gradient.to_flat()

    starts = [dec0.to_flat()]
    rng = np.random.default_rng(opt_cfg.seed)
    for _ in range(opt_cfg.restarts):
        starts.append(starts[0] + rng.normal(scale=0.3, size=len(starts[0])))

    best = None
    for x0 in starts:
        x, f, diag = _minimize(fg, x0)
        if best is None or f < best[1]:
            best = (x, f, diag)
    x, f, diag = best
    diag.seed = opt_cfg.seed
    diag.wall_time = time.perf_counter() - t_start

    # Verify restoration on a grid finer than both the optimization
    # sampling and the export rate, so peaks between penalty samples
    # cannot slip past the downstream bound checks.
    sampling = SamplingConfig()
    fine = SamplingConfig(
        min_samples_per_segment=4 * sampling.min_samples_per_segment,
        target_dt=sampling.target_dt / 4.0,
    )

    def penalty_of(d):
        waypoints, durations, _, _ = gates_mod.decode(seq, d)
        traj = cost_mod.spline_mod.construct(waypoints, durations, bc0, bcf)
        return cost_mod.penalty(traj, params, fine)[0]

    dec = _restore_feasibility(dec0.with_flat(x), penalty_of)
    report = cost_mod.objective(dec, seq, params, bc0, bcf)
    traj = report.spline
    times, states, controls = _sample_trajectory(traj, params, sample_dt)
    return PlanResult(
        spline=traj,
        decision=dec,
        waypoints=traj.waypoints[:, :3].copy(),
        durations=traj.durations.copy(),
        gate_times=traj.junction_times.copy(),
        total_time=traj.total_time,
        objective=report.total,
        penalty=report.penalty_term,
        max_violation=report.max_violation,
        sample_times=times,
        states=states,
        controls=controls,
        diagnostics=diag,
    )
