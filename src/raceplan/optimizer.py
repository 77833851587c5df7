"""Unconstrained minimization of the planning objective.

scipy's limited-memory quasi-Newton L-BFGS-B, which ``solve`` imports,
drives the decision variables (gate parameters D, time variables K),
unbounded.  Infinite objective values (flatness singularities, absurd
durations) are passed to it as +inf, so the solver never crashes on them.

A solve's starts are independent.  Where more than one CPU can take them,
the calling process runs starts itself and forks one worker fewer than the
CPUs it uses; each process takes the next unclaimed start until none is
left.  The workers inherit the solve's ``cost.Evaluator`` and the starts at
the fork, so nothing is pickled but each start's result on its way back.
Elsewhere the starts run one after the other in the calling process.
Either way they run at one OpenBLAS thread: no worker's BLAS waits on a
thread without a core, and no idle BLAS thread spins beside L-BFGS-B.  Both
ways give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import multiprocessing
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.spatial.transform import Rotation

from . import cost as cost_mod
from . import gates as gates_mod
from .checks import Check, verify
from .errors import RaceplanError, ValidationError
from .gates import DecisionVector, GateSequence
from .model import QuadParams
from . import _flatjet
from .spline import MAX_SEGMENT_DURATION, BoundaryCondition, TrajectorySpline


# L-BFGS-B (scipy): history length, iteration cap, and the tolerances on
# the relative decrease of f in one iteration and on the largest gradient
# entry.  The window stop, liblbfgs's past/delta test, ends a run first: f
# fell by at most DELTA relative over the last PAST iterations.
MEMORY = 8
MAX_ITERATIONS = 3000
F_TOLERANCE = 1e-12
GRAD_TOLERANCE = 1e-9
PAST = 3
DELTA = 3e-8
# Post-optimization feasibility restoration: uniformly stretch segment
# durations (waypoints fixed), by at most RESTORE_MAX_SCALE, until the
# sampled penalty is at most RESTORE_PENALTY_TOL.
RESTORE_PENALTY_TOL = 1e-8
RESTORE_MAX_SCALE = 1.5
#: The most rows an export may have, so that a tiny sample_dt ends in an error.
MAX_EXPORT_SAMPLES = 1_000_000
#: The most restarts a solve may run: it draws every start before the first runs.
MAX_RESTARTS = 1000


@dataclass(frozen=True)
class OptimizerConfig:
    """The initial speed guess, m/s, sets the initial durations; each of the
    ``restarts`` adds a start drawn from the ``seed``."""

    initial_speed_guess: float = 3.0
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        speed = self.initial_speed_guess
        if not (isinstance(speed, numbers.Real) and 0 < speed < np.inf):
            raise ValidationError("initial_speed_guess must be a finite number "
                                  f"above 0, got {speed!r}")
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                               and value >= 0):
                raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")
        if self.restarts > MAX_RESTARTS:
            raise ValidationError(f"restarts must be at most {MAX_RESTARTS}, "
                                  f"got {self.restarts}")


@dataclass
class SolveDiagnostics:
    iterations: int
    objective_trace: list
    final_grad_norm: float
    wall_time: float
    termination: str  # converged | max_iter | line_search_failure
    function_evals: int = 0
    # The uniform duration stretch restoration applied: 1.0 where none was
    # needed, None where feasibility was out of reach (set by solve).
    restore_scale: float | None = 1.0


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
    checks: list[Check]          # verify() of the export below
    sample_times: np.ndarray     # (N,)
    states: np.ndarray           # (N, 13): p, q(wxyz), v, omega
    controls: np.ndarray         # (N, 4) rotor thrusts
    diagnostics: SolveDiagnostics


def initialize(seq: GateSequence, bc0: BoundaryCondition, bcf: BoundaryCondition,
               cfg: OptimizerConfig = OptimizerConfig()) -> DecisionVector:
    """Initial decision vector: gate parameters slightly off the polytope
    convention point, durations from straight-line distances at a guessed
    speed, each at most half the spline's duration guard."""
    dec = DecisionVector.for_sequence(seq)
    waypoints, _, _, _ = gates_mod.decode(seq, dec)
    chain = np.vstack(
        [bc0.derivatives[0], waypoints, bcf.derivatives[0]]
    )
    dists = np.maximum(np.linalg.norm(np.diff(chain, axis=0), axis=1), 0.1)
    durations = np.minimum(dists / cfg.initial_speed_guess,
                           0.5 * MAX_SEGMENT_DURATION)
    dec.K = gates_mod.time_map_inverse(durations)
    return dec


# Extreme inputs (far coordinates, huge tolerances) overflow to +inf and NaN,
# which a solve already turns into +inf objectives or one error, so numpy's
# floating-point warnings are off in it and in each start, forked or not.
# One errstate per function: on numpy 1.x an instance is not reentrant.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _minimize(fg, x0):
    """L-BFGS-B from x0; returns (x_best, f_best, diagnostics).

    ``fg(x)`` returns the objective and its gradient at x, and
    ``fg(x, grid)`` the same on the sample grid of the point ``grid`` rather
    than on x's own.  A segment's sample count jumps with its duration, so
    the objective is only piecewise smooth and a line search can stall at a
    jump.  After such a failure, one run on the current iterate's grid,
    where the objective is smooth, carries the iterate across; if that
    lowers the objective, the solve resumes from there and the retry counts
    as one iteration.

    A non-finite objective or gradient goes to scipy as +inf, on which its
    line search falls back to the current iterate and may then report
    convergence.  A run that ends so, with no decrease since the non-finite
    trial point, is a line-search failure.  An iterate that scipy reports
    above the last one, as after a step that overflowed, is not kept.

    A run has converged once ``f[k-PAST] - f[k] <= DELTA * |f[k]|`` with no
    non-finite trial point pending: the callback then halts scipy, long
    before its one-iteration F_TOLERANCE, whose tail only follows the last
    bits of the objective.  Such a halt makes no frozen-grid retry.
    """
    evals = iterations = 0
    trace = []

    def run(x, f, g, grid=None):
        """One L-BFGS-B run from x (f and gradient g there, if known);
        returns its last iterate, the objective and gradient there, and its
        termination."""
        wall = False   # a non-finite trial point since f last decreased
        halted = False  # the window stop ended the run
        last = [x, f, g]
        past = []      # f at the run's start and at each earlier iterate
        g_eval = None  # the gradient at the last point evaluated

        def fun(y):
            nonlocal evals, wall, g_eval
            evals += 1
            fy, gy = fg(y) if grid is None else fg(y, grid)
            if not (np.isfinite(fy) and np.isfinite(gy).all()):
                if evals == 1:
                    raise RaceplanError("objective is not finite at the initial point")
                wall = True
                return np.inf, np.zeros_like(y)
            if last[1] is None:
                last[1:] = fy, gy
                trace.append(fy)
            g_eval = gy
            return fy, gy

        def callback(intermediate_result):
            nonlocal iterations, wall, halted
            fk = intermediate_result.fun
            if not fk <= last[1]:  # past an overflowing step: keep the last iterate
                return
            if fk < last[1]:
                wall = False
            past.append(last[1])
            # scipy reports an iterate right after evaluating it.
            last[:] = intermediate_result.x.copy(), fk, g_eval
            if grid is None:
                iterations += 1
                trace.append(fk)
            if (not wall and len(past) >= PAST
                    and past[-PAST] - fk <= DELTA * abs(fk)):
                halted = True
                raise StopIteration

        res = scipy.optimize.minimize(
            fun, x, jac=True, method="L-BFGS-B", callback=callback,
            options={"maxcor": MEMORY, "maxiter": MAX_ITERATIONS - iterations,
                     "ftol": F_TOLERANCE, "gtol": GRAD_TOLERANCE},
        )
        if halted or (res.status == 0 and not wall):
            return *last, "converged"
        if res.status == 1:
            return *last, "max_iter"
        return *last, "line_search_failure"

    x, f, g, termination = run(x0, None, None)
    while termination == "line_search_failure" and iterations < MAX_ITERATIONS:
        x_grid = run(x, f, None, grid=x)[0]
        f_new, g_new = fg(x_grid)
        evals += 1
        if not f_new < f:
            break
        iterations += 1
        trace.append(f_new)
        x, f, g, termination = run(x_grid, f_new, g_new)
    diag = SolveDiagnostics(
        iterations=iterations,
        objective_trace=trace,
        final_grad_norm=math.hypot(*g),  # finite wherever the norm is
        wall_time=0.0,
        termination=termination,
        function_evals=evals,
    )
    return x, f, diag


@functools.cache
def _blas_threads():
    """``(scipy_openblas_get_num_threads, scipy_openblas_set_num_threads)``
    of the OpenBLAS that scipy's wheel loads, or None where there is none (a
    build without it, or a platform that cannot fork)."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads
            setter = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_starts: int) -> int:
    """The processes that run a solve's starts, the caller among them: one
    per start, at most one per usable CPU."""
    return min(n_starts, _usable_cpus())


def _run_start(fg, x0):
    return _minimize(fg, x0)


def _run_starts(fg, starts):
    """``_minimize(fg, x0)`` for each start, in start order, at one
    scipy-OpenBLAS thread; the caller's thread count is back when this
    returns or raises.  Where that count cannot be set, the starts run here
    at the caller's count.  With one worker, or in a daemonic process (which
    may not have children), they run here one after the other; otherwise
    ``_share_starts`` runs them here and in forked workers."""
    blas = _blas_threads()
    if blas is None:
        return [_minimize(fg, x0) for x0 in starts]
    get_blas_threads, set_blas_threads = blas
    workers = _worker_count(len(starts))
    previous = get_blas_threads()
    set_blas_threads(1)  # before the fork: the workers inherit it
    try:
        if workers < 2 or multiprocessing.current_process().daemon:
            return [_minimize(fg, x0) for x0 in starts]
        return _share_starts(fg, starts, workers)
    finally:
        set_blas_threads(previous)


def _share_starts(fg, starts, workers):
    """``_run_start(fg, x0)`` for each start, in start order, run by this
    process and ``workers - 1`` forked ones.  This process runs start 0
    before it waits on anything; then each process takes the next unclaimed
    start until none is left.  A worker sends each start's result, or the
    exception the start raised, back through its own pipe.

    The exception of the lowest start that raised is raised once every
    start before it is in; later starts are not waited for.  A worker that
    exits while it holds a start it has not reported fails that start with
    a RaceplanError naming its exit code.  No worker is left when this
    returns or raises."""
    import multiprocessing.connection  # loaded only by a solve that forks
    ctx = multiprocessing.get_context("fork")
    n = len(starts)
    next_start = ctx.Value("i", 1)  # start 0 is the caller's
    # held[k]: the start process k took last (the caller is process 0).
    held = ctx.Array("i", workers, lock=False)
    results = [None] * n  # (x, f, diagnostics), or the exception raised

    def claim(k):
        with next_start.get_lock():
            held[k] = i = next_start.value
            next_start.value = i + 1
        return i

    def run(i):
        try:
            return _run_start(fg, starts[i])
        except Exception as error:  # raised below unless an earlier start raised
            with next_start.get_lock():
                next_start.value = n  # no later start can change the answer
            return error

    def work(k, conn):
        while (i := claim(k)) < n:
            conn.send((i, run(i)))

    def decided():
        """Whether every start before the first that raised is in."""
        for result in results:
            if result is None:
                return False
            if isinstance(result, Exception):
                return True
        return True

    live = []  # (k, process, reader) of each worker not yet reaped
    try:
        for k in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=work, args=(k, writer), daemon=True)
            worker.start()
            live.append((k, worker, reader))
            writer.close()
        i = 0
        while i < n:
            results[i] = run(i)
            i = claim(0)
        while not decided():
            ready = multiprocessing.connection.wait(
                [w.sentinel for _, w, _ in live] + [r for _, _, r in live])
            for entry in [e for e in live if e[1].sentinel in ready or e[2] in ready]:
                k, worker, reader = entry
                exited = worker.sentinel in ready
                try:
                    while reader.poll():
                        i, result = reader.recv()
                        results[i] = result
                except EOFError:  # the worker has closed its pipe by exiting
                    exited = True
                if not exited:
                    continue
                worker.join()
                reader.close()
                live.remove(entry)
                i = held[k]
                if i < n and results[i] is None:
                    results[i] = RaceplanError(
                        f"the worker running start {i} exited with code "
                        f"{worker.exitcode} before reporting it")
    finally:
        for _, worker, _ in live:
            worker.terminate()
        for _, worker, reader in live:
            worker.join()
            reader.close()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _restore_feasibility(dec: DecisionVector, penalty_of):
    """Stretch all durations by the smallest uniform factor that drives the
    sampled penalty below tolerance.  Waypoints are untouched, so gate
    traversal is preserved exactly.

    Returns the decision vector and the factor: 1.0 with ``dec`` itself when
    no stretch is needed, None with ``dec`` when feasibility is out of
    reach within RESTORE_MAX_SCALE and the duration guard."""
    durations, _ = gates_mod.time_map(dec.K)

    def scaled(gamma):
        return DecisionVector(D=dec.D, K=gates_mod.time_map_inverse(gamma * durations))

    def feasible(d):  # a stretch past the spline's duration guard is out of reach
        return (np.all(gates_mod.time_map(d.K)[0] <= MAX_SEGMENT_DURATION)
                and penalty_of(d) <= RESTORE_PENALTY_TOL)

    if feasible(scaled(1.0)):
        return dec, 1.0
    hi = RESTORE_MAX_SCALE
    if not feasible(scaled(hi)):
        return dec, None
    lo = 1.0
    while hi - lo >= 1e-4:
        mid = 0.5 * (lo + hi)
        if feasible(scaled(mid)):
            hi = mid
        else:
            lo = mid
    return scaled(hi), hi


def _sample_trajectory(traj: TrajectorySpline, params: QuadParams, dt: float):
    """The export every dt s: times (N,), states (N, 13) and rotor thrusts
    (N, 4).  Raises RaceplanError, before it allocates them, when they would
    have more than MAX_EXPORT_SAMPLES rows, and at a flatness-singular
    sample, whose attitude is undefined."""
    steps = traj.total_time / dt  # floor(steps) + 1 rows, and the end time
    if not steps < MAX_EXPORT_SAMPLES - 1:
        raise RaceplanError(f"sampling every {dt:g} s would export more than "
                            f"{MAX_EXPORT_SAMPLES} samples")
    n = max(2, int(np.floor(steps)) + 1)
    times = np.minimum(np.arange(n) * dt, traj.total_time)
    if times[-1] < traj.total_time - 1e-12:
        times = np.append(times, traj.total_time)
    derivs = traj.eval_batch(times, max_order=4)
    out = _flatjet.flat_outputs(derivs[:, 2:], params)
    if out.singular.any():
        t = times[np.argmax(out.singular)]
        raise RaceplanError(f"the export's attitude is undefined at t = {t:.6g} s "
                            "(zero thrust, or thrust along the heading)")
    # scipy's quaternions are scalar-last; the export's are (w, x, y, z), w >= 0.
    quats = Rotation.from_matrix(out.rotation).as_quat()[:, [3, 0, 1, 2]]
    quats[quats[:, 0] < 0] *= -1
    states = np.empty((len(times), 13))
    states[:, :3] = derivs[:, 0]
    states[:, 3:7] = quats
    states[:, 7:10] = derivs[:, 1]
    states[:, 10:13] = out.omega
    return times, states, out.rotor.copy()


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(seq: GateSequence, params: QuadParams,
          bc0: BoundaryCondition, bcf: BoundaryCondition,
          opt_cfg: OptimizerConfig = OptimizerConfig(),
          sample_dt: float = 0.01) -> PlanResult:
    """Plan a trajectory through the gate sequence.

    Runs the quasi-Newton loop from the deterministic initialization (plus
    optional seeded random restarts) and returns the best iterate with
    sampled state/control trajectories, every ``sample_dt`` s (finite and
    above 0), and diagnostics.
    """
    if isinstance(sample_dt, bool) or not (isinstance(sample_dt, numbers.Real)
                                           and 0 < sample_dt < np.inf):
        raise ValidationError(
            f"sample_dt must be a finite number above 0, got {sample_dt!r}")
    # Loaded by a solve only, before the clock and any fork: workers inherit it.
    import scipy.optimize  # noqa: F401
    t_start = time.perf_counter()
    dec0 = initialize(seq, bc0, bcf, opt_cfg)

    evaluator = cost_mod.Evaluator(dec0, seq, params, bc0, bcf)
    starts = [dec0.to_flat()]
    rng = np.random.default_rng(opt_cfg.seed)
    for _ in range(opt_cfg.restarts):
        starts.append(starts[0] + rng.normal(scale=0.3, size=len(starts[0])))

    x, f, diag = min(_run_starts(evaluator, starts), key=lambda run: run[1])
    diag.wall_time = time.perf_counter() - t_start

    dec, diag.restore_scale = _restore_feasibility(dec0.with_flat(x),
                                                   evaluator.fine_penalty)
    report = cost_mod.objective(dec, seq, params, bc0, bcf)
    traj = report.spline
    times, states, controls = _sample_trajectory(traj, params, sample_dt)
    return PlanResult(
        spline=traj,
        decision=dec,
        waypoints=traj.waypoints.copy(),
        durations=traj.durations.copy(),
        gate_times=traj.junction_times.copy(),
        total_time=traj.total_time,
        objective=report.total,
        penalty=report.penalty_term,
        checks=verify(times, states, controls, seq, params),
        sample_times=times,
        states=states,
        controls=controls,
        diagnostics=diag,
    )
