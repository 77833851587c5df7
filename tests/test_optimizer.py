"""Tests for initialization, the quasi-Newton solve and its diagnostics."""

import ctypes
import glob
import math
import multiprocessing
import os
import select
import struct
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import raceplan.cost
from raceplan import optimizer
from raceplan.errors import RaceplanError, ValidationError
from raceplan.gates import (
    BallGate, DecisionVector, GateSequence, contains, decode, time_map,
    time_map_inverse,
)
from raceplan.optimizer import (
    MAX_RESTARTS, OptimizerConfig, _minimize, _restore_feasibility, initialize,
    solve,
)
from raceplan.spline import MAX_SEGMENT_DURATION, BoundaryCondition, construct
from raceplan.trackio import build_sequence
from raceplan.tracks import loop_track


@pytest.fixture(scope="module")
def single_ball_problem(quad_a):
    """One generous ball gate on the line between hover endpoints."""
    seq = GateSequence(gates=(BallGate(center=[3.0, 0.0, 1.5], radius=1.0),))
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.5])
    bcf = BoundaryCondition.hover([6.0, 0.0, 1.5])
    return seq, quad_a, bc0, bcf


@pytest.fixture(scope="module")
def single_ball_result(single_ball_problem):
    seq, quad, bc0, bcf = single_ball_problem
    return solve(seq, quad, bc0, bcf)


class TestInitialize:
    def test_ball_track_starts_near_centers(self):
        centers = np.array([[2.0, 0.0, 1.0], [4.0, 1.0, 1.5]])
        seq = GateSequence(gates=tuple(
            BallGate(center=c, radius=0.5) for c in centers
        ))
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([6.0, 0.0, 1.0])
        dec = initialize(seq, bc0, bcf)
        waypoints, _, _, _ = decode(seq, dec)
        # for_sequence's 0.1 puts the ball parameter slightly off zero, so
        # the seed waypoint sits near (not exactly at) the center.
        assert np.max(np.linalg.norm(waypoints - centers, axis=1)) < 0.2

    def test_durations_from_speed_guess(self):
        seq = GateSequence(gates=(BallGate(center=[3.0, 0.0, 1.0], radius=0.3),))
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([3.0, 0.0, 1.0])
        dec = initialize(seq, bc0, bcf, OptimizerConfig(initial_speed_guess=3.0))
        durations, _ = time_map(dec.K)
        # ~3 m to the gate at 3 m/s, then essentially coincident endpoint.
        assert durations[0] == pytest.approx(1.0, abs=0.05)

    def test_coincident_gates_still_positive(self):
        gate = BallGate(center=[1.0, 0.0, 1.0], radius=0.2)
        seq = GateSequence(gates=(gate, gate, gate))
        bc0 = bcf = BoundaryCondition.hover([1.0, 0.0, 1.0])
        dec = initialize(seq, bc0, bcf)
        durations, _ = time_map(dec.K)
        assert np.all(durations > 0)


class TestOptimizerConfig:
    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", None),
        ("restarts", -3), ("restarts", 1.5), ("restarts", "2"),
        ("initial_speed_guess", -1.0), ("initial_speed_guess", 0.0),
        ("initial_speed_guess", float("inf")), ("initial_speed_guess", float("nan")),
        ("initial_speed_guess", "3"),
        ("restarts", MAX_RESTARTS + 1), ("restarts", 10**18),
    ])
    def test_bad_field_is_refused(self, field, value):
        with pytest.raises(ValidationError, match=rf"^{field} must be "):
            OptimizerConfig(**{field: value})

    def test_numpy_scalars_are_accepted(self):
        cfg = OptimizerConfig(initial_speed_guess=np.float64(2.0),
                              restarts=np.int64(1), seed=np.uint32(5))
        assert (cfg.initial_speed_guess, cfg.restarts, cfg.seed) == (2.0, 1, 5)


class TestSolve:
    def test_single_gate_converges_feasibly(self, single_ball_problem,
                                            single_ball_result):
        seq, quad, bc0, bcf = single_ball_problem
        result = single_ball_result
        init = initialize(seq, bc0, bcf)
        init_total = float(np.sum(time_map(init.K)[0]))
        assert result.penalty < 1e-6
        assert result.total_time < init_total
        assert contains(seq.gates[0], result.waypoints[0]) <= 1e-9

    def test_objective_trace_non_increasing(self, single_ball_result):
        trace = np.array(single_ball_result.diagnostics.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_diagnostics_populated(self, single_ball_result):
        diag = single_ball_result.diagnostics
        assert diag.iterations >= 1
        assert diag.function_evals >= diag.iterations
        assert diag.termination in (
            "converged", "max_iter", "line_search_failure"
        )
        assert diag.wall_time > 0

    def test_gate_mode_beats_waypoint_mode(self, quad_a):
        """A roomy square gate lets the planner cut the corner that a small
        waypoint ball forces it to hit."""
        from raceplan.tracks import square_gate

        center = np.array([3.0, 3.0, 1.5])
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.5])
        bcf = BoundaryCondition.hover([6.0, 0.0, 1.5])
        roomy = GateSequence(gates=(square_gate(center, [1.0, 0.0, 0.0], 2.1),))
        tight = GateSequence(gates=(BallGate(center=center, radius=0.1),))
        t_roomy = solve(roomy, quad_a, bc0, bcf).total_time
        t_tight = solve(tight, quad_a, bc0, bcf).total_time
        assert t_roomy < t_tight

    def test_deterministic_re_solve(self, single_ball_problem,
                                    single_ball_result):
        seq, quad, bc0, bcf = single_ball_problem
        again = solve(seq, quad, bc0, bcf)
        assert np.array_equal(again.states, single_ball_result.states)
        assert np.array_equal(again.controls, single_ball_result.controls)
        assert again.total_time == single_ball_result.total_time

    def test_sampled_trajectory_consistency(self, single_ball_result):
        result = single_ball_result
        assert result.sample_times[0] == 0.0
        assert result.sample_times[-1] == pytest.approx(result.total_time)
        assert np.all(np.diff(result.sample_times) > 0)
        norms = np.linalg.norm(result.states[:, 3:7], axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-9
        assert result.states.shape[0] == result.controls.shape[0]

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf, "a", None, True])
    def test_unusable_sample_dt_is_refused_before_the_starts(
            self, single_ball_problem, dt, monkeypatch):
        """An export period that is not a finite number above 0 raises
        before any start runs."""
        monkeypatch.setattr(optimizer, "_run_starts", None)
        with pytest.raises(ValidationError, match="sample_dt must be a finite"):
            solve(*single_ball_problem, sample_dt=dt)

    def test_restarts_never_worse(self, single_ball_problem):
        seq, quad, bc0, bcf = single_ball_problem
        plain = solve(seq, quad, bc0, bcf)
        multi = solve(seq, quad, bc0, bcf,
                      opt_cfg=OptimizerConfig(restarts=2, seed=1))
        # The best raw iterate is kept across starts; the subsequent
        # feasibility-restoration bisection adds sub-millisecond jitter.
        assert multi.objective <= plain.objective + 1e-3


def _python(script, timeout):
    """``script`` run by a fresh interpreter that imports this raceplan."""
    src = str(Path(optimizer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _blas_threads():
    """The thread count of scipy's OpenBLAS, or None where it cannot be
    read."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        return ctypes.CDLL(path).scipy_openblas_get_num_threads()
    return None


class TestStarts:
    """A solve's starts run in forked workers when more than one usable CPU
    can take them (2 here, whatever the host has), and in-process with 1."""

    CFG = OptimizerConfig(restarts=2, seed=1)

    def test_forked_and_in_process_give_the_same_bytes(self, single_ball_problem,
                                                       monkeypatch):
        results = []
        for cpus in (2, 1):
            monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
            results.append(solve(*single_ball_problem, opt_cfg=self.CFG))
            assert multiprocessing.active_children() == []
        forked, in_process = results
        for name in ("states", "controls", "sample_times"):
            assert getattr(forked, name).tobytes() == getattr(in_process, name).tobytes()
        assert forked.decision.to_flat().tobytes() == in_process.decision.to_flat().tobytes()
        a, b = forked.diagnostics, in_process.diagnostics
        assert (a.function_evals, a.iterations, a.termination, a.objective_trace) \
            == (b.function_evals, b.iterations, b.termination, b.objective_trace)

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_a_failing_start_reaches_the_caller(self, cpus, single_ball_problem,
                                                monkeypatch):
        """The restarts raise, start 1 after start 2; the solve raises start
        1's error unchanged, and no worker is left behind.  Then start 0
        alone raises, in the caller: the solve raises its error at once,
        without waiting for the restarts' minute."""
        seq, _, bc0, bcf = single_ball_problem
        first = initialize(seq, bc0, bcf).to_flat()
        # solve's draw of the restarts from OptimizerConfig's seed.
        starts = [first, *(first + np.random.default_rng(self.CFG.seed).normal(
            scale=0.3, size=(self.CFG.restarts, len(first))))]
        minimize = optimizer._minimize

        def failing(fg, x0):
            index = next(i for i, x in enumerate(starts) if np.array_equal(x, x0))
            if index == 0:
                return minimize(fg, x0)
            time.sleep(0.5 if index == 1 else 0.0)
            raise RaceplanError(f"start {index} failed")

        def first_failing(fg, x0):
            if np.array_equal(x0, first):
                raise RaceplanError("start 0 failed")
            time.sleep(60)
            return minimize(fg, x0)

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
        for patch, message in ((failing, "start 1 failed"),
                               (first_failing, "start 0 failed")):
            monkeypatch.setattr(optimizer, "_minimize", patch)
            began = time.perf_counter()
            with pytest.raises(RaceplanError) as info:
                solve(*single_ball_problem, opt_cfg=self.CFG)
            assert type(info.value) is RaceplanError
            assert str(info.value) == message
            assert multiprocessing.active_children() == []
        assert time.perf_counter() - began < 30

    def test_the_caller_runs_start_0_beside_one_worker(self, monkeypatch):
        """With 2 CPUs the caller runs start 0, held here until the one
        forked worker has taken a start, and the worker runs the starts it
        claims: two processes in all."""
        if optimizer._blas_threads() is None:
            return   # the starts run in-process here
        caller = os.getpid()
        taken, take = os.pipe()

        def recording(fg, x0):
            if os.getpid() != caller:
                os.write(take, b"x")
            elif x0[0] == 0.0:
                assert select.select([taken], [], [], 60)[0], "no worker took a start"
            return x0, 0.0, os.getpid()

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer, "_minimize", recording)
        try:
            results = optimizer._run_starts(
                None, [np.full(2, i) for i in (0.0, 1.0, 2.0)])
        finally:
            os.close(taken)
            os.close(take)
        assert [x[0] for x, _, _ in results] == [0.0, 1.0, 2.0]
        pids = [pid for _, _, pid in results]
        assert pids[0] == caller
        assert len(set(pids) - {caller}) == 1
        assert multiprocessing.active_children() == []

    def test_every_start_runs_once_on_more_workers_than_cores(self, monkeypatch):
        """8 processes, more than most hosts have cores, share 200 starts
        through one counter: a lost update on it would run a start twice."""
        if optimizer._blas_threads() is None:
            return   # the starts run in-process here
        ran, report = os.pipe()

        def recording(fg, x0):
            os.write(report, struct.pack("i", int(x0[0])))  # atomic: 4 bytes
            return x0, 0.0, None

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(optimizer, "_minimize", recording)
        try:
            results = optimizer._run_starts(
                None, [np.full(1, float(i)) for i in range(200)])
        finally:
            os.close(report)
        with os.fdopen(ran, "rb") as reports:
            indices = [i for (i,) in struct.iter_unpack("i", reports.read())]
        assert sorted(indices) == list(range(200))
        assert [x[0] for x, _, _ in results] == list(range(200))
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_the_solve(self):
        """A worker that exits in the middle of its start fails the solve
        with a RaceplanError that names its exit code, in place of a solve
        that waits forever; the subprocess's timeout turns a hang into a
        failure."""
        if optimizer._blas_threads() is None:
            return   # the starts run in-process here
        script = textwrap.dedent("""
            import multiprocessing, os
            from raceplan import optimizer
            from raceplan.errors import RaceplanError
            from raceplan.optimizer import OptimizerConfig, solve
            from raceplan.spline import BoundaryCondition
            from raceplan.trackio import build_sequence
            from raceplan.tracks import random_track

            caller = os.getpid()
            taken, take = os.pipe()
            seen = []
            minimize = optimizer._minimize

            def dying(fg, x0):
                if os.getpid() != caller:
                    os.write(take, b"x")
                    os._exit(1)
                if not seen:  # start 0 waits until the worker has a start
                    seen.append(os.read(taken, 1))
                return minimize(fg, x0)

            optimizer._usable_cpus = lambda: 2
            optimizer._minimize = dying
            track = random_track(100)
            try:
                solve(build_sequence(track), track.quad,
                      BoundaryCondition.hover(track.start),
                      BoundaryCondition.hover(track.finish),
                      opt_cfg=OptimizerConfig(restarts=2))
            except RaceplanError as error:
                print(error)
            print(multiprocessing.active_children())
        """)
        proc = _python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "the worker running start 1 exited with code 1 before reporting it",
            "[]"]

    def test_solve_in_a_daemonic_worker_runs_in_process(self, single_ball_problem,
                                                        monkeypatch):
        """A daemonic process may not have children, so a solve called in
        a caller's own pool worker runs its starts there."""
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        expect = solve(*single_ball_problem, opt_cfg=self.CFG)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            result = pool.apply(solve, single_ball_problem, {"opt_cfg": self.CFG})
        assert result.states.tobytes() == expect.states.tobytes()
        assert multiprocessing.active_children() == []

    def test_worker_count_is_starts_capped_by_cpus(self, monkeypatch):
        starts = 1 + OptimizerConfig(restarts=1000).restarts
        for cpus, workers in ((1, 1), (2, 2), (64, 64), (4096, 1001)):
            monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
            assert optimizer._worker_count(starts) == workers
        assert multiprocessing.active_children() == []

    def test_workers_use_one_blas_thread_and_leave_the_callers(
            self, single_ball_problem, monkeypatch):
        minimize = optimizer._minimize

        def reporting(fg, x0):
            x, f, diag = minimize(fg, x0)
            diag.blas_threads = _blas_threads()
            return x, f, diag

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer, "_minimize", reporting)
        if optimizer._blas_threads() is None:
            return   # no OpenBLAS thread count to read or set here
        set_threads = optimizer._blas_threads()[1]
        before = _blas_threads()
        set_threads(2)   # not the workers' 1, whatever an earlier test left
        try:
            result = solve(*single_ball_problem, opt_cfg=self.CFG)
            assert _blas_threads() == 2
        finally:
            set_threads(before)
        assert result.diagnostics.blas_threads == 1

    @pytest.mark.parametrize("fails", [False, True])
    def test_in_process_starts_use_one_blas_thread_and_restore_the_callers(
            self, fails, single_ball_problem, monkeypatch):
        """On one CPU the starts run here at one BLAS thread, and the
        caller's count is back whether the solve returns or raises."""
        if optimizer._blas_threads() is None:
            return   # no OpenBLAS thread count to read or set here
        minimize = optimizer._minimize
        seen = []

        def reporting(fg, x0):
            seen.append(_blas_threads())
            if fails:
                raise RaceplanError("stopped in a start")
            return minimize(fg, x0)

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(optimizer, "_minimize", reporting)
        set_threads = optimizer._blas_threads()[1]
        before = _blas_threads()
        set_threads(2)
        try:
            if fails:
                with pytest.raises(RaceplanError, match="stopped in a start"):
                    solve(*single_ball_problem, opt_cfg=self.CFG)
            else:
                solve(*single_ball_problem, opt_cfg=self.CFG)
            assert _blas_threads() == 2
        finally:
            set_threads(before)
        assert seen == [1] if fails else seen == [1, 1, 1]

    def test_without_openblas_the_starts_run_here(self, single_ball_problem,
                                                   monkeypatch):
        """Where scipy's OpenBLAS cannot be found, the starts run one after
        the other in this process, even with CPUs to spare, with the bytes
        of a forked run."""
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        forked = solve(*single_ball_problem, opt_cfg=self.CFG)
        minimize = optimizer._minimize
        pids = []

        def recording(fg, x0):
            pids.append(os.getpid())
            return minimize(fg, x0)

        monkeypatch.setattr(optimizer, "_blas_threads", lambda: None)
        monkeypatch.setattr(optimizer, "_minimize", recording)
        result = solve(*single_ball_problem, opt_cfg=self.CFG)
        assert pids == [os.getpid()] * 3
        assert multiprocessing.active_children() == []
        for name in ("states", "controls", "sample_times"):
            assert getattr(result, name).tobytes() == getattr(forked, name).tobytes()
        assert result.diagnostics.function_evals == forked.diagnostics.function_evals

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_a_tie_goes_to_the_first_start(self, cpus, single_ball_problem,
                                           monkeypatch):
        minimize = optimizer._minimize

        def tied(fg, x0):
            x, _, diag = minimize(fg, x0)
            return x, 1.0, diag

        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(optimizer, "_minimize", tied)
        first_only = solve(*single_ball_problem)
        result = solve(*single_ball_problem, opt_cfg=self.CFG)
        assert result.states.tobytes() == first_only.states.tobytes()
        assert result.diagnostics.objective_trace \
            == first_only.diagnostics.objective_trace


class TestRestore:
    """`_restore_feasibility` on a penalty that builds the spline, as the
    solve's does, and is met once the first duration reaches a bound."""

    @staticmethod
    def penalty_met_from(bound, asked):
        hover = BoundaryCondition.hover([0.0, 0.0, 1.0])

        def penalty_of(dec):
            durations = time_map(dec.K)[0]
            asked.append(durations.max())
            construct(np.zeros((1, 3)), durations, hover, hover)
            return 0.0 if durations[0] >= bound else 1.0
        return penalty_of

    def test_stretch_past_the_duration_guard_is_out_of_reach(self):
        """50 s stretched by RESTORE_MAX_SCALE passes the spline's 60 s
        guard: restoration keeps the iterate, and never builds a spline past
        the guard, where construct would raise."""
        dec = DecisionVector(D=np.zeros(0), K=time_map_inverse(np.array([50.0, 5.0])))
        asked = []
        restored, scale = _restore_feasibility(dec, self.penalty_met_from(55.0, asked))
        assert restored is dec and scale is None
        assert asked and max(asked) <= MAX_SEGMENT_DURATION

    def test_smallest_stretch_within_the_guard(self):
        dec = DecisionVector(D=np.zeros(0), K=time_map_inverse(np.array([10.0, 5.0])))
        asked = []
        restored, scale = _restore_feasibility(dec, self.penalty_met_from(12.0, asked))
        durations = time_map(restored.K)[0]
        assert durations[0] >= 12.0 and durations[0] == pytest.approx(12.0, abs=1e-3)
        assert durations[1] / durations[0] == pytest.approx(0.5)
        assert scale == pytest.approx(1.2, abs=1e-4)

    def test_no_stretch_when_already_feasible(self):
        dec = DecisionVector(D=np.zeros(0), K=time_map_inverse(np.array([10.0, 5.0])))
        restored, scale = _restore_feasibility(dec, self.penalty_met_from(8.0, []))
        assert restored is dec and scale == 1.0


class TestMinimize:
    """Termination and bookkeeping of `_minimize` on synthetic
    objectives; ``fg(x, grid)`` ignores the grid, as a smooth objective
    would."""

    @staticmethod
    def counted(f_and_g):
        calls = []

        def fg(x, grid=None):
            calls.append((x.copy(), grid))
            return f_and_g(x)
        return fg, calls

    @staticmethod
    def assert_bookkeeping(diag, calls):
        trace = np.array(diag.objective_trace)
        assert diag.function_evals == len(calls)
        assert len(trace) == diag.iterations + 1
        assert np.all(np.diff(trace) <= 0.0)

    def test_minimizer_behind_infinite_wall_is_not_converged(self):
        def wall(x):
            if x[0] >= 1.0:
                return np.inf, None
            return (x[0] - 3.0) ** 2, 2.0 * (x - 3.0)

        fg, calls = self.counted(wall)
        x, f, diag = _minimize(fg, np.zeros(1))
        assert diag.termination != "converged"
        assert x[0] < 1.0 and f == (x[0] - 3.0) ** 2
        self.assert_bookkeeping(diag, calls)

    def test_nan_gradient_at_the_start_is_an_error(self):
        """A finite objective with a NaN gradient entry at the initial
        point, as an overflowing penalty gives, is no finite start: an
        error, and scipy never sees the gradient."""
        fg, calls = self.counted(lambda x: (1.0, np.array([0.0, np.nan])))
        with pytest.raises(RaceplanError, match="not finite at the initial point"):
            _minimize(fg, np.zeros(2))
        assert len(calls) == 1

    def test_overflowing_first_step_keeps_the_finite_start(self):
        """A huge but finite start whose every other point is +inf, as a
        gate of radius 1e40 m gives: scipy's first step overflows, and its
        non-finite iterate is not kept in place of the start.  The gradient
        norm reported is the start's, finite although the squares of its
        entries overflow, not that of the zeros scipy was handed."""
        x0 = np.array([1.0, -2.0])

        def cliff(x):
            if np.array_equal(x, x0):
                return 1e202, np.array([4e203, -1e203])
            return np.inf, np.zeros(2)

        fg, calls = self.counted(cliff)
        x, f, diag = _minimize(fg, x0.copy())
        assert x.tolist() == x0.tolist() and f == 1e202
        assert diag.objective_trace == [1e202]
        assert diag.termination == "line_search_failure"
        assert diag.final_grad_norm == math.hypot(4e203, -1e203) > 1e203
        self.assert_bookkeeping(diag, calls)

    def test_final_gradient_norm_is_that_of_the_returned_iterate(self):
        """On a bowl that converges and on one behind an infinite wall,
        which ends in a line-search failure, the reported gradient norm is
        that of fg's gradient at the returned x."""
        def bowl(x):
            return float(np.sum((x - 1.0) ** 2 * [1.0, 30.0])), 2.0 * (x - 1.0) * [1.0, 30.0]

        def wall(x):
            if x[0] >= 1.0:
                return np.inf, np.zeros(2)
            return bowl(x - 2.0)

        for f_and_g, termination in ((bowl, "converged"), (wall, "line_search_failure")):
            fg, _ = self.counted(f_and_g)
            x, _, diag = _minimize(fg, np.zeros(2))
            assert diag.termination == termination
            assert diag.final_grad_norm == math.hypot(*f_and_g(x)[1])

    def test_smooth_bowl_converges(self):
        scale = np.array([1.0, 10.0, 100.0])
        fg, calls = self.counted(
            lambda x: (float(np.sum(scale * (x - 1.0) ** 2)), 2.0 * scale * (x - 1.0)))
        x, f, diag = _minimize(fg, np.zeros(3))
        assert diag.termination == "converged"
        assert np.allclose(x, 1.0, atol=1e-6)
        self.assert_bookkeeping(diag, calls)

    def test_slow_tail_stops_converged_by_the_window(self, monkeypatch):
        """An ill-conditioned bowl whose f barely moves in its last
        iterations: the window stops it converged, with no frozen-grid
        retry, where scipy's one-iteration test alone runs far longer."""
        weights = 1e-4 * np.logspace(0, 4, 50)

        def bowl(x):
            return (1.0 + float(np.sum(weights * (x - 1.0) ** 2)),
                    2.0 * weights * (x - 1.0))

        fg, calls = self.counted(bowl)
        x, f, diag = _minimize(fg, np.zeros(50))
        assert diag.termination == "converged"
        assert all(grid is None for _, grid in calls)
        assert f - 1.0 < 1e-6
        self.assert_bookkeeping(diag, calls)

        monkeypatch.setattr(optimizer, "DELTA", 0.0)
        fg, calls = self.counted(bowl)
        _, f_tail, tail = _minimize(fg, np.zeros(50))
        assert tail.termination == "converged" and f_tail < f
        assert tail.iterations > 1.5 * diag.iterations

    def test_iteration_cap_ends_in_max_iter(self, monkeypatch):
        """Rosenbrock's valley takes L-BFGS-B dozens of iterations; a cap
        of 5 stops it after exactly 5."""
        def rosenbrock(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                          200.0 * (x[1] - x[0] ** 2)])
            return f, g

        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 5)
        fg, calls = self.counted(rosenbrock)
        x, f, diag = _minimize(fg, np.array([-1.2, 1.0]))
        assert diag.termination == "max_iter"
        assert diag.iterations == 5
        assert f == rosenbrock(x)[0] > 1e-3
        self.assert_bookkeeping(diag, calls)


def test_waypoint_loop_robust_to_gradient_rounding(monkeypatch):
    """The 7-gate TOGT-WP solve must not hinge on the last bits of its
    gradient: with seeded relative noise of 1e-15 on every gradient entry it
    still ends without a line-search failure, at the same lap time.  Under
    the SkylakeX kernels, seeds 16 and 18 stop about 4e-4 s high, at a
    sample-count jump."""
    track = loop_track()
    seq = build_sequence(track, mode="togt-wp")
    bc0 = BoundaryCondition.hover(track.start)
    bcf = BoundaryCondition.hover(track.finish)
    reference = solve(seq, track.quad, bc0, bcf).total_time
    exact = raceplan.cost.objective
    for seed in (0, 1, 16, 18):
        rng = np.random.default_rng(seed)

        def noisy(*args, **kwargs):
            report = exact(*args, **kwargs)
            if report.gradient is not None:
                for g in (report.gradient.D, report.gradient.K):
                    g *= 1.0 + 1e-15 * rng.standard_normal(g.shape)
            return report

        monkeypatch.setattr(raceplan.cost, "objective", noisy)
        result = solve(seq, track.quad, bc0, bcf)
        assert result.diagnostics.termination != "line_search_failure"
        assert abs(result.total_time - reference) <= 1e-3


def test_each_objective_call_is_an_evaluation_or_the_export(monkeypatch):
    """perfbench's tracer counts evaluations by wrapping
    ``raceplan.cost.objective``.  In-process, every evaluation of the solve
    and the export's one call reach the objective through that name."""
    track = loop_track()
    seq = build_sequence(track)
    bc0 = BoundaryCondition.hover(track.start)
    bcf = BoundaryCondition.hover(track.finish)
    exact = raceplan.cost.objective
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return exact(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(raceplan.cost, "objective", counting)
    result = solve(seq, track.quad, bc0, bcf)
    assert len(calls) == result.diagnostics.function_evals + 1


def test_scipy_optimize_loads_only_when_a_solve_starts():
    """In a fresh interpreter, importing the CLI and evaluating the
    objective leave scipy.optimize unloaded; a solve has loaded it by the
    time it initializes, before its starts run or fork."""
    script = textwrap.dedent("""
        import sys
        import raceplan.cli
        from raceplan import QuadParams, cost, optimizer
        from raceplan.gates import BallGate, GateSequence
        from raceplan.spline import BoundaryCondition
        seq = GateSequence(gates=(BallGate(center=[3.0, 0.0, 1.5], radius=1.0),))
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.5])
        bcf = BoundaryCondition.hover([6.0, 0.0, 1.5])
        quad = QuadParams.quad_a()
        cost.objective(optimizer.initialize(seq, bc0, bcf), seq, quad, bc0, bcf)
        print("scipy.optimize" in sys.modules)
        initialize = optimizer.initialize

        def recording(*args):
            print("scipy.optimize" in sys.modules)
            return initialize(*args)

        optimizer.initialize = recording
        optimizer.solve(seq, quad, bc0, bcf)
    """)
    proc = _python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
