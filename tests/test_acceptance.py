"""Acceptance suite: one test per headline requirement.

Each test asserts a single product-level criterion at its stated tolerance,
so the pass/fail line of this module is the acceptance report:

  1. gate-traversal planning beats waypoint-passing by >= 5% on a 7-gate loop,
     each mode's solve within its budget of objective evaluations (the
     work of 10 s at a reference speed); wall time is reported, not asserted
  2. solve time scales sub-quadratically in gate count (exponent < 1.5)
  3. converged solutions pass every check of ``verify``, which allows 1%
     actuation headroom
  4. optimized waypoints satisfy gate containment to 1e-9, interpolation 1e-8
  5. analytic objective gradients match finite differences to 1e-4
  6. open-loop rigid-body integration tracks the flat trajectory to 1e-3 m
  7. surjections keep 1e5 random parameters per gate type inside (1e-9)
  8. spline construction matches analytic and dense-solver oracles to 1e-10
  9. enlarging every gate never increases converged lap time (1e-3 s)
 10. the 28-gate lap is at most its reference lap plus 1e-3 s
"""

import math
import time

import numpy as np
import pytest

from conftest import mixed_sequence, hover_pair, rk4_rollout, tetra_gate
from test_spline import dense_oracle, random_problem

from raceplan.cost import objective
from raceplan.gates import (
    BallGate, DecisionVector, GateSequence, contains, gate_center, surject,
)
from raceplan.model import QuadParams
from raceplan.optimizer import OptimizerConfig, solve
from raceplan.spline import BoundaryCondition, construct
from raceplan.trackio import build_sequence
from raceplan.tracks import enlarge_gate, loop_track, random_track


def _solve_track(track, mode=None, laps=None, opt_cfg=None):
    seq = build_sequence(track, mode=mode, laps=laps)
    bc0 = BoundaryCondition.hover(track.start)
    bcf = BoundaryCondition.hover(track.finish)
    tic = time.perf_counter()
    result = solve(seq, track.quad, bc0, bcf,
                   opt_cfg=opt_cfg or OptimizerConfig())
    wall = time.perf_counter() - tic
    return seq, result, wall


@pytest.fixture(scope="module")
def loop_solves():
    """TOGT and TOGT-WP solutions of the 7-square-gate loop."""
    track = loop_track()
    out = {}
    out["togt"] = _solve_track(track, mode="togt")
    out["wp"] = _solve_track(track, mode="togt-wp")
    return out


@pytest.fixture(scope="module")
def scaling_solves():
    """Concatenated-lap solves with L in {7, 14, 28, 56} gates."""
    track = loop_track()
    runs = []
    tic = time.perf_counter()
    for laps in (1, 2, 4, 8):
        seq, result, wall = _solve_track(track, laps=laps)
        runs.append((len(seq), result, wall))
    total = time.perf_counter() - tic
    return runs, total


@pytest.fixture(scope="module")
def three_gate_solve():
    track = random_track(seed=42, n_gates=3)
    _, result, _ = _solve_track(track)
    return result


# Solver work allowed to each 7-gate solve, in objective evaluations
# (diagnostics.function_evals), a count that does not depend on the host's
# speed or load.  Wall times are printed only; the seconds are measured by
# `python3 perfbench/run.py --workload loop7`.  The budgets were once 10 s
# per solve on a slower host; they stay as ceilings.  With the window stop
# and 24 L-BFGS-B pairs the solves take, under each OpenBLAS kernel
# (OPENBLAS_CORETYPE):
#
#   kernel        TOGT   TOGT-WP
#   SkylakeX       251       276
#   Haswell        278       307
#   Sandybridge    248       264
#   Prescott       257       284
TOGT_EVAL_BUDGET = 1170
WP_EVAL_BUDGET = 1250


def test_acceptance_gate_vs_waypoint_ordering(loop_solves):
    _, togt, togt_wall = loop_solves["togt"]
    _, wp, wp_wall = loop_solves["wp"]
    togt_evals = togt.diagnostics.function_evals
    wp_evals = wp.diagnostics.function_evals
    print(f"TOGT {togt.total_time:.3f} s vs TOGT-WP {wp.total_time:.3f} s "
          f"(walls {togt_wall:.1f} / {wp_wall:.1f} s, "
          f"evaluations {togt_evals} / {wp_evals})")
    assert togt.total_time <= 0.95 * wp.total_time
    assert togt_evals <= TOGT_EVAL_BUDGET
    assert wp_evals <= WP_EVAL_BUDGET


def test_acceptance_scaling_sub_quadratic(scaling_solves):
    runs, total = scaling_solves
    sizes = np.array([n for n, _, _ in runs], dtype=float)
    walls = np.array([w for _, _, w in runs])
    exponent = np.polyfit(np.log(sizes), np.log(walls), 1)[0]
    print(f"gate counts {sizes.astype(int).tolist()}, "
          f"walls {np.round(walls, 2).tolist()} s, exponent {exponent:.2f}")
    assert exponent < 1.5
    assert total < 300.0


# perfbench/reference.json's 28-gate lap, rounded up to the microsecond.
LAPS28_REFERENCE = 13.131161


def test_acceptance_28_gate_lap_within_reference(scaling_solves):
    n_gates, result, _ = scaling_solves[0][2]
    print(f"{n_gates}-gate lap {result.total_time:.6f} s "
          f"(reference {LAPS28_REFERENCE} s)")
    assert n_gates == 28
    assert result.total_time <= LAPS28_REFERENCE + 1e-3


def _failed_checks(result):
    return [c.name for c in result.checks if not c.passed]


def test_acceptance_feasibility_at_convergence(loop_solves, scaling_solves):
    suite = [loop_solves["togt"][1], loop_solves["wp"][1]]
    suite += [r for _, r, _ in scaling_solves[0]]
    for result in suite:
        assert result.penalty < 1e-4
        assert _failed_checks(result) == []
    # The 7-gate optima sit just past the limits on the fine grid: each
    # needs, and reports, a small duration stretch within reach.
    for mode in ("togt", "wp"):
        assert 1.0 < loop_solves[mode][1].diagnostics.restore_scale <= 1.5


def test_acceptance_gate_traversal_exactness(loop_solves, scaling_solves):
    cases = [(loop_solves["togt"][0], loop_solves["togt"][1]),
             (loop_solves["wp"][0], loop_solves["wp"][1])]
    cases += [(build_sequence(loop_track(), laps=laps),
               scaling_solves[0][i][1])
              for i, laps in enumerate((1, 2, 4, 8))]
    for seq, result in cases:
        for gate, wp in zip(seq.gates, result.waypoints):
            assert contains(gate, wp) <= 1e-9
        spline = result.spline
        at = spline.eval_batch(spline.junction_times, 0)[:, 0, :3]
        assert np.max(np.abs(at - result.waypoints)) < 1e-8


def test_acceptance_gradient_suite(quad_a):
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = [(1, 7), (3, 7), (7, 6)]  # (gate count, decision vectors) = 20
    checked = 0
    for n_gates, n_vectors in cases:
        seq = mixed_sequence(n_gates)
        bc0, bcf = hover_pair(n_gates)
        for _ in range(n_vectors):
            dec = DecisionVector.for_sequence(seq)
            dec.D = rng.normal(scale=0.8, size=dec.D.shape)
            dec.K = rng.normal(scale=0.3, size=dec.K.shape) - 0.6
            report = objective(dec, seq, quad_a, bc0, bcf)
            grad = report.gradient.to_flat()
            x0 = dec.to_flat()
            step = 1e-6
            fd = np.empty_like(x0)
            for i in range(len(x0)):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step
                xm[i] -= step
                fd[i] = (
                    objective(dec.with_flat(xp), seq, quad_a, bc0, bcf).total
                    - objective(dec.with_flat(xm), seq, quad_a, bc0, bcf).total
                ) / (2 * step)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-4
            checked += 1
    wall = time.perf_counter() - tic
    print(f"{checked} gradient checks in {wall:.1f} s")
    assert checked == 20
    assert wall < 60.0


def test_acceptance_flatness_dynamics_consistency(three_gate_solve):
    quad = QuadParams.quad_a()
    traj = three_gate_solve.spline
    window = 0.5
    starts = np.arange(0.0, traj.total_time - window, 0.25)
    positions, reference = rk4_rollout(traj, quad, starts, window, h=1e-4)
    worst = float(np.max(np.linalg.norm(positions - reference, axis=-1)))
    print(f"{len(starts)} windows, worst open-loop error {worst:.4e} m")
    assert worst < 1e-3


def test_acceptance_surjection_suites():
    rng = np.random.default_rng(7)
    n = 100_000
    ball = BallGate(center=[1.0, -2.0, 3.0], radius=0.9)
    p, _ = surject(ball, rng.normal(scale=4.0, size=(n, 4)))
    assert np.max(np.linalg.norm(p - ball.center, axis=1) - ball.radius) <= 1e-9

    square = mixed_sequence(2).gates[1]      # planar polygon
    tetra = tetra_gate([0.0, 0.0, 0.0], 1.2)  # polyhedron
    for gate in (square, tetra):
        d = rng.normal(scale=4.0, size=(n, gate.param_dim))
        p, _ = surject(gate, d)
        residuals = np.array([contains(gate, pt) for pt in p])
        assert np.max(residuals) <= 1e-9
        # Designated parameters reach every vertex and the centroid exactly.
        for i, vertex in enumerate(gate.vertices):
            e_i = np.eye(gate.param_dim)[i]
            assert np.allclose(surject(gate, e_i[None])[0][0], vertex,
                               atol=1e-12)
        ones = np.ones((1, gate.param_dim))
        assert np.allclose(surject(gate, ones)[0][0], gate_center(gate),
                           atol=1e-12)


def test_acceptance_minco_oracle():
    bc0 = BoundaryCondition.hover([0.0, 0.0, 0.0])
    bcf = BoundaryCondition.hover([1.0, 0.0, 0.0])
    traj = construct(np.zeros((0, 3)), [1.0], bc0, bcf)
    expected = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    assert np.max(np.abs(traj.coefficients[0, :, 0] - expected)) < 1e-10

    rng = np.random.default_rng(11)
    for num_wp in range(1, 7):  # L <= 7 segments
        P, T, b0, bf = random_problem(rng, num_wp)
        banded = construct(P, T, b0, bf)
        _, _, dense = dense_oracle(P, T, b0, bf)
        assert np.max(np.abs(banded.coefficients - dense)) < 1e-10


def test_acceptance_monotone_benefit_of_space():
    cfg = OptimizerConfig(restarts=2)
    worst = -math.inf
    for seed in range(100, 110):
        track = random_track(seed=seed, n_gates=3)
        base_seq = build_sequence(track)
        big_seq = GateSequence(
            gates=tuple(enlarge_gate(g, 1.5) for g in base_seq.gates)
        )
        bc0 = BoundaryCondition.hover(track.start)
        bcf = BoundaryCondition.hover(track.finish)
        base = solve(base_seq, track.quad, bc0, bcf, opt_cfg=cfg)
        big = solve(big_seq, track.quad, bc0, bcf, opt_cfg=cfg)
        assert _failed_checks(base) == _failed_checks(big) == [], seed
        worst = max(worst, big.total_time - base.total_time)
    print(f"worst enlargement regression {worst:.2e} s over 10 tracks")
    assert worst <= 1e-3
