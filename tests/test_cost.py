"""Tests for the time-plus-penalty objective and its analytic gradients."""

import importlib
import pickle
import pkgutil
import tracemalloc
import warnings
from dataclasses import is_dataclass, replace
from functools import partial

import numpy as np
import pytest

from conftest import hover_pair, mixed_sequence
import raceplan
from raceplan import _flatjet
from raceplan.cost import (
    PENALTY_WEIGHTS, Evaluator, _sample_grid, objective, penalty, samples,
)
from raceplan.gates import DecisionVector, time_map
from raceplan.model import limit_residuals
from raceplan.optimizer import OptimizerConfig, initialize
from raceplan.spline import NCOEF, BoundaryCondition, _basis, construct
from raceplan.trackio import build_sequence
from raceplan.tracks import loop_track

# Durations away from multiples of SAMPLE_DT, where the sample count
# kappa_i = ceil(T_i / SAMPLE_DT) would jump and finite differences break;
# they keep the penalty active for the gradient oracles.
ACTIVE_T = np.array([0.51, 0.49, 0.53])


def slow_spline():
    """Gentle rest-to-rest trajectory far inside the actuation limits."""
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
    bcf = BoundaryCondition.hover([1.0, 0.5, 1.2])
    return construct(np.array([[0.5, 0.2, 1.1]]), [2.1, 2.3], bc0, bcf)


def aggressive_spline():
    """Large translation in little time; violates thrust and rate limits."""
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
    bcf = BoundaryCondition.hover([8.0, -4.0, 3.0])
    return construct(np.array([[5.0, 1.0, 2.0]]), [0.61, 0.57], bc0, bcf)


def reference_penalty_gradient(traj, params, kappa=None):
    """(dJ_dC, dJ_dT_direct, cotangent) of the penalty over every sample:
    the flatness VJP of all samples, the per-order coefficient scatter and
    np.add.at, as the penalty computed them before it ran its gradient on
    the active samples alone."""
    durations = traj.durations
    seg_ids, j, local, weights, kappa = _sample_grid(durations, kappa)
    derivs = traj.eval_local(seg_ids, local, 5)
    out = _flatjet.flat_outputs(derivs[:, 2:5], params)
    hinge, sign, scale = limit_residuals(out.rotor, out.omega, params)
    hinge = np.maximum(hinge / scale, 0.0)
    cube = np.power(hinge, 3, out=np.zeros_like(hinge), where=hinge > 0.0)
    rho = np.einsum("k,nk->n", PENALTY_WEIGHTS, cube)
    cot = np.square(hinge) * (3.0 * PENALTY_WEIGHTS) * (sign / scale)
    g_inputs = _flatjet.vjp(out.kept, params, cot[:, :4], cot[:, 4:])
    inputs_dot = np.ascontiguousarray(derivs[:, 3:6]).reshape(-1, 9)
    rho_dot = np.einsum("np,np->n", g_inputs, inputs_dot)
    basis = _basis(local, 5)
    contrib = np.zeros((len(local), NCOEF, 3))
    for o in range(3):
        contrib += basis[:, 2 + o, :, None] * g_inputs[:, None, 3 * o:3 * o + 3]
    contrib *= weights[:, None, None]
    dJ_dC = np.zeros((len(durations), NCOEF, 3))
    np.add.at(dJ_dC, seg_ids, contrib)
    t_contrib = weights * rho / durations[seg_ids]
    t_contrib += weights * rho_dot * j / kappa[seg_ids]
    dJ_dT = np.zeros(len(durations))
    np.add.at(dJ_dT, seg_ids, t_contrib)
    return dJ_dC, dJ_dT, cot


class TestConfigs:
    def test_sample_counts(self):
        durations = np.array([0.05, 0.5, 1.01])
        assert list(samples(durations)) == [8, 25, 51]
        assert list(samples(durations, refine=4)) == [32, 100, 202]

    def test_sample_ranks_match_concatenated_aranges(self):
        """The sample ranks j restart at 0 in each segment, segments at the
        minimum count included."""
        durations = np.array([0.05, 0.5, 0.01, 1.01, 0.16])
        seg_ids, j, _, _, kappa = _sample_grid(durations)
        assert list(kappa) == [8, 25, 8, 51, 8]
        want = np.concatenate([np.arange(k + 1) for k in kappa])
        assert j.dtype == want.dtype and np.array_equal(j, want)
        assert np.array_equal(seg_ids, np.repeat(np.arange(5), kappa + 1))

    def test_local_times_and_weights_match_per_segment_loops(self):
        """Each segment's local times are its ranks times T / kappa, and its
        trapezoid weights are that step, halved at both ends, bit for bit,
        on a pinned grid too."""
        durations = np.array([0.05, 0.5, 0.01, 1.01, 0.16])
        for kappa in (None, samples(durations, refine=4)):
            _, _, local, weights, kappa = _sample_grid(durations, kappa)
            want_local, want_weights = [], []
            for T, k in zip(durations, kappa):
                dt = T / k
                want_local.append(np.arange(k + 1) * dt)
                w = np.full(k + 1, dt)
                w[0] *= 0.5
                w[-1] *= 0.5
                want_weights.append(w)
            assert local.tobytes() == np.concatenate(want_local).tobytes()
            assert weights.tobytes() == np.concatenate(want_weights).tobytes()


class TestPenalty:
    def test_feasible_spline_zero_value_zero_gradient(self, quad_a):
        value, grad = penalty(slow_spline(), quad_a)
        dJ_dC, dJ_dT = grad()
        assert value == 0.0
        assert np.allclose(dJ_dC, 0.0)
        assert np.allclose(dJ_dT, 0.0)

    def test_infeasible_spline_positive(self, quad_a):
        value = penalty(aggressive_spline(), quad_a)[0]
        assert value > 0

    def test_value_zero_iff_samples_feasible(self, quad_a):
        for traj in (slow_spline(), aggressive_spline()):
            value = penalty(traj, quad_a)[0]
            seg_ids, _, local, _, _ = _sample_grid(traj.durations)
            out = _flatjet.flat_outputs(traj.eval_local(seg_ids, local, 4, 2), quad_a)
            res = limit_residuals(out.rotor, out.omega, quad_a)[0]
            feasible = bool(np.all(res <= 0))
            assert (value == 0.0) == feasible
            assert value >= 0.0

    def test_gradient_matches_finite_differences(self, quad_a):
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([6.0, -2.0, 2.0])
        P = np.array([[2.0, 0.5, 1.4], [4.0, -1.0, 1.8]])
        traj = construct(P, ACTIVE_T, bc0, bcf)
        value, grad = penalty(traj, quad_a)
        dJ_dC, dJ_dT = grad()
        assert value > 0  # the oracle only means something on an active penalty

        step = 1e-6
        rng = np.random.default_rng(0)
        # Directional derivatives along random coefficient perturbations.
        for _ in range(5):
            v = rng.normal(size=traj.coefficients.shape)
            plus = replace(traj, coefficients=traj.coefficients + step * v)
            minus = replace(traj, coefficients=traj.coefficients - step * v)
            fd = (penalty(plus, quad_a)[0]
                  - penalty(minus, quad_a)[0]) / (2 * step)
            analytic = float(np.sum(dJ_dC * v))
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)
        # Direct duration derivatives, coefficients frozen.
        for k in range(len(ACTIVE_T)):
            tp, tm = ACTIVE_T.copy(), ACTIVE_T.copy()
            tp[k] += step
            tm[k] -= step
            fd = (penalty(replace(traj, durations=tp), quad_a)[0]
                  - penalty(replace(traj, durations=tm), quad_a)[0]
                  ) / (2 * step)
            assert dJ_dT[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_coefficient_scatter_matches_add_at_bitwise(self, quad_a, monkeypatch):
        """The per-segment sums over the active samples give the coefficient
        gradient of the per-order loop and np.add.at scatter over every
        sample that they replaced, bit for bit."""
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([6.0, -2.0, 2.0])
        P = np.array([[2.0, 0.5, 1.4], [4.0, -1.0, 1.8]])
        traj = construct(P, ACTIVE_T, bc0, bcf)
        rows = np.flatnonzero(reference_penalty_gradient(traj, quad_a)[2].any(axis=1))
        recorded = []
        vjp = _flatjet.vjp

        def recording(kept, params, rotor_bar, omega_bar):
            recorded.append(vjp(kept, params, rotor_bar, omega_bar))
            return recorded[-1]

        monkeypatch.setattr(_flatjet, "vjp", recording)
        value, grad = penalty(traj, quad_a)
        dJ_dC, _ = grad()
        assert value > 0
        seg_ids, _, local, weights, _ = _sample_grid(traj.durations)
        (active,) = recorded
        assert 0 < len(rows) < len(local) and len(active) == len(rows)
        g_inputs = np.zeros((len(local), 9))
        g_inputs[rows] = active
        basis = _basis(local, 5)
        contrib = np.zeros((len(local), NCOEF, 3))
        for o in range(3):
            contrib += basis[:, 2 + o, :, None] * g_inputs[:, None, 3 * o:3 * o + 3]
        contrib *= weights[:, None, None]
        want = np.zeros((len(traj.durations), NCOEF, 3))
        np.add.at(want, seg_ids, contrib)
        assert np.ascontiguousarray(dJ_dC).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["none", "some", "all"])
    def test_active_sample_gradient_matches_every_sample_bitwise(
            self, quad_a, monkeypatch, case):
        """The gradient over the active samples alone is the gradient over
        every sample, bit for bit, with no sample, some or every sample
        active; the VJP runs once, on the active samples."""
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([6.0, -2.0, 2.0])
        P = np.array([[2.0, 0.5, 1.4], [4.0, -1.0, 1.8]])
        traj, params = {
            "none": (slow_spline(), quad_a),
            "some": (construct(P, ACTIVE_T, bc0, bcf), quad_a),
            # Above the hover thrust, the lower rotor limit binds everywhere.
            "all": (slow_spline(), replace(quad_a, f_min=2.5)),
        }[case]
        want_dC, want_dT, cot = reference_penalty_gradient(traj, params)
        active = int(cot.any(axis=1).sum())
        assert {"none": active == 0, "some": 0 < active < len(cot),
                "all": active == len(cot)}[case]
        calls = []
        vjp = _flatjet.vjp

        def counting(kept, params, rotor_bar, omega_bar):
            calls.append(len(rotor_bar))
            return vjp(kept, params, rotor_bar, omega_bar)

        monkeypatch.setattr(_flatjet, "vjp", counting)
        dJ_dC, dJ_dT = penalty(traj, params)[1]()
        assert calls == [active]
        assert np.ascontiguousarray(dJ_dC).tobytes() == want_dC.tobytes()
        assert dJ_dT.tobytes() == want_dT.tobytes()

    def test_singular_spline_has_no_gradient(self, quad_a):
        """A spline that starts in free fall, its acceleration equal to
        gravity, has no thrust direction at its first sample: the penalty is
        +inf, with no gradient."""
        bc0 = BoundaryCondition(np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0],
                                          _flatjet.GRAVITY]))
        traj = construct(np.array([[1.0, 0.0, 4.0]]), [1.0, 1.0], bc0,
                         BoundaryCondition.hover([2.0, 0.0, 4.0]))
        assert penalty(traj, quad_a) == (np.inf, None)

    def test_value_only_call_never_runs_the_vjp(self, quad_a, monkeypatch):
        """Reading only the value, as restoration does, runs no flatness VJP;
        the gradient runs it once per call."""
        calls = []
        vjp = _flatjet.vjp

        def counting(kept, params, rotor_bar, omega_bar):
            calls.append(len(rotor_bar))
            return vjp(kept, params, rotor_bar, omega_bar)

        monkeypatch.setattr(_flatjet, "vjp", counting)
        traj = aggressive_spline()
        value, grad = penalty(traj, quad_a, samples(traj.durations, refine=4))
        assert value > 0 and calls == []
        first = grad()
        assert len(calls) == 1
        second = grad()
        assert len(calls) == 2
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_c2_across_activation(self, quad_a):
        """Second differences of the penalty stay continuous where the cubic
        hinge switches on."""
        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([4.0, 0.0, 1.0])
        # Fixed sample counts so the probe never crosses a kappa boundary.
        kappa = np.array([64, 64])

        def value(stretch):
            traj = construct(np.array([[2.0, 0.0, 1.3]]),
                             np.array([0.73, 0.91]) * stretch, bc0, bcf)
            return penalty(traj, quad_a, kappa)[0]

        # Bracket the activation threshold in the duration stretch factor.
        lo, hi = 0.3, 1.5
        assert value(lo) > 0 and value(hi) == 0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if value(mid) > 0:
                lo = mid
            else:
                hi = mid
        star = 0.5 * (lo + hi)

        def curvature_jump(h):
            d2_below = (value(star - 3 * h) - 2 * value(star - 2 * h)
                        + value(star - h)) / h**2
            d2_above = (value(star + h) - 2 * value(star + 2 * h)
                        + value(star + 3 * h)) / h**2
            return abs(d2_below - d2_above)

        # The cubic hinge has continuous curvature, so the observed jump is
        # the O(h) sampling bias of the stencil and must shrink with h.  A
        # C^1-only (squared) hinge would leave an O(1) jump instead.
        coarse, fine = curvature_jump(1e-3), curvature_jump(2.5e-4)
        assert fine < 0.5 * coarse


class TestObjective:
    def test_zero_penalty_structure(self, quad_a):
        """With the penalty inactive the objective is the pure time term:
        gradient in K is dT/dK, gradient in D vanishes."""
        seq = mixed_sequence(2, spacing=3.0)
        bc0, bcf = hover_pair(2, spacing=3.0)
        dec = DecisionVector.for_sequence(seq)
        dec.K = np.array([1.1, 1.3, 0.9])  # generous durations
        report = objective(dec, seq, quad_a, bc0, bcf)
        assert report.penalty_term == 0.0
        durations, dt_dk = time_map(dec.K)
        assert report.total == pytest.approx(float(np.sum(durations)))
        assert np.allclose(report.gradient.K, dt_dk)
        assert np.allclose(report.gradient.D, 0.0)

    def test_total_is_time_plus_penalty(self, quad_a):
        seq = mixed_sequence(3)
        bc0, bcf = hover_pair(3)
        dec = DecisionVector.for_sequence(seq)
        report = objective(dec, seq, quad_a, bc0, bcf)
        assert report.total == pytest.approx(
            report.time_term + report.penalty_term
        )

    def test_full_gradient_matches_finite_differences(self, quad_a):
        seq = mixed_sequence(3)
        bc0, bcf = hover_pair(3)
        rng = np.random.default_rng(2)
        dec = DecisionVector.for_sequence(seq)
        dec.D = rng.normal(scale=0.8, size=dec.D.shape)
        # Short durations so the penalty is active and the full chain runs.
        dec.K = rng.normal(scale=0.25, size=dec.K.shape) - 0.9
        report = objective(dec, seq, quad_a, bc0, bcf)
        assert report.penalty_term > 0  # exercise the full chain

        x0 = dec.to_flat()
        grad = report.gradient.to_flat()
        step = 1e-6
        fd = np.empty_like(x0)
        for i in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += step
            xm[i] -= step
            fd[i] = (objective(dec.with_flat(xp), seq, quad_a, bc0, bcf).total
                     - objective(dec.with_flat(xm), seq, quad_a, bc0, bcf).total
                     ) / (2 * step)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_working_set_per_sample(self):
        """One evaluation of the 8-lap, 56-gate loop at its initial point
        (1,722 samples) peaks at no more than 850 traced bytes per sample
        (772 measured with numpy 2.4, in the flatness map): each large
        per-sample array lives only until its last use, and the penalty's
        tail and the gradient hold the active samples alone."""
        track = loop_track()
        seq = build_sequence(track, laps=8)
        bc0 = BoundaryCondition.hover(track.start)
        bcf = BoundaryCondition.hover(track.finish)
        dec = initialize(seq, bc0, bcf, OptimizerConfig(initial_speed_guess=12.0))
        n = int(np.sum(samples(time_map(dec.K)[0]) + 1))
        assert n == 1722
        objective(dec, seq, track.quad, bc0, bcf)   # fills the per-size caches
        tracemalloc.start()
        try:
            report = objective(dec, seq, track.quad, bc0, bcf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.gradient is not None
        assert peak <= 850 * n, f"{peak / n:.0f} bytes per sample"

    def test_sampling_refinement_consistency(self, quad_a):
        """Doubling the sample resolution barely moves a feasible penalty."""
        traj = slow_spline()
        base = penalty(traj, quad_a)[0]
        fine = penalty(traj, quad_a, samples(traj.durations, refine=2))[0]
        assert abs(fine - base) < 1e-6

    def test_oversized_duration_reports_infinite(self, quad_a):
        seq = mixed_sequence(1)
        bc0, bcf = hover_pair(1)
        dec = DecisionVector.for_sequence(seq)
        dec.K = np.array([20.0, 0.0])  # time_map(20) > 60 s guard
        report = objective(dec, seq, quad_a, bc0, bcf)
        assert report.total == np.inf
        assert report.gradient is None

    @pytest.mark.parametrize("k0", [-1e200, np.nan, 1e200, -np.inf, np.inf],
                             ids=["underflow", "nan", "overflow", "-inf", "inf"])
    def test_unusable_duration_reports_infinite(self, k0):
        """On the loop's initial vector, a first time variable whose
        duration underflows to 0 s, is NaN or overflows gives +inf and no
        gradient rather than an error from the spline, and no numpy
        warning."""
        track = loop_track()
        seq = build_sequence(track)
        bc0 = BoundaryCondition.hover(track.start)
        bcf = BoundaryCondition.hover(track.finish)
        dec = initialize(seq, bc0, bcf)
        dec.K[0] = k0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = objective(dec, seq, track.quad, bc0, bcf)
        assert report.total == np.inf
        assert report.gradient is None


class TestEvaluator:
    def test_pickled_copy_gives_the_same_bytes(self, quad_a):
        """Ball, polygon and polyhedron groups pickle, and the copy gives
        the objective and gradient, on its own grid and on another point's,
        and the fine penalty, bit for bit."""
        seq = mixed_sequence(3)
        bc0, bcf = hover_pair(3)
        dec0 = DecisionVector.for_sequence(seq)
        dec0.K -= 0.9   # short durations: the penalty is active
        evaluator = Evaluator(dec0, seq, quad_a, bc0, bcf)
        copy = pickle.loads(pickle.dumps(evaluator))
        x = dec0.to_flat()
        grid = x.copy()
        grid[len(dec0.D):] += 0.3   # longer durations, more samples
        assert evaluator(x)[0] != evaluator(x, grid)[0]
        for args in ((x,), (x, grid)):
            (f, g), (f_copy, g_copy) = evaluator(*args), copy(*args)
            assert np.float64(f).tobytes() == np.float64(f_copy).tobytes()
            assert g.tobytes() == g_copy.tobytes()
        assert copy.fine_penalty(dec0) == evaluator.fine_penalty(dec0) > 0

    def test_pickled_copy_keeps_every_array_read_only(self, quad_a):
        """Every array of the problem, in the fields of the frozen
        dataclasses and in the tuples and partials there, is read-only in
        the evaluator and in its pickled copy.  ``dec0``, a DecisionVector that only lays out flat vectors, is
        the caller's and stays writeable."""
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, partial):
                yield from arrays(value.args)
            elif is_dataclass(value) and not isinstance(value, DecisionVector):
                yield from arrays(tuple(vars(value).values()))

        seq = mixed_sequence(3)
        bc0, bcf = hover_pair(3)
        evaluator = Evaluator(DecisionVector.for_sequence(seq), seq, quad_a,
                              bc0, bcf)
        copy = pickle.loads(pickle.dumps(evaluator))
        for ev in (evaluator, copy):
            found = list(arrays(ev))
            # QuadParams' 7, 2 boundary conditions, a ball center, 2 polytopes'
            # vertices and halfspaces, the polygon's plane normal, and the 3
            # groups' indices, columns and surjection geometry.
            assert len(found) == 24
            assert not any(a.flags.writeable for a in found)
            assert ev.dec0.D.flags.writeable and ev.dec0.K.flags.writeable


def test_module_level_arrays_are_read_only():
    """Every ndarray bound at module level in raceplan, the penalty weights
    among them, is read-only: a stray in-place write would change every
    objective without an error."""
    found = {}
    for info in pkgutil.iter_modules(raceplan.__path__):
        module = importlib.import_module(f"raceplan.{info.name}")
        found.update({f"{info.name}.{name}": value
                      for name, value in vars(module).items()
                      if isinstance(value, np.ndarray)})
    assert "cost.PENALTY_WEIGHTS" in found and "spline._FALLING" in found
    assert [name for name, a in found.items() if a.flags.writeable] == []
