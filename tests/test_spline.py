"""Tests for the minimum-control piecewise-polynomial spline."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import lapack, null_space

from raceplan import spline
from raceplan.errors import ValidationError
from raceplan.spline import (
    BoundaryCondition, _basis, construct, propagate_gradients,
)


def dpow(t: float, order: int, ncoef: int) -> np.ndarray:
    """Independent derivative-of-power-basis row used by the test oracles."""
    row = np.zeros(ncoef)
    for m in range(order, ncoef):
        row[m] = math.factorial(m) / math.factorial(m - order) * t ** (m - order)
    return row


def dense_oracle(P, T, bc0, bcf, s=3):
    """Assemble and solve the full optimality system with a dense solver."""
    ncoef = 2 * s
    num_seg = len(T)
    n = ncoef * num_seg
    mat = np.zeros((n, n))
    rhs = np.zeros((n, 3))
    row = 0
    for k in range(s):
        mat[row, k] = math.factorial(k)
        rhs[row] = bc0.derivatives[k]
        row += 1
    for i in range(1, num_seg):
        c_a, c_b = (i - 1) * ncoef, i * ncoef
        mat[row, c_a:c_a + ncoef] = dpow(T[i - 1], 0, ncoef)
        rhs[row] = P[i - 1]
        row += 1
        for k in range(ncoef - 1):
            mat[row, c_a:c_a + ncoef] = dpow(T[i - 1], k, ncoef)
            mat[row, c_b + k] = -math.factorial(k)
            row += 1
    for k in range(s):
        mat[row, -ncoef:] = dpow(T[-1], k, ncoef)
        rhs[row] = bcf.derivatives[k]
        row += 1
    sol = np.linalg.solve(mat, rhs)
    return mat, rhs, sol.reshape(num_seg, ncoef, 3)


def per_order_basis(t, order: int, ncoef: int) -> np.ndarray:
    """One derivative order of the power basis per call, one column at a
    time: the building block of the exact references below."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((len(t), ncoef))
    for m in range(order, ncoef):
        out[:, m] = (math.factorial(m) // math.factorial(m - order)) * t ** (m - order)
    return out


def reference_eval_local(traj, seg_idx, local, max_order):
    """Evaluation with one basis call per derivative order."""
    ncoef = spline.NCOEF
    coeffs = traj.coefficients[np.asarray(seg_idx)]
    out = np.empty((len(local), max_order + 1, 3))
    for order in range(max_order + 1):
        if order >= ncoef:
            out[:, order] = 0.0
        else:
            out[:, order] = np.einsum(
                "nm,nmd->nd", per_order_basis(local, order, ncoef), coeffs)
    return out


def reference_construct(P, T, bc0, bcf, s=3):
    """Banded assembly one entry at a time, junction by junction, then the
    same banded LU solve as the library, on the same 3 columns."""
    ncoef = 2 * s
    num_seg = len(T)
    n = ncoef * num_seg
    kl = ku = 3 * s - 1
    ab = np.zeros((2 * kl + ku + 1, n))
    rhs = np.zeros((n, 3))

    def put(row, col, val):
        ab[kl + ku + row - col, col] = val

    for k in range(s):
        put(k, k, math.factorial(k))
        rhs[k] = bc0.derivatives[k]
    for i in range(1, num_seg):
        r0, c_a, c_b = s + (i - 1) * ncoef, (i - 1) * ncoef, i * ncoef
        beta0 = per_order_basis([T[i - 1]], 0, ncoef)[0]
        for m in range(ncoef):
            put(r0, c_a + m, beta0[m])
        rhs[r0] = P[i - 1]
        for k in range(ncoef - 1):
            beta = per_order_basis([T[i - 1]], k, ncoef)[0]
            for m in range(ncoef):
                if beta[m] != 0.0:
                    put(r0 + 1 + k, c_a + m, beta[m])
            put(r0 + 1 + k, c_b + k, -math.factorial(k))
    for k in range(s):
        beta = per_order_basis([T[-1]], k, ncoef)[0]
        for m in range(ncoef):
            if beta[m] != 0.0:
                put(n - s + k, (num_seg - 1) * ncoef + m, beta[m])
        rhs[n - s + k] = bcf.derivatives[k]
    lu, ipiv, _ = lapack.dgbtrf(ab, kl, ku)
    sol, _ = lapack.dgbtrs(lu, kl, ku, rhs, ipiv)
    return sol.reshape(num_seg, ncoef, 3)


def reference_propagate(traj, dJ_dC, dJ_dT_direct):
    """Adjoint with the duration terms summed junction by junction, row by
    row.  Each row's values are beta @ coefficients, as a (1, 2s) matmul,
    and each dot with lam adds its products as (p0 + p2) + p1."""
    lu, ipiv, kl, ku = traj._factor
    s, ncoef = spline.S, spline.NCOEF
    num_seg = len(traj.durations)
    n = ncoef * num_seg
    lam, _ = lapack.dgbtrs(lu, kl, ku, dJ_dC.reshape(n, 3), ipiv, trans=1)

    def dot(lam_row, beta, coefficients):
        p = lam_row * (beta[None, :] @ coefficients)[0]
        return (p[0] + p[2]) + p[1]

    dJ_dP = np.empty((num_seg - 1, 3))
    dJ_dT = dJ_dT_direct.copy()
    for i in range(1, num_seg):
        r0 = s + (i - 1) * ncoef
        dJ_dP[i - 1] = lam[r0]
        contrib = 0.0
        for k in range(ncoef):
            beta = per_order_basis([traj.durations[i - 1]], max(k, 1), ncoef)[0]
            contrib += dot(lam[r0 + k], beta, traj.coefficients[i - 1])
        dJ_dT[i - 1] -= contrib
    contrib = 0.0
    for k in range(s):
        beta = per_order_basis([traj.durations[-1]], k + 1, ncoef)[0]
        contrib += dot(lam[n - s + k], beta, traj.coefficients[-1])
    dJ_dT[-1] -= contrib
    return dJ_dP, dJ_dT


def broadcast_construct(P, T, bc0, bcf):
    """The coefficients of construct's assembly before its layout was cached
    per segment count: every entry's row, column and value broadcast per
    block on each call, then one indexed write into the band."""
    s, ncoef = spline.S, spline.NCOEF
    num_seg = len(T)
    n = ncoef * num_seg
    kl = ku = 3 * s - 1
    ab = np.zeros((2 * kl + ku + 1, n))
    rhs = np.zeros((n, 3))
    rhs[:s] = bc0.derivatives
    rhs[s:n - s:ncoef] = P
    rhs[n - s:] = bcf.derivatives
    k = np.arange(ncoef - 1)
    m = np.arange(ncoef)
    j = np.arange(num_seg - 1)[:, None]
    r0 = s + ncoef * j
    at0 = np.diagonal(_basis(0.0, ncoef - 2)[0])
    at_end = _basis(T, ncoef - 2)
    blocks = (
        (k[:s], k[:s], at0[:s]),
        (r0[..., None] + m[:, None], ncoef * j[..., None] + m, at_end[:-1, np.r_[0, k]]),
        (r0 + 1 + k, ncoef * (j + 1) + k, -at0),
        (n - s + k[:s, None], n - ncoef + m, at_end[-1, :s]),
    )
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*(
        [a.ravel() for a in np.broadcast_arrays(*block)] for block in blocks)))
    ab[kl + ku + rows - cols, cols] = vals
    lu, ipiv, _ = lapack.dgbtrf(ab, kl, ku)
    sol, _ = lapack.dgbtrs(lu, kl, ku, rhs, ipiv)
    return sol.reshape(num_seg, ncoef, 3)


def random_problem(rng, num_wp):
    P = rng.normal(scale=2.0, size=(num_wp, 3))
    T = rng.uniform(0.6, 1.8, size=num_wp + 1)
    bc0 = BoundaryCondition(rng.normal(scale=0.5, size=(3, 3)))
    bcf = BoundaryCondition(rng.normal(scale=0.5, size=(3, 3)))
    return P, T, bc0, bcf


class TestConstruct:
    def test_quintic_rest_to_rest(self):
        """Single-segment rest-to-rest unit step is the classic minimum-jerk
        polynomial 10t^3 - 15t^4 + 6t^5."""
        bc0 = BoundaryCondition.hover([0.0, 0.0, 0.0])
        bcf = BoundaryCondition.hover([1.0, 0.0, 0.0])
        traj = construct(np.zeros((0, 3)), [1.0], bc0, bcf)
        expected = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
        assert np.allclose(traj.coefficients[0, :, 0], expected, atol=1e-10)
        assert np.allclose(traj.coefficients[0, :, 1:], 0.0, atol=1e-10)

    def test_midpoint_symmetry(self):
        bc0 = BoundaryCondition.hover([0.0, 0.0, 0.0])
        bcf = BoundaryCondition.hover([2.0, 0.0, 0.0])
        traj = construct(np.array([[1.0, 0.0, 0.0]]), [1.0, 1.0], bc0, bcf)
        ts = np.linspace(0.0, 2.0, 41)
        y = traj.eval_batch(ts, 0)[:, 0, 0]
        assert np.allclose(y + y[::-1], 2.0, atol=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for num_wp in (1, 3, 6):
            P, T, bc0, bcf = random_problem(rng, num_wp)
            traj = construct(P, T, bc0, bcf)
            mat, rhs, coeffs = dense_oracle(P, T, bc0, bcf)
            assert np.max(np.abs(traj.coefficients - coeffs)) < 1e-10
            flat = traj.coefficients.reshape(-1, 3)
            assert np.max(np.abs(mat @ flat - rhs)) < 1e-10

    def test_waypoints_interpolated(self):
        rng = np.random.default_rng(1)
        P, T, bc0, bcf = random_problem(rng, 4)
        traj = construct(P, T, bc0, bcf)
        at = traj.eval_batch(traj.junction_times, 0)[:, 0, :]
        assert np.max(np.abs(at - P)) < 1e-8

    def test_input_validation(self):
        bc = BoundaryCondition.hover([0, 0, 0])
        with pytest.raises(ValidationError, match=r"need exactly len\(P\)\+1 durations"):
            construct(np.zeros((2, 3)), [1.0], bc, bc)
        with pytest.raises(ValueError):
            construct(np.zeros((0, 3)), [-1.0], bc, bc)
        with pytest.raises(ValueError):
            construct(np.zeros((0, 3)), [100.0], bc, bc)

    @pytest.mark.parametrize("duration", [np.nan, 0.0, -1.0, 61.0])
    def test_duration_outside_the_guard_refused(self, duration):
        """A duration that is NaN, at most 0, or past the 60 s guard is
        refused before the solve, not turned into NaN coefficients."""
        hover = BoundaryCondition.hover([0, 0, 0])
        with pytest.raises(ValidationError, match="durations"):
            construct(np.zeros((1, 3)), [duration, 1.0], hover, hover)

    def test_four_wide_inputs_refused(self):
        """The flat output is the position alone: a yaw column is refused."""
        with pytest.raises(ValueError):
            BoundaryCondition(np.zeros((3, 4)))
        bc = BoundaryCondition.hover([0, 0, 0])
        with pytest.raises(ValidationError, match=r"waypoints must be \(L, 3\)"):
            construct(np.zeros((2, 4)), [1.0, 1.0, 1.0], bc, bc)

    def test_bandwidth_bounded(self):
        """Every nonzero of the optimality system sits within 4s of the
        diagonal, independent of segment count."""
        rng = np.random.default_rng(2)
        s = 3
        for num_wp in (3, 10):
            P, T, bc0, bcf = random_problem(rng, num_wp)
            mat, _, _ = dense_oracle(P, T, bc0, bcf, s=s)
            rows, cols = np.nonzero(mat)
            assert np.max(np.abs(rows - cols)) <= 4 * s

    def test_cached_band_layout_is_read_only(self):
        """Every construct with a segment count shares that count's cached
        index arrays: a stray write to one must raise, not corrupt them."""
        hover = BoundaryCondition.hover([0, 0, 0])
        construct(np.zeros((2, 3)), [1.0, 1.0, 1.0], hover, hover)
        for array in spline._band_layout(3):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_construct_scales_linearly(self):
        rng = np.random.default_rng(3)
        timings = {}
        for num_seg in (64, 128):
            P, T, bc0, bcf = random_problem(rng, num_seg - 1)
            best = math.inf
            for _ in range(5):
                tic = time.perf_counter()
                construct(P, T, bc0, bcf)
                best = min(best, time.perf_counter() - tic)
            timings[num_seg] = best
        assert timings[128] / timings[64] < 2.5


class TestExactReference:
    """The basis table, the one-write band assembly and the adjoint's
    all-junction duration terms equal per-order and per-junction
    references bit for bit."""

    def test_basis_table_matches_per_order_rows(self):
        t = np.random.default_rng(20).uniform(0.0, 60.0, 500)
        table = _basis(t, 7)
        assert table.shape == (500, 8, 6)
        for order in range(8):
            assert np.array_equal(table[:, order], per_order_basis(t, order, 6))

    def test_basis_from_order_two_matches_full_table(self):
        """The table from min_order on holds only those orders, equal to the
        full table's rows, and so does eval_local's output."""
        rng = np.random.default_rng(21)
        t = rng.uniform(0.0, 60.0, 500)
        full = _basis(t, 5)
        part = _basis(t, 5, min_order=2)
        assert part.shape == (500, 4, 6)
        assert np.ascontiguousarray(part).tobytes() == \
            np.ascontiguousarray(full[:, 2:]).tobytes()
        P, T, bc0, bcf = random_problem(rng, 3)
        traj = construct(P, T, bc0, bcf)
        seg, local = traj.locate(rng.uniform(0.0, traj.total_time, 300))
        got = traj.eval_local(seg, local, 5, min_order=2)
        assert got.shape == (300, 4, 3)
        assert got.tobytes() == \
            np.ascontiguousarray(traj.eval_local(seg, local, 5)[:, 2:]).tobytes()

    def test_basis_from_order_one_matches_full_table_contiguous_orders(self):
        """The adjoint's table from order 1 on equals the full table's rows
        1-5 byte for byte, and in every table each order's (N, 2s) slice is
        C-contiguous, the layout that eval_local's einsums round by."""
        t = np.random.default_rng(22).uniform(0.0, 60.0, 500)
        t[:3] = 0.0
        full = _basis(t, 5)
        part = _basis(t, 5, min_order=1)
        assert part.shape == (500, 5, 6)
        assert np.ascontiguousarray(part).tobytes() == \
            np.ascontiguousarray(full[:, 1:]).tobytes()
        for table in (full, part, _basis(t, 4, min_order=2), _basis(t, 7),
                      _basis(t[:1], 5, min_order=2)):
            for order in range(table.shape[1]):
                assert table[:, order].flags.c_contiguous, order

    def test_segment_gather_keeps_the_lapack_layout(self):
        """segment_coefficients returns the values of coefficients[idx],
        segments repeated and out of order included, gathered from the
        F-ordered view of LAPACK's solution, with the 8-byte stride along
        the coefficient axis that eval_local's einsums reduce over."""
        rng = np.random.default_rng(41)
        P, T, bc0, bcf = random_problem(rng, 6)
        traj = construct(P, T, bc0, bcf)
        assert not traj.coefficients.flags.c_contiguous
        idx = rng.integers(0, len(T), 50)
        got = traj.segment_coefficients(idx)
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(traj.coefficients[idx]).tobytes()
        assert got.strides[1] == 8

    def test_cached_layout_matches_broadcast_assembly(self):
        """Segment counts 1-9, then again in reverse and shuffled, so each
        count's cached layout is reused after others: the coefficients equal
        the per-call broadcast assembly's, byte for byte."""
        rng = np.random.default_rng(40)
        counts = list(range(1, 10))
        for num_seg in counts + counts[::-1] + list(rng.permutation(counts)):
            P, T, bc0, bcf = random_problem(rng, int(num_seg) - 1)
            T = T * rng.choice([0.05, 1.0, 20.0])
            got = construct(P, T, bc0, bcf).coefficients
            assert got.tobytes() == broadcast_construct(P, T, bc0, bcf).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_spline_matches_references(self, seed):
        rng = np.random.default_rng(30 + seed)
        for num_wp in (0, 1, 4, 9):
            P, T, bc0, bcf = random_problem(rng, num_wp)
            T = T * rng.choice([0.05, 1.0, 20.0])
            traj = construct(P, T, bc0, bcf)
            assert np.array_equal(traj.coefficients,
                                  reference_construct(P, T, bc0, bcf))
            seg, local = traj.locate(rng.uniform(0.0, traj.total_time, 300))
            for max_order in (0, 4, 5, 7):
                assert np.array_equal(traj.eval_local(seg, local, max_order),
                                      reference_eval_local(traj, seg, local, max_order))
            dJ_dC = rng.normal(size=traj.coefficients.shape)
            dJ_dT = rng.normal(size=len(T))
            got = propagate_gradients(traj, dJ_dC, dJ_dT)
            want = reference_propagate(traj, dJ_dC, dJ_dT)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestEval:
    def test_boundary_values(self):
        rng = np.random.default_rng(4)
        P, T, bc0, bcf = random_problem(rng, 2)
        traj = construct(P, T, bc0, bcf)
        at0, atf = traj.eval_batch([0.0, traj.total_time], max_order=2)
        assert np.allclose(at0, bc0.derivatives, atol=1e-9)
        assert np.allclose(atf, bcf.derivatives, atol=1e-8)

    def test_junction_continuity(self):
        rng = np.random.default_rng(5)
        P, T, bc0, bcf = random_problem(rng, 4)
        traj = construct(P, T, bc0, bcf)
        eps = 1e-9
        for t_j in traj.junction_times:
            left = traj.eval_batch([t_j - eps], 4)[0]
            right = traj.eval_batch([t_j + eps], 4)[0]
            # Continuous through order 2s-2 = 4.
            assert np.max(np.abs(left - right)) < 1e-6

    def test_orders_above_degree_are_zero(self):
        bc = BoundaryCondition.hover([0, 0, 1])
        traj = construct(np.zeros((0, 3)), [1.0], bc, bc)
        sample = traj.eval_batch([0.5], max_order=7)[0]
        assert np.allclose(sample[6:], 0.0)

    def test_out_of_domain(self):
        bc = BoundaryCondition.hover([0, 0, 1])
        traj = construct(np.zeros((0, 3)), [1.0], bc, bc)
        with pytest.raises(ValidationError, match="evaluation time outside"):
            traj.eval_batch([1.5], 4)
        with pytest.raises(ValidationError, match="evaluation time outside"):
            traj.eval_batch([-0.5], 4)


class TestGradients:
    def test_pure_time_gradient(self):
        rng = np.random.default_rng(6)
        P, T, bc0, bcf = random_problem(rng, 3)
        traj = construct(P, T, bc0, bcf)
        dJ_dP, dJ_dT = propagate_gradients(
            traj, np.zeros_like(traj.coefficients), np.ones(len(T))
        )
        assert np.allclose(dJ_dT, 1.0)
        assert np.allclose(dJ_dP, 0.0)

    def test_zero_functional_zero_gradient(self):
        rng = np.random.default_rng(7)
        P, T, bc0, bcf = random_problem(rng, 2)
        traj = construct(P, T, bc0, bcf)
        dJ_dP, dJ_dT = propagate_gradients(
            traj, np.zeros_like(traj.coefficients), np.zeros(len(T))
        )
        assert np.allclose(dJ_dP, 0.0)
        assert np.allclose(dJ_dT, 0.0)

    @pytest.mark.parametrize("num_wp", [1, 3, 7])
    def test_tracking_cost_matches_finite_differences(self, num_wp):
        """J = |y(t*) - y_ref|^2 at a fixed fraction of total time."""
        rng = np.random.default_rng(8 + num_wp)
        P, T, bc0, bcf = random_problem(rng, num_wp)
        y_ref = rng.normal(size=3)
        frac = 0.37

        def cost_and_grads(P_, T_):
            traj = construct(P_, T_, bc0, bcf)
            t_star = frac * traj.total_time
            idx, local = traj.locate([t_star])
            y = traj.eval_local(idx, local, 0)[0, 0]
            value = float(np.sum((y - y_ref) ** 2))
            # dJ/dC through the evaluation basis; dJ/dT_direct through the
            # motion of t_star and the local clock.
            dy = 2.0 * (y - y_ref)
            dJ_dC = np.zeros_like(traj.coefficients)
            basis = dpow(local[0], 0, spline.NCOEF)
            dJ_dC[idx[0]] = np.outer(basis, dy)
            ydot = traj.eval_local(idx, local, 1)[0, 1]
            dJ_dT = np.zeros(len(T_))
            # t_star = frac * sum(T); local = t_star - cum[idx]
            for k in range(len(T_)):
                dlocal = frac - (1.0 if k < idx[0] else 0.0)
                dJ_dT[k] = float(dy @ ydot) * dlocal
            return value, dJ_dC, dJ_dT, traj

        value, dJ_dC, dJ_dT_direct, traj = cost_and_grads(P, T)
        dJ_dP, dJ_dT = propagate_gradients(traj, dJ_dC, dJ_dT_direct)

        step = 1e-6
        fd_P = np.zeros_like(P)
        for i in range(P.shape[0]):
            for j in range(3):
                Pp, Pm = P.copy(), P.copy()
                Pp[i, j] += step
                Pm[i, j] -= step
                fd_P[i, j] = (cost_and_grads(Pp, T)[0]
                              - cost_and_grads(Pm, T)[0]) / (2 * step)
        fd_T = np.zeros_like(T)
        for k in range(len(T)):
            Tp, Tm = T.copy(), T.copy()
            Tp[k] += step
            Tm[k] -= step
            fd_T[k] = (cost_and_grads(P, Tp)[0]
                       - cost_and_grads(P, Tm)[0]) / (2 * step)

        scale = max(1.0, np.max(np.abs(fd_P)), np.max(np.abs(fd_T)))
        assert np.max(np.abs(dJ_dP - fd_P)) / scale < 1e-5
        assert np.max(np.abs(dJ_dT - fd_T)) / scale < 1e-5


class TestEnergyOptimality:
    def test_minimum_among_admissible_perturbations(self):
        """The constructed spline minimizes the control energy over all
        piecewise quintics matching boundary conditions, waypoints and
        C^{s-1} continuity."""
        s, ncoef = 3, 6
        rng = np.random.default_rng(9)
        num_wp = 3
        P = rng.normal(size=num_wp)        # scalar problem in the x channel
        T = rng.uniform(0.7, 1.5, size=num_wp + 1)
        P3 = np.zeros((num_wp, 3))
        P3[:, 0] = P
        bc0 = BoundaryCondition.hover([0.0, 0.0, 0.0])
        bcf = BoundaryCondition.hover([1.0, 0.0, 0.0])
        traj = construct(P3, T, bc0, bcf)
        c0 = traj.coefficients[:, :, 0].ravel()

        num_seg = len(T)
        n = ncoef * num_seg
        rows = []
        for k in range(s):
            row = np.zeros(n)
            row[k] = math.factorial(k)
            rows.append(row)
        for i in range(1, num_seg):
            c_a, c_b = (i - 1) * ncoef, i * ncoef
            row = np.zeros(n)
            row[c_a:c_a + ncoef] = dpow(T[i - 1], 0, ncoef)
            rows.append(row)          # waypoint value (both sides via cont.)
            for k in range(s):        # C^{s-1} continuity only
                row = np.zeros(n)
                row[c_a:c_a + ncoef] = dpow(T[i - 1], k, ncoef)
                row[c_b + k] = -math.factorial(k)
                rows.append(row)
        for k in range(s):
            row = np.zeros(n)
            row[-ncoef:] = dpow(T[-1], k, ncoef)
            rows.append(row)
        basis = null_space(np.array(rows))
        assert basis.shape[1] == (s - 1) * num_wp

        def energy(c):
            total = 0.0
            for i in range(num_seg):
                ci = c[i * ncoef:(i + 1) * ncoef]
                q = np.zeros((ncoef, ncoef))
                for m in range(s, ncoef):
                    for nn in range(s, ncoef):
                        fm = math.factorial(m) / math.factorial(m - s)
                        fn = math.factorial(nn) / math.factorial(nn - s)
                        q[m, nn] = fm * fn * T[i] ** (m + nn - 2 * s + 1) \
                            / (m + nn - 2 * s + 1)
                total += ci @ q @ ci
            return total

        e0 = energy(c0)
        for _ in range(100):
            delta = basis @ rng.normal(scale=0.5, size=basis.shape[1])
            assert energy(c0 + delta) > e0 - 1e-10
