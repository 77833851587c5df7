"""Tests for gate regions, surjective parameter maps and margin shrinking."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import root

from conftest import hover_pair, mixed_sequence, tetra_gate, unit_square_gate
from raceplan.cost import objective, penalty
from raceplan.errors import ValidationError
from raceplan.gates import (
    BallGate, DecisionVector, GateSequence, PolytopeGate, contains, decode,
    gate_center, shrink_margin, surject, time_map, time_map_inverse,
)
from raceplan.spline import construct, propagate_gradients
from raceplan.tracks import square_gate


class TestGateConstruction:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            BallGate(center=[0, 0, 0], radius=-0.1)

    @pytest.mark.parametrize("center", [[np.nan, 0, 0], [0, -np.inf, 0]])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValidationError, match=r"^ball gate center\[\d\] must be "
                           r"a number in \[-1e\+06, 1e\+06\], got (nan|-inf)$"):
            BallGate(center=center, radius=1.0)

    def test_coincident_vertices_rejected(self):
        verts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(ValidationError):
            PolytopeGate.from_vertices(verts, planar=True)

    def test_non_convex_position_rejected(self):
        # Fourth point inside the triangle of the others (coplanar).
        verts = np.array(
            [[0, 0, 0], [4, 0, 0], [0, 4, 0], [1, 1, 0]], dtype=float
        )
        with pytest.raises(ValidationError,
                           match="^polygon vertices are not in convex position$"):
            PolytopeGate.from_vertices(verts, planar=True)
        # Fifth point at the tetrahedron's center.
        verts = np.vstack([tetra_gate().vertices, np.zeros(3)])
        with pytest.raises(ValidationError,
                           match="^polyhedron vertices are not in convex position$"):
            PolytopeGate.from_vertices(verts, planar=False)

    def test_planar_flag_mismatch_rejected(self):
        square = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
        )
        with pytest.raises(ValidationError):
            PolytopeGate.from_vertices(square, planar=False)
        with pytest.raises(ValidationError):
            PolytopeGate.from_vertices(tetra_gate().vertices, planar=True)

    def test_halfspaces_contain_vertices(self):
        for gate in (unit_square_gate(), tetra_gate()):
            a_mat, b_vec = gate.halfspaces
            assert np.max(gate.vertices @ a_mat.T - b_vec) <= 1e-9


class TestContainment:
    def test_ball_residuals(self):
        gate = BallGate(center=[0, 0, 0], radius=1.0)
        assert contains(gate, [0, 0, 0]) == pytest.approx(-1.0)
        assert contains(gate, [1, 0, 0]) == pytest.approx(0.0)
        assert contains(gate, [2, 0, 0]) == pytest.approx(1.0)

    def test_polygon_residuals(self):
        gate = unit_square_gate()
        assert contains(gate, [0.5, 0.5, 0.0]) < 0
        assert abs(contains(gate, [0.5, 0.0, 0.0])) < 1e-12
        assert contains(gate, [0.5, 0.5, 1.0]) > 0  # off-plane

    def test_polyhedron_residuals(self):
        gate = tetra_gate()
        assert contains(gate, [0, 0, 0]) < 0
        assert contains(gate, [2, 2, 2]) > 0

    @pytest.mark.parametrize("gate", [
        BallGate(center=[0.2, -0.1, 0.3], radius=0.8),
        unit_square_gate(z=0.1),
        tetra_gate(scale=0.9),
    ], ids=["ball", "polygon", "polyhedron"])
    def test_batched_equals_per_point(self, gate):
        rng = np.random.default_rng(4)
        points = rng.normal(scale=1.2, size=(64, 3))
        points[:8, 2] = 0.1  # on the polygon's plane
        points[8:16, 2] = 0.1 + rng.normal(scale=1e-6, size=8)
        batched = contains(gate, points)
        assert batched.shape == (64,) and type(contains(gate, points[0])) is float
        assert np.array_equal(batched, [contains(gate, p) for p in points])
        assert (batched < 0).any() and (batched > 0).any()


class TestBallSurjection:
    def test_zero_maps_to_center(self):
        gate = BallGate(center=[1, 2, 3], radius=0.5)
        p = surject(gate, np.zeros((1, 4)))[0][0]
        assert np.allclose(p, [1, 2, 3])

    def test_unit_parameter_reaches_boundary(self):
        gate = BallGate(center=[0, 0, 0], radius=1.0)
        p = surject(gate, [[1, 0, 0, 0]])[0][0]
        assert np.allclose(p, [1, 0, 0])

    def test_large_parameter_stays_inside(self):
        gate = BallGate(center=[0, 0, 0], radius=1.0)
        p = surject(gate, [[2, 0, 0, 0]])[0][0]
        assert np.allclose(p, [0.8, 0, 0])

    @given(d=arrays(np.float64, 4, elements=st.floats(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_always_contained(self, d):
        gate = BallGate(center=[0.5, -1.0, 2.0], radius=0.75)
        p = surject(gate, d[None])[0][0]
        assert contains(gate, p) <= 1e-9

    def test_interior_targets_recovered(self):
        """Numeric inversion of the ball map reaches arbitrary interior points."""
        gate = BallGate(center=[1.0, 0.0, -0.5], radius=1.3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            target = gate.center + rng.uniform(0, 0.95) * gate.radius * direction

            def residual(d):
                p = surject(gate, d[None])[0][0]
                return np.append(p - target, d[3])

            sol = root(residual, np.full(4, 0.2), tol=1e-12)
            assert sol.success
            p = surject(gate, sol.x[None])[0][0]
            assert np.linalg.norm(p - target) < 1e-6


class TestPolytopeSurjection:
    def test_basis_vector_reaches_vertex(self):
        gate = unit_square_gate()
        p = surject(gate, [[1, 0, 0, 0]])[0][0]
        assert np.allclose(p, gate.vertices[0])

    def test_uniform_parameter_reaches_centroid(self):
        gate = unit_square_gate()
        p = surject(gate, [[1, 1, 1, 1]])[0][0]
        assert np.allclose(p, [0.5, 0.5, 0.0])

    def test_zero_convention_is_centroid(self):
        gate = tetra_gate(center=[2, 0, 1])
        p, jac = surject(gate, np.zeros((1, 4)))
        assert np.allclose(p[0], gate_center(gate))
        assert np.allclose(jac[0], 0.0)

    def test_random_parameters_contained(self):
        rng = np.random.default_rng(1)
        for gate in (unit_square_gate(), tetra_gate()):
            d = rng.normal(scale=3.0, size=(10_000, gate.param_dim))
            p, _ = surject(gate, d)
            residuals = [contains(gate, pt) for pt in p]
            assert max(residuals) <= 1e-9


class TestSurject:
    @pytest.mark.parametrize("gate", [
        BallGate(center=[0.2, -0.1, 0.3], radius=0.8),
        unit_square_gate(z=0.1),
        tetra_gate(scale=0.9),
    ], ids=["ball", "polygon", "polyhedron"])
    def test_matches_decode_bitwise(self, gate):
        """surject is decode's own map: each row of a batch maps to the
        bytes that decode gives for that row on a one-gate sequence."""
        rng = np.random.default_rng(6)
        d = rng.normal(scale=2.0, size=(16, gate.param_dim))
        d[0] = 0.0  # the polytope map's d = 0 convention
        points, jacs = surject(gate, d)
        seq = GateSequence(gates=(gate,))
        for row, p, jac in zip(d, points, jacs):
            waypoints, _, (want,), _ = decode(seq, DecisionVector(D=row, K=np.zeros(2)))
            assert p.tobytes() == waypoints[0].tobytes()
            assert jac.tobytes() == want[0].tobytes()

    def test_rejects_other_shapes(self):
        for d in (np.zeros(4), np.zeros((2, 3)), np.zeros((1, 1, 4))):
            with pytest.raises(ValidationError, match=r"gate parameters must be \(N, 4\)"):
                surject(unit_square_gate(), d)


class TestJacobians:
    @staticmethod
    def _check_fd(gate, d, step=1e-6, rtol=1e-6):
        jac = surject(gate, d[None])[1][0]
        fd = np.empty_like(jac)
        for k in range(len(d)):
            dp = d.copy()
            dm = d.copy()
            dp[k] += step
            dm[k] -= step
            fd[:, k] = (surject(gate, dp[None])[0][0]
                        - surject(gate, dm[None])[0][0]) / (2 * step)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(jac - fd)) / scale < rtol

    def test_ball_jacobian(self):
        gate = BallGate(center=[0, 1, 0], radius=0.9)
        rng = np.random.default_rng(2)
        for _ in range(20):
            self._check_fd(gate, rng.normal(size=4))

    def test_polytope_jacobian(self):
        rng = np.random.default_rng(3)
        for gate in (unit_square_gate(), tetra_gate()):
            for _ in range(20):
                d = rng.normal(size=gate.param_dim)
                if np.linalg.norm(d) < 0.3:  # stay away from the d=0 convention
                    d += 1.0
                self._check_fd(gate, d)

    def test_time_map_derivative(self):
        ks = np.linspace(-6, 6, 41)
        step = 1e-6
        _, dt = time_map(ks)
        fd = (time_map(ks + step)[0] - time_map(ks - step)[0]) / (2 * step)
        assert np.allclose(dt, fd, rtol=1e-6, atol=1e-8)


class TestTimeMap:
    def test_reference_values(self):
        assert time_map(0.0)[0] == pytest.approx(1.0)
        assert time_map(2.0)[0] == pytest.approx(5.0)
        assert time_map(-2.0)[0] == pytest.approx(0.2)

    def test_positive_and_increasing(self):
        ks = np.linspace(-10, 10, 2001)
        t, _ = time_map(ks)
        assert np.all(t > 0)
        assert np.all(np.diff(t) > 0)

    def test_c2_at_branch_point(self):
        # Value, slope and curvature agree across K = 0.
        h = 1e-4
        t_m, d_m = time_map(-h)
        t_p, d_p = time_map(h)
        assert t_p - t_m == pytest.approx(2 * h, rel=1e-6)
        assert d_p - d_m == pytest.approx(2 * h, rel=1e-3)  # T'' = 1 both sides

    def test_inverse_round_trip(self):
        ks = np.linspace(-8, 8, 101)
        t, _ = time_map(ks)
        assert np.allclose(time_map_inverse(t), ks, atol=1e-9)

    def test_saturation_warns_nothing(self):
        """Far past either end, the map saturates at +inf and 0 s and its
        inverse at -inf and +inf, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, _ = time_map(np.array([1e200, -1e200, np.inf, -np.inf]))
            k = time_map_inverse(np.array([5e-324, 1e308, np.inf]))
        assert t.tolist() == [np.inf, 0.0, np.inf, 0.0]
        assert k.tolist() == [-np.inf, np.inf, np.inf]


class TestDecode:
    def test_zero_decision_vector(self):
        seq = mixed_sequence(3)
        dec = DecisionVector(D=np.zeros(seq.offsets[-1][1]), K=np.zeros(len(seq) + 1))
        waypoints, durations, _, _ = decode(seq, dec)
        for i, gate in enumerate(seq.gates):
            assert np.allclose(waypoints[i], gate_center(gate))
        assert np.allclose(durations, 1.0)

    def test_shapes_single_gate(self):
        seq = GateSequence(gates=(BallGate(center=[0, 0, 0], radius=1.0),))
        dec = DecisionVector.for_sequence(seq)
        waypoints, durations, jacs, dt_dk = decode(seq, dec)
        assert waypoints.shape == (1, 3)
        assert durations.shape == (2,)
        assert len(jacs) == 1 and jacs[0].shape == (1, 3, 4)

    def test_random_decisions_stay_contained(self):
        seq = mixed_sequence(5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            dec = DecisionVector.for_sequence(seq)
            dec.D = rng.normal(scale=2.0, size=dec.D.shape)
            dec.K = rng.normal(size=dec.K.shape)
            waypoints, durations, _, _ = decode(seq, dec)
            assert np.all(durations > 0)
            for i, gate in enumerate(seq.gates):
                assert contains(gate, waypoints[i]) <= 1e-9

    def test_dimension_mismatch(self):
        seq = mixed_sequence(2)
        dec = DecisionVector.for_sequence(mixed_sequence(3))
        with pytest.raises(ValidationError, match="decision vector does not match"):
            decode(seq, dec)


def reference_surject(gate, d):
    """One gate's surjection as the per-gate decode loop computed it: the
    reference the batched groups must match bit for bit."""
    d2 = np.atleast_2d(np.asarray(d, dtype=float))
    if isinstance(gate, BallGate):
        q = np.einsum("ni,ni->n", d2, d2) + 1.0
        scale = 2.0 * gate.radius / q
        p = gate.center[None, :] + scale[:, None] * d2[:, :3]
        jac = np.zeros((len(d2), 3, 4))
        jac[:, :, :3] = scale[:, None, None] * np.eye(3)[None]
        jac -= (2.0 * scale / q)[:, None, None] * np.einsum("ni,nj->nij", d2[:, :3], d2)
        return p[0], jac[0]
    v = gate.param_dim
    s = np.einsum("ni,ni->n", d2, d2)
    zero = s == 0.0
    s_safe = np.where(zero, 1.0, s)
    w = d2 * d2 / s_safe[:, None]
    w[zero] = 1.0 / v
    p = w @ gate.vertices
    dw = 2.0 * np.einsum("ni,ik->nik", d2, np.eye(v)) / s_safe[:, None, None]
    dw -= 2.0 * np.einsum("nk,ni->nik", d2, w) / s_safe[:, None, None]
    dw[zero] = 0.0
    return p[0], np.einsum("ic,nik->nck", gate.vertices, dw)[0]


def reference_decode(seq, dec):
    """Per-gate loop: waypoints (L, 3) and one (3, dim) Jacobian per gate."""
    waypoints = np.empty((len(seq), 3))
    jacs = []
    for i, gate in enumerate(seq.gates):
        lo, hi = seq.offsets[i]
        waypoints[i], jac = reference_surject(gate, dec.D[lo:hi])
        jacs.append(jac)
    return waypoints, jacs


def interleaved_sequence(seed, n=12, spacing=4.0):
    """Balls, triangles, squares, pentagons, tetrahedra and hexagonal prisms
    (3 to 12 parameters) in a seeded interleaved order along the x axis."""
    rng = np.random.default_rng(seed)
    gates = []
    for i, kind in enumerate(rng.permutation(np.arange(n) % 6)):
        c = np.array([spacing * (i + 1), 0.3 * (-1) ** i, 1.5])
        if kind == 0:
            gates.append(BallGate(center=c, radius=0.8))
        elif kind in (1, 2, 3):  # planar polygons with 3, 4, 5 vertices
            ang = 2 * np.pi * np.arange(kind + 2) / (kind + 2)
            gates.append(PolytopeGate.from_vertices(
                c + np.stack([0 * ang, np.cos(ang), np.sin(ang)], axis=1),
                planar=True))
        elif kind == 4:
            gates.append(tetra_gate(c, scale=0.9))
        else:
            ang = 2 * np.pi * np.arange(6) / 6
            ring = np.stack([0.7 * np.cos(ang), 0.7 * np.sin(ang), 0 * ang], axis=1)
            gates.append(PolytopeGate.from_vertices(
                c + np.concatenate([ring - [0, 0, 0.4], ring + [0, 0, 0.4]]),
                planar=False))
    return GateSequence(gates=tuple(gates))


class TestBatchedDecode:
    @staticmethod
    def _decision(seq, seed):
        rng = np.random.default_rng(100 + seed)
        dec = DecisionVector.for_sequence(seq)
        dec.D = rng.normal(scale=2.0, size=dec.D.shape)
        lo, hi = seq.offsets[seed % len(seq)]
        dec.D[lo:hi] = 0.0  # the d = 0 convention
        # Short durations, so the penalty is active and grad_d is nonzero.
        dec.K = rng.normal(scale=0.1, size=dec.K.shape) - 0.6
        return dec

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_gate_loop_bitwise(self, seed):
        seq = interleaved_sequence(seed)
        assert len(seq.groups) == 5  # 4-vertex polygons and tetrahedra share one
        dec = self._decision(seq, seed)
        waypoints, _, jacs, _ = decode(seq, dec)
        want_p, want_jacs = reference_decode(seq, dec)
        assert waypoints.tobytes() == want_p.tobytes()
        for (index, _, _), jac in zip(seq.groups, jacs):
            for row, i in enumerate(index):
                assert jac[row].tobytes() == want_jacs[i].tobytes(), i

    @pytest.mark.parametrize("seed", [0, 1])
    def test_objective_grad_d_matches_per_gate_assembly(self, quad_a, seed):
        seq = interleaved_sequence(seed)
        bc0, bcf = hover_pair(len(seq))
        dec = self._decision(seq, seed)
        waypoints, jacs = reference_decode(seq, dec)
        traj = construct(waypoints, time_map(dec.K)[0], bc0, bcf)
        dJ_dC, dJ_dT_direct = penalty(traj, quad_a)[1]()
        dJ_dP, _ = propagate_gradients(traj, dJ_dC, dJ_dT_direct)
        want = np.concatenate([jac.T @ dJ_dP[i] for i, jac in enumerate(jacs)])
        got = objective(dec, seq, quad_a, bc0, bcf).gradient.D
        lo, hi = seq.offsets[seed % len(seq)]  # the gate at d = 0
        assert np.all(np.delete(want, np.s_[lo:hi]) != 0)
        assert got.tobytes() == want.tobytes()


class TestShrinkMargin:
    def test_square_side_shrinks_by_margin(self):
        gate = square_gate([0, 0, 0], [1, 0, 0], side=2.4)
        small = shrink_margin(gate, 0.3)
        extents = small.vertices.max(axis=0) - small.vertices.min(axis=0)
        assert np.max(extents) == pytest.approx(2.1, abs=1e-9)

    def test_ball_degenerates_to_point(self):
        gate = BallGate(center=[0, 0, 0], radius=1.0)
        assert shrink_margin(gate, 1.0).radius == pytest.approx(0.0)

    def test_zero_margin_is_identity(self):
        gate = tetra_gate()
        assert shrink_margin(gate, 0.0) is gate

    def test_overlarge_margin_raises(self):
        with pytest.raises(ValidationError, match="margin exceeds ball radius"):
            shrink_margin(BallGate(center=[0, 0, 0], radius=0.5), 0.6)
        with pytest.raises(ValidationError, match="margin consumes the polytope gate"):
            shrink_margin(unit_square_gate(), 2.0)

    def test_polygon_center_matches_per_triangle_sums(self):
        """The polygon's area centroid, summed over its fan of triangles in
        one array reduction, equals the per-triangle running sums byte for
        byte, on ellipse polygons of 3 to 16 vertices in random planes."""
        from scipy.spatial import ConvexHull
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(8)
        ran = 0
        for k in range(280):
            v = 3 + k % 14
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, v))
            axes = rng.uniform(0.3, 3.0, 2)
            ring = np.column_stack([axes[0] * np.cos(angles),
                                    axes[1] * np.sin(angles), np.zeros(v)])
            verts = Rotation.random(random_state=k).apply(ring) + rng.normal(scale=5.0, size=3)
            try:
                gate = PolytopeGate.from_vertices(verts, planar=True)
                small = shrink_margin(gate, 0.05)
            except ValidationError:   # vertices too close for Qhull or the margin
                continue
            mean = gate.vertices.mean(axis=0)
            basis = np.linalg.svd(gate.vertices - mean)[2][:2].T
            pts2 = (gate.vertices - mean) @ basis
            order = ConvexHull(pts2).vertices
            p0 = pts2[order[0]]
            area_total, centroid2 = 0.0, np.zeros(2)
            for i in range(1, len(order) - 1):
                p1, p2 = pts2[order[i]], pts2[order[i + 1]]
                u, w = p1 - p0, p2 - p0
                area = 0.5 * (u[0] * w[1] - u[1] * w[0])
                area_total += area
                centroid2 += area * (p0 + p1 + p2) / 3.0
            center = mean + basis @ (centroid2 / area_total)
            a_mat, b_vec = gate.halfspaces
            lam = 1.0 - 0.05 / (2.0 * float(np.min(b_vec - a_mat @ center)))
            expect = center[None, :] + lam * (gate.vertices - center[None, :])
            assert small.vertices.tobytes() == expect.tobytes()
            ran += 1
        assert ran >= 270

    def test_shrunken_gate_is_subset(self):
        rng = np.random.default_rng(5)
        for gate in (unit_square_gate(), tetra_gate(),
                     BallGate(center=[1, 1, 1], radius=0.8)):
            small = shrink_margin(gate, 0.2)
            pts, _ = surject(small, rng.normal(size=(500, small.param_dim)))
            for p in pts:
                assert contains(gate, p) <= 1e-9
