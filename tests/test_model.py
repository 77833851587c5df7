"""Tests for quadrotor dynamics, the mixer and the flatness maps."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from raceplan import _flatjet, cost
from raceplan._flatjet import GRAVITY, KEPT_ROWS, flat_outputs, mixer_matrix
from raceplan.errors import RaceplanError, ValidationError
from raceplan.model import QuadParams, dynamics, limit_residuals
from raceplan.optimizer import _sample_trajectory, solve
from raceplan.spline import BoundaryCondition, construct
from raceplan.trackio import build_sequence
from raceplan.tracks import loop_track

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def _smooth_sample(rng, accel_scale=3.0):
    """Random (5, 3) flat sample with a clearly non-singular thrust
    direction."""
    d = np.zeros((5, 3))
    d[0] = rng.normal(size=3)
    d[1] = rng.normal(size=3)
    d[2] = rng.normal(scale=accel_scale, size=3)
    d[3] = rng.normal(scale=accel_scale, size=3)
    d[4] = rng.normal(scale=accel_scale, size=3)
    return d


def _rest(position):
    """(1, 5, 3) derivatives of a vehicle at rest at ``position``."""
    d = np.zeros((1, 5, 3))
    d[0, 0] = position
    return d


def _state(position, velocity=(0.0, 0.0, 0.0), attitude=IDENTITY_Q,
           body_rate=(0.0, 0.0, 0.0)):
    return np.concatenate([position, attitude, velocity, body_rate])


def _limit_residuals(derivs, params):
    """(N, 7) limit residuals of (N, 5, 3) derivatives."""
    out = flat_outputs(derivs[:, 2:], params)
    return limit_residuals(out.rotor, out.omega, params)[0]


class TestQuadParams:
    def test_table_presets(self):
        qa = QuadParams.quad_a()
        assert qa.mass == 0.85
        assert np.allclose(qa.inertia_diag, [1e-3, 1e-3, 1.7e-3])
        qb = QuadParams.quad_b()
        assert qb.f_max == 6.375
        assert np.allclose(qb.omega_max, [8.0, 8.0, 3.0])

    @pytest.mark.parametrize("bad", [
        dict(mass=-1.0),
        dict(arm_length=0.0),
        dict(inertia_diag=[1e-3, -1e-3, 1e-3]),
        dict(torque_const=0.0),
        dict(f_min=-0.1),
        dict(f_min=7.0),           # f_min >= f_max
        dict(omega_max=[1.0, 0.0, 1.0]),
        dict(mass=5.0),            # hover infeasible with quad_a thrust
        dict(mass=float("nan")),
        dict(f_max=float("inf")),
        dict(arm_length=float("inf")),
        dict(inertia_diag=[1e-3, float("nan"), 1.7e-3]),
        dict(omega_max=[15.0, 15.0, float("inf")]),
        # The mixer is singular in floating point, or its inverse overflows.
        dict(arm_length=5e-324, torque_const=5e-324),
        dict(arm_length=1e308, torque_const=1e308),
    ])
    def test_invalid_params_rejected(self, bad):
        base = dict(
            mass=0.85, arm_length=0.15, inertia_diag=[1e-3, 1e-3, 1.7e-3],
            torque_const=0.05, f_min=0.0, f_max=6.88,
            omega_max=[15.0, 15.0, 3.0],
        )
        base.update(bad)
        with pytest.raises(ValueError):
            QuadParams(**base)


class TestDynamics:
    """``dynamics`` on a batch of states (N, 13) and rotor thrusts (N, 4):
    hover, equal thrusts of 0.5, 2 and 6 N, and free fall, as rows of one
    call."""

    @pytest.fixture
    def batch(self, quad_a):
        f_hover = quad_a.mass * 9.81 / 4.0
        x = np.array([_state([0, 0, 1]), _state([0, 0, 0]), _state([0, 0, 0]),
                      _state([0, 0, 0]), _state([0, 0, 10], velocity=[1, 2, 3])])
        f = np.repeat([[f_hover], [0.5], [2.0], [6.0], [0.0]], 4, axis=1)
        return x, f, dynamics(x, f, quad_a)

    def test_hover_equilibrium(self, batch):
        assert np.allclose(batch[2][0], 0.0, atol=1e-12)

    def test_equal_thrusts_give_zero_torque(self, batch):
        assert np.allclose(batch[2][1:4, 10:13], 0.0, atol=1e-12)

    def test_free_fall(self, batch):
        xdot = batch[2][4]
        assert np.allclose(xdot[7:10], [0, 0, -9.81])
        assert np.allclose(xdot[0:3], [1, 2, 3])

    def test_rows_are_computed_alone(self, quad_a):
        """Row i of a batch is the one-row call on row i, byte for byte,
        whatever the rows around it."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 13))
        x[:, 3:7] /= np.linalg.norm(x[:, 3:7], axis=1, keepdims=True)
        f = rng.uniform(0.0, quad_a.f_max, size=(200, 4))
        xdot = dynamics(x, f, quad_a)
        assert xdot.shape == (200, 13)
        for i in range(len(x)):
            assert dynamics(x[i:i + 1], f[i:i + 1], quad_a).tobytes() \
                == xdot[i].tobytes()
        assert dynamics(x[::-1], f[::-1], quad_a)[::-1].tobytes() == xdot.tobytes()

    @pytest.mark.parametrize("x_shape, f_shape", [
        ((13,), (4,)),           # one sample, unbatched
        ((1, 13), (4,)),
        ((13,), (1, 4)),
        ((2, 13), (3, 4)),       # row counts differ
        ((2, 12), (2, 4)),
        ((2, 13), (2, 5)),
        ((1, 2, 13), (1, 2, 4)),
    ])
    def test_other_shapes_are_refused(self, quad_a, x_shape, f_shape):
        with pytest.raises(ValidationError, match=r"dynamics takes states \(N, 13\)"):
            dynamics(np.zeros(x_shape), np.zeros(f_shape), quad_a)


class TestMixer:
    """``mixer_matrix`` maps rotor thrusts to (collective thrust, body
    torque); solving with it inverts the map."""

    def test_symmetric_hover(self, quad_a):
        wrench = mixer_matrix(quad_a) @ np.ones(4)
        assert wrench[0] == pytest.approx(4.0)
        assert np.allclose(wrench[1:], 0.0)

    def test_roll_pair(self, quad_a):
        torque = (mixer_matrix(quad_a) @ np.array([1.0, 1, 0, 0]))[1:]
        assert torque[0] == pytest.approx(0.3)

    def test_yaw_pair(self, quad_a):
        torque = (mixer_matrix(quad_a) @ np.array([1.0, 0, 1, 0]))[1:]
        assert torque[2] == pytest.approx(0.1)

    def test_inverse_hover(self, quad_a):
        m = mixer_matrix(quad_a)
        assert np.allclose(np.linalg.solve(m, [4.0, 0, 0, 0]), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.solve(m, [0.85 * 9.81, 0, 0, 0]),
                           2.0846250, atol=1e-6)

    def test_round_trip(self, quad_a):
        m = mixer_matrix(quad_a)
        rng = np.random.default_rng(0)
        for _ in range(100):
            thrust = rng.uniform(0.1, 25.0)
            torque = rng.normal(scale=0.5, size=3)
            back = m @ np.linalg.solve(m, np.concatenate([[thrust], torque]))
            assert back[0] == pytest.approx(thrust, rel=1e-12)
            assert np.allclose(back[1:], torque, rtol=1e-12, atol=1e-14)

    @given(f=arrays(np.float64, 4, elements=st.floats(0.0, 10.0)))
    @settings(max_examples=50, deadline=None)
    def test_forward_then_inverse(self, f):
        m = mixer_matrix(QuadParams.quad_a())
        back = np.linalg.solve(m, m @ f)
        assert np.allclose(back, f, atol=1e-10)


class TestFlatToState:
    """Attitude and body rates from ``flat_outputs``."""

    def test_rest_sample(self, quad_a):
        out = flat_outputs(_rest([1.0, 2.0, 3.0])[:, 2:], quad_a)
        assert not out.singular[0]
        assert np.allclose(Rotation.from_matrix(out.rotation[0]).as_quat(),
                           [0.0, 0.0, 0.0, 1.0], atol=1e-12)   # (x, y, z, w)
        assert np.allclose(out.omega[0], 0.0, atol=1e-12)

    def test_body_z_parallel_to_thrust(self, quad_a):
        rng = np.random.default_rng(7)
        derivs = np.array([_smooth_sample(rng) for _ in range(50)])
        quats = Rotation.from_matrix(flat_outputs(derivs[:, 2:], quad_a).rotation)
        for d, rot in zip(derivs, quats.as_matrix()):
            thrust_dir = d[2] - GRAVITY
            thrust_dir /= np.linalg.norm(thrust_dir)
            assert np.allclose(rot[:, 2], thrust_dir, atol=1e-10)

    def test_body_rates_match_attitude_derivative(self, quad_a):
        """omega from the flat map equals the finite-difference rate of the
        attitude along a smooth analytic flat trajectory."""
        from numpy.polynomial import polynomial as poly

        rng = np.random.default_rng(3)
        coef = rng.normal(scale=0.4, size=(6, 3))  # quintic flat trajectory

        def samples_at(times):
            d = np.zeros((len(times), 5, 3))
            for dim in range(3):
                for order in range(5):
                    d[:, order, dim] = poly.polyval(
                        times, poly.polyder(coef[:, dim], order))
            return d

        h = 1e-5
        for t in (0.2, 0.5, 0.9):
            out = flat_outputs(samples_at(np.array([t - h, t, t + h]))[:, 2:], quad_a)
            r_minus, rot, r_plus = Rotation.from_matrix(out.rotation).as_matrix()
            omega_hat = rot.T @ (r_plus - r_minus) / (2 * h)  # skew(omega)
            omega_fd = np.array([omega_hat[2, 1], omega_hat[0, 2], omega_hat[1, 0]])
            assert np.allclose(out.omega[1], omega_fd, atol=1e-4)

    def test_free_fall_is_singular(self, quad_a):
        derivs = np.concatenate([_rest([0.0, 0.0, 0.0])] * 2)
        derivs[0, 2] = GRAVITY  # free fall: thrust direction undefined
        assert flat_outputs(derivs[:, 2:], quad_a).singular.tolist() == [True, False]


class TestFlatToControl:
    """Rotor thrusts from ``flat_outputs``."""

    def test_hover_thrusts(self, quad_a):
        rotor = flat_outputs(_rest([0, 0, 1])[:, 2:], quad_a).rotor[0]
        assert np.allclose(rotor, 2.0846250, atol=1e-5)

    def test_vertical_acceleration(self, quad_a):
        d = np.zeros((1, 5, 3))
        d[0, 2, 2] = 1.0
        rotor = flat_outputs(d[:, 2:], quad_a).rotor[0]
        assert np.allclose(rotor, 0.85 * 10.81 / 4.0, atol=1e-5)

    def test_quaternion_norm_preserved(self, quad_a):
        rng = np.random.default_rng(11)
        derivs = np.array([_smooth_sample(rng) for _ in range(20)])
        quats = Rotation.from_matrix(flat_outputs(derivs[:, 2:], quad_a).rotation).as_quat()
        assert np.all(np.abs(np.linalg.norm(quats, axis=1) - 1.0) < 1e-9)


class TestExportAttitude:
    """The export's attitude columns: scipy's quaternions of the flatness
    map's rotations, as (w, x, y, z) with w >= 0."""

    def test_loop_export_quaternions(self):
        track = loop_track()
        result = solve(build_sequence(track, mode="togt"), track.quad,
                       BoundaryCondition.hover(track.start),
                       BoundaryCondition.hover(track.finish))
        q = result.states[:, 3:7]
        assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)) <= 1e-15
        assert np.all(q[:, 0] >= 0)
        derivs = result.spline.eval_batch(result.sample_times, max_order=4)
        rotations = Rotation.from_quat(q[:, [1, 2, 3, 0]]).as_matrix()
        np.testing.assert_allclose(
            rotations, flat_outputs(derivs[:, 2:], track.quad).rotation, rtol=0, atol=1e-15)
        thrust = derivs[:, 2] - GRAVITY
        thrust /= np.linalg.norm(thrust, axis=1, keepdims=True)
        np.testing.assert_allclose(rotations[:, :, 2], thrust, rtol=0, atol=1e-15)

    def test_free_fall_sample_has_no_attitude(self, quad_a):
        """A spline that starts in free fall, its acceleration equal to
        gravity, has no thrust direction at t = 0: the export refuses it."""
        bc0 = BoundaryCondition(np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0],
                                          GRAVITY]))
        traj = construct(np.array([[1.0, 0.0, 4.0]]), [1.0, 1.0], bc0,
                         BoundaryCondition.hover([2.0, 0.0, 4.0]))
        with pytest.raises(RaceplanError, match=r"undefined at t = 0 s"):
            _sample_trajectory(traj, quad_a, 0.01)


class TestConstraintResiduals:
    """The 7 two-sided limit residuals of ``limit_residuals``."""

    def test_hover_strictly_feasible(self, quad_a):
        res = _limit_residuals(_rest([0, 0, 1]), quad_a)
        assert res.shape == (1, 7)
        assert np.all(res < 0)

    def test_excess_collective_thrust_violates(self, quad_a):
        d = np.zeros((1, 5, 3))
        d[0, 2, 2] = 4 * quad_a.f_max / quad_a.mass  # F = m*(a+g) > 4 f_max
        res = _limit_residuals(d, quad_a)[0]
        assert np.max(res[:4]) > 0

    def test_boundary_thrust_residual_is_zero(self, quad_a):
        # Vertical acceleration chosen so each rotor sits exactly at f_max.
        a_z = 4 * quad_a.f_max / quad_a.mass - 9.81
        d = np.zeros((1, 5, 3))
        d[0, 2, 2] = a_z
        res = _limit_residuals(d, quad_a)[0]
        assert np.max(np.abs(res[:4])) < 1e-10

    def test_continuity_probe(self, quad_a):
        """Residuals change smoothly along a line in sample space."""
        rng = np.random.default_rng(4)
        base = _smooth_sample(rng)
        direction = rng.normal(size=base.shape)
        thetas = np.linspace(0.0, 1e-3, 11)
        values = _limit_residuals(base + thetas[:, None, None] * direction,
                                  quad_a)
        steps = np.abs(np.diff(values, axis=0))
        assert np.max(steps) < 1e-2  # no jumps at this probe resolution

    @pytest.mark.parametrize("f_min", [0.0, 0.5])
    def test_columns_match_the_one_sided_rules(self, quad_a, f_min):
        """Each rotor's residual is max(f_min - f, f - f_max) and each rate's
        |w| - w_max, bit for bit, at each bound, one ulp either side of it,
        at +-0, +-inf and NaN.  The sign is -1.0 exactly where the output is
        below its lower bound, so every inactive column has sign +1.0 and its
        cotangent, 0 times the sign, is +0.0; the scale is each range."""
        params = replace(quad_a, f_min=f_min)
        special = np.array([[0.0], [-0.0], [np.inf], [-np.inf], [np.nan]])
        f = np.array([params.f_min, params.f_max])
        f = np.r_[f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf)]
        rotor = np.tile(np.r_[f[:, None], special], 4)
        w = params.omega_max
        w = np.array([w, np.nextafter(w, 0.0), np.nextafter(w, np.inf)])
        omega = np.vstack([w, -w, np.tile(special, 3)])
        res, sign, scale = limit_residuals(rotor, omega, params)
        assert res.shape == sign.shape == (11, 7)
        want = np.hstack([np.maximum(params.f_min - rotor, rotor - params.f_max),
                          np.abs(omega) - params.omega_max])
        assert res.tobytes() == want.tobytes()
        below = np.hstack([rotor < params.f_min, omega < -params.omega_max])
        assert np.array_equal(sign, np.where(below, -1.0, 1.0))
        assert np.isnan(res[-1]).all() and (sign[-1] == 1.0).all()
        inactive = np.square(np.maximum(res / scale, 0.0)) * sign
        assert not np.signbit(inactive[res <= 0.0]).any()
        assert np.array_equal(scale, np.r_[[params.f_max - params.f_min] * 4,
                                           params.omega_max])

    @staticmethod
    def _penalty_rows(monkeypatch, rotor, omega, params):
        """The rows that ``cost.penalty`` takes as its working set from the
        flatness outputs rotor (N, 4) and omega (N, 3): the samples whose
        kept columns its gradient's VJP receives."""
        n = len(rotor)
        out = SimpleNamespace(rotor=rotor, omega=omega, singular=np.zeros(n, bool),
                              kept=np.tile(np.arange(n, dtype=float), (KEPT_ROWS, 1)))
        got = []

        def vjp(kept, params, rotor_bar, omega_bar):
            got.append(kept[0].astype(np.intp))
            return np.zeros((len(rotor_bar), 9))

        monkeypatch.setattr(_flatjet, "flat_outputs", lambda inputs, params: out)
        monkeypatch.setattr(_flatjet, "vjp", vjp)
        traj = construct(np.array([[0.5, 0.0, 1.0]]), [1.0, 1.0],
                         BoundaryCondition.hover([0.0, 0.0, 1.0]),
                         BoundaryCondition.hover([1.0, 0.0, 1.0]))
        cost.penalty(traj, params, np.array([n // 2 - 1, n - n // 2 - 1]))[1]()
        (rows,) = got
        return rows

    @pytest.mark.parametrize("f_min", [0.0, 0.5])
    def test_residual_rule_picks_the_rows_of_the_nonzero_hinge(
            self, quad_a, f_min, monkeypatch):
        """The penalty's working set, the rows where one of the 7 residuals
        is not <= 0, is the rows with an output outside its bounds, NaN
        included, for each rotor and each rate axis at each bound: exactly
        at it, one ulp inside and past it, subnormal steps past it, where the
        residual divides to 0 or not, and at +-inf and NaN.  It holds every
        row where the hinge, max(residual / scale, 0), has a nonzero entry;
        the rest are exactly the rows whose positive residual divides to 0,
        whose hinge is all zeros, and these occur only at a bound of 0.
        limit_residuals of the rows gives their rows of every sample's
        residuals."""
        params = replace(quad_a, f_min=f_min)
        low = np.r_[[params.f_min] * 4, -params.omega_max]
        high = np.r_[[params.f_max] * 4, params.omega_max]
        values = []
        for k in range(7):
            for bound, out in ((low[k], -np.inf), (high[k], np.inf)):
                values += [(k, bound), (k, np.nextafter(bound, out)),
                           (k, np.nextafter(bound, -out))]
                values += [(k, bound + np.sign(out) * 5e-324 * m)
                           for m in (1, 2, 8, 9, 30)]
            values += [(k, np.inf), (k, -np.inf), (k, np.nan)]
        x = np.tile(0.5 * (low + high), (len(values), 1))
        for row, (k, v) in enumerate(values):
            x[row, k] = v
        rotor, omega = x[:, :4], x[:, 4:]
        res, _, scale = limit_residuals(rotor, omega, params)
        hinge = np.maximum(res / scale, 0.0)
        rows = self._penalty_rows(monkeypatch, rotor, omega, params)
        outside = np.flatnonzero(~((low <= x) & (x <= high)).all(axis=1))
        assert 0 < len(rows) < len(values)
        assert rows.tobytes() == outside.tobytes()
        nonzero = np.flatnonzero(hinge.any(axis=1))
        underflow = np.flatnonzero(((res > 0.0) & (res / scale == 0.0)).any(axis=1)
                                   & ~hinge.any(axis=1))
        assert np.isin(nonzero, rows).all()
        assert np.array_equal(np.setdiff1d(rows, nonzero), underflow)
        # Only a bound of 0 has subnormal steps past it that divide to 0.
        assert (len(underflow) > 0) == (f_min == 0.0)
        active = limit_residuals(rotor[rows], omega[rows], params)[0]
        assert active.tobytes() == res[rows].tobytes()


class TestFlatnessDynamicsConsistency:
    def test_open_loop_rk4_tracks_flat_trajectory(self, quad_a):
        from conftest import rk4_rollout

        bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
        bcf = BoundaryCondition.hover([3.0, 1.0, 2.0])
        waypoints = np.array([[1.5, 1.2, 1.3]])
        traj = construct(waypoints, [1.3, 1.4], bc0, bcf)
        positions, reference = rk4_rollout(traj, quad_a, starts=[0.4],
                                           duration=0.5)
        err = np.linalg.norm(positions - reference, axis=-1)
        assert np.max(err) < 1e-3
