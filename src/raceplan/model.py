"""Quadrotor parameters, rigid-body dynamics and differential-flatness maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _flatjet
from .errors import SingularFlatness

GRAVITY = np.array([0.0, 0.0, -9.81])


def _vec(x, n):
    a = np.asarray(x, dtype=float).reshape(n)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadParams:
    """Physical quadrotor parameters.  Inertia is in kg*m^2."""

    mass: float
    arm_length: float
    inertia_diag: np.ndarray
    torque_const: float
    f_min: float
    f_max: float
    omega_max: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())

    def __post_init__(self):
        object.__setattr__(self, "inertia_diag", _vec(self.inertia_diag, 3))
        object.__setattr__(self, "omega_max", _vec(self.omega_max, 3))
        object.__setattr__(self, "gravity", _vec(self.gravity, 3))
        if self.mass <= 0 or self.arm_length <= 0 or self.torque_const <= 0:
            raise ValueError("mass, arm length and torque constant must be positive")
        if np.any(self.inertia_diag <= 0):
            raise ValueError("inertia entries must be positive")
        if not (0 <= self.f_min < self.f_max):
            raise ValueError("need 0 <= f_min < f_max")
        if np.any(self.omega_max <= 0):
            raise ValueError("omega_max must be positive componentwise")
        if 4.0 * self.f_max <= self.mass * np.linalg.norm(self.gravity):
            raise ValueError("hover infeasible: 4*f_max <= m*g")

    @classmethod
    def quad_a(cls) -> "QuadParams":
        # Inertia specified in g*m^2 by convention; converted here.
        return cls(
            mass=0.85,
            arm_length=0.15,
            inertia_diag=np.array([1.0, 1.0, 1.7]) * 1e-3,
            torque_const=0.05,
            f_min=0.0,
            f_max=6.88,
            omega_max=[15.0, 15.0, 3.0],
        )

    @classmethod
    def quad_b(cls) -> "QuadParams":
        return cls(
            mass=1.05,
            arm_length=0.125,
            inertia_diag=np.array([2.5, 2.1, 4.3]) * 1e-3,
            torque_const=0.022,
            f_min=0.0,
            f_max=6.375,
            omega_max=[8.0, 8.0, 3.0],
        )


@dataclass(frozen=True)
class QuadState:
    """Full state: position, world<-body unit quaternion (w,x,y,z), velocity,
    body rates."""

    position: np.ndarray
    attitude: np.ndarray
    velocity: np.ndarray
    body_rate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec(self.position, 3))
        object.__setattr__(self, "attitude", _vec(self.attitude, 4))
        object.__setattr__(self, "velocity", _vec(self.velocity, 3))
        object.__setattr__(self, "body_rate", _vec(self.body_rate, 3))
        if abs(np.linalg.norm(self.attitude) - 1.0) > 1e-9:
            raise ValueError("attitude quaternion must be unit norm")

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.position, self.attitude, self.velocity, self.body_rate]
        )


@dataclass(frozen=True)
class RotorThrusts:
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _vec(self.f, 4))
        if not np.all(np.isfinite(self.f)):
            raise ValueError("rotor thrusts must be finite")


@dataclass(frozen=True)
class FlatSample:
    """Flat output, the position [x, y, z], and its time derivatives at one
    instant; the heading is fixed at zero yaw.

    ``derivatives`` has shape (k, 3), rows being orders 0..k-1.  Rows above
    the stored order are treated as zero by the flat maps.
    """

    derivatives: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.derivatives, dtype=float))
        if d.shape[1] != 3:
            raise ValueError("each derivative row must be a 3-vector")
        if d.shape[0] < 5:  # pad with zeros up to snap
            d = np.vstack([d, np.zeros((5 - d.shape[0], 3))])
        d.flags.writeable = False
        object.__setattr__(self, "derivatives", d)

    @classmethod
    def rest(cls, position) -> "FlatSample":
        d = np.zeros((5, 3))
        d[0] = position
        return cls(d)


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) to unit quaternions (..., 4) as
    (w, x, y, z), w >= 0."""
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, 3, 3)
    q = np.empty((len(rows), 4))
    t = np.trace(rows, axis1=1, axis2=2)
    pos = t > 0
    rp = rows[pos]
    s = np.sqrt(t[pos] + 1.0) * 2
    q[pos, 0] = 0.25 * s
    q[pos, 1] = (rp[:, 2, 1] - rp[:, 1, 2]) / s
    q[pos, 2] = (rp[:, 0, 2] - rp[:, 2, 0]) / s
    q[pos, 3] = (rp[:, 1, 0] - rp[:, 0, 1]) / s
    # Otherwise pivot on the largest diagonal entry i, with j, k after it.
    rest = np.flatnonzero(~pos)
    rn = rows[rest]
    m = np.arange(len(rest))
    i = np.argmax(np.diagonal(rn, axis1=1, axis2=2), axis=1)
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(rn[m, i, i] - rn[m, j, j] - rn[m, k, k] + 1.0) * 2
    q[rest, 0] = (rn[m, k, j] - rn[m, j, k]) / s
    q[rest, 1 + i] = 0.25 * s
    q[rest, 1 + j] = (rn[m, j, i] + rn[m, i, j]) / s
    q[rest, 1 + k] = (rn[m, k, i] + rn[m, i, k]) / s
    q[q[:, 0] < 0] *= -1.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q.reshape(r.shape[:-2] + (4,))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def mixer_forward(u: RotorThrusts, params: QuadParams):
    """Per-rotor thrusts -> (collective thrust, body torque)."""
    w = _flatjet.mixer_matrix(params) @ u.f
    return float(w[0]), w[1:].copy()


def mixer_inverse(collective_thrust: float, torque, params: QuadParams) -> RotorThrusts:
    w = np.concatenate([[collective_thrust], np.asarray(torque, dtype=float)])
    return RotorThrusts(np.linalg.solve(_flatjet.mixer_matrix(params), w))


def dynamics(state: QuadState, u: RotorThrusts, params: QuadParams) -> np.ndarray:
    """Rigid-body dynamics; returns the 13-vector state derivative."""
    thrust, torque = mixer_forward(u, params)
    q = state.attitude
    omega = state.body_rate
    p_dot = state.velocity
    q_dot = 0.5 * quat_mul(q, np.concatenate([[0.0], omega]))
    body_force = np.array([0.0, 0.0, thrust])
    v_dot = params.gravity + quat_to_rotation(q) @ body_force / params.mass
    inertia = params.inertia_diag
    w_dot = (torque - np.cross(omega, inertia * omega)) / inertia
    return np.concatenate([p_dot, q_dot, v_dot, w_dot])


def _single_outputs(sample: FlatSample, params: QuadParams) -> _flatjet.FlatOutputs:
    out = _flatjet.flat_outputs(sample.derivatives[None, :5, :], params)
    if out.singular[0]:
        raise SingularFlatness(
            "flat sample at free-fall or gimbal-lock configuration"
        )
    return out


def flat_to_state(sample: FlatSample, params: QuadParams) -> QuadState:
    """Flat derivatives -> full state via the flatness construction."""
    out = _single_outputs(sample, params)
    return QuadState(
        position=sample.derivatives[0],
        attitude=rotation_to_quat(out.rotation[0]),
        velocity=sample.derivatives[1],
        body_rate=out.omega[0],
    )


def flat_to_control(sample: FlatSample, params: QuadParams) -> RotorThrusts:
    """Flat derivatives (up to snap) -> per-rotor thrusts."""
    out = _single_outputs(sample, params)
    return RotorThrusts(out.rotor[0])


#: Columns of each limit in the residual layout of :func:`limit_residuals`.
LIMIT_COLUMNS = {"thrust_low": slice(0, 8, 2), "thrust_high": slice(1, 8, 2),
                 "body_rate": slice(8, 14)}
LIMIT_SIGN = np.array([-1.0, 1.0] * 4 + [1.0, -1.0] * 3)  # sign of each column
LIMIT_SIGN.flags.writeable = False


def limit_residuals(out: _flatjet.FlatOutputs, params: QuadParams):
    """The 14 raw limit residuals per sample, all <= 0 iff thrust and
    body-rate limits are met, with the per-column sign and scale.

    Layout: [f_min - f_i, f_i - f_max] for each rotor, then
    [w_j - w_max_j, -w_j - w_max_j] per axis.  Column c is
    sign_c * x_c + offset_c, where x lists each rotor thrust and each body
    rate twice, so the residuals' cotangent maps back onto the 4 rotors and
    3 body rates by multiplying with sign and summing column pairs.  Returns
    (N, 14), (14,) and (14,); scale_c is that limit's range.
    """
    rate_max = np.repeat(params.omega_max, 2)
    offset = np.concatenate([[params.f_min, -params.f_max] * 4, -rate_max])
    scale = np.concatenate([[params.f_max - params.f_min] * 8, rate_max])
    res = np.repeat(np.hstack([out.rotor, out.omega]), 2, axis=1)
    res *= LIMIT_SIGN
    res += offset
    return res, LIMIT_SIGN, scale


def constraint_residuals(sample: FlatSample, params: QuadParams) -> np.ndarray:
    """The 14 limit residuals of one sample; see :func:`limit_residuals`."""
    return limit_residuals(_single_outputs(sample, params), params)[0][0]
