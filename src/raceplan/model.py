"""Quadrotor parameters, rigid-body dynamics and the limit residuals of
the batched flatness map in :mod:`raceplan._flatjet`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from . import _flatjet
from ._flatjet import GRAVITY
from ._frozen import Frozen, freeze
from .errors import ValidationError
from .gates import WORKSPACE, require_number


def _vec(x, n):
    return freeze(np.asarray(x, dtype=float).reshape(n))


@dataclass(frozen=True)
class QuadParams(Frozen):
    """Physical quadrotor parameters.  Inertia is in kg*m^2."""

    mass: float
    arm_length: float
    inertia_diag: np.ndarray
    torque_const: float
    f_min: float
    f_max: float
    omega_max: np.ndarray

    def __post_init__(self):
        low = 1 / WORKSPACE
        for name in ("mass", "arm_length", "torque_const", "f_max"):
            require_number(getattr(self, name), name, low)
        for name in ("inertia_diag", "omega_max"):
            object.__setattr__(self, name, _vec(require_number(
                getattr(self, name), name, low, shape=(3,)), 3))
        require_number(self.f_min, "f_min", 0, self.f_max, "[)")
        if not 4.0 * self.f_max > self.mass * np.linalg.norm(GRAVITY):
            raise ValidationError("hover infeasible: 4*f_max <= m*g")
        # Read-only, (collective thrust, body torque) -> rotor thrusts.  The
        # mixer's rows are orthogonal, of norms 2, 2l, 2l and 2c, so with l
        # and c in range its inverse exists and is finite.
        object.__setattr__(self, "mixer_inverse",
                           _vec(np.linalg.inv(_flatjet.mixer_matrix(self)), (4, 4)))
        # Read-only constants of every flatness pass and limit_residuals call.
        object.__setattr__(self, "inertia_column", _vec(self.inertia_diag, (3, 1)))
        for name, rotor, rate in (("lower", self.f_min, -self.omega_max),
                                  ("upper", self.f_max, self.omega_max),
                                  ("scale", self.f_max - self.f_min, self.omega_max)):
            object.__setattr__(self, name, _vec(np.r_[[rotor] * 4, rate], 7))

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


def dynamics(x: np.ndarray, f: np.ndarray, params: QuadParams) -> np.ndarray:
    """Rigid-body dynamics, row by row: the derivatives (N, 13) of the states
    x (N, 13) = (position, world<-body unit quaternion (w, x, y, z),
    velocity, body rates) under the rotor thrusts f (N, 4)."""
    x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
    if x.ndim != 2 or x.shape[1] != 13 or f.shape != (len(x), 4):
        raise ValidationError("dynamics takes states (N, 13) and thrusts (N, 4)")
    # Products summed per row, not matmul: a row rounds as it would alone.
    wrench = (f[:, None, :] * _flatjet.mixer_matrix(params)).sum(axis=-1)
    thrust, torque = wrench[:, :1], wrench[:, 1:]
    q, velocity, omega = x[:, 3:7], x[:, 7:10], x[:, 10:13]
    # q_dot = q * (0, omega) / 2 = (-v . omega, w omega + v x omega) / 2.
    w, v = q[:, :1], q[:, 1:]
    q_dot = 0.5 * np.column_stack([-(v * omega).sum(1), w * omega + np.cross(v, omega)])
    # Thrust acts along body z; scipy's quaternions are scalar-last.
    body_z = Rotation.from_quat(q[:, [1, 2, 3, 0]]).as_matrix()[:, :, 2]
    v_dot = GRAVITY + body_z * (thrust / params.mass)
    inertia = params.inertia_diag
    w_dot = (torque - np.cross(omega, inertia * omega)) / inertia
    return np.hstack([velocity, q_dot, v_dot, w_dot])


def limit_residuals(rotor, omega, params: QuadParams):
    """The 7 limit residuals per sample, all <= 0 iff thrust and body-rate
    limits are met, with their signs and scales.

    Of rotor thrusts (N, 4) and body rates (N, 3), in that column order,
    each residual is max(lower - x, x - upper): |w| - w_max bit for bit on
    a rate.  Its derivative in x is the sign, -1.0 where x < lower and +1.0
    elsewhere, NaN included, so an inactive column's cotangent is +0.0.
    Returns (N, 7), (N, 7) and the (7,) scales, each limit's range.
    """
    x = np.hstack([rotor, omega])
    res = params.lower - x
    np.maximum(res, x - params.upper, out=res)
    return res, np.where(x < params.lower, -1.0, 1.0), params.scale

