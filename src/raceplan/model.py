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
        object.__setattr__(self, "inertia_diag", _vec(self.inertia_diag, 3))
        object.__setattr__(self, "omega_max", _vec(self.omega_max, 3))
        if not np.all(np.isfinite([self.mass, self.arm_length, self.torque_const,
                                   self.f_min, self.f_max, *self.inertia_diag,
                                   *self.omega_max])):
            raise ValidationError("parameters must be finite")
        if not (self.mass > 0 and self.arm_length > 0 and self.torque_const > 0):
            raise ValidationError("mass, arm length and torque constant must be positive")
        if not np.all(self.inertia_diag > 0):
            raise ValidationError("inertia entries must be positive")
        if not (0 <= self.f_min < self.f_max):
            raise ValidationError("need 0 <= f_min < f_max")
        if not np.all(self.omega_max > 0):
            raise ValidationError("omega_max must be positive componentwise")
        if not 4.0 * self.f_max > self.mass * np.linalg.norm(GRAVITY):
            raise ValidationError("hover infeasible: 4*f_max <= m*g")
        # Read-only, (collective thrust, body torque) -> rotor thrusts.  Arm
        # lengths or torque constants near 0 or 1e308 leave it non-finite.
        try:
            inverse = np.linalg.inv(_flatjet.mixer_matrix(self))
        except np.linalg.LinAlgError:
            inverse = np.full((4, 4), np.nan)
        if not np.all(np.isfinite(inverse)):
            raise ValidationError("arm length and torque constant give no finite mixer")
        object.__setattr__(self, "mixer_inverse", _vec(inverse, (4, 4)))
        # Read-only constants of every flatness pass and limit_residuals call.
        object.__setattr__(self, "inertia_column", _vec(self.inertia_diag, (3, 1)))
        rate_max = np.repeat(self.omega_max, 2)
        object.__setattr__(self, "limit_offset", _vec(
            np.concatenate([[self.f_min, -self.f_max] * 4, -rate_max]), 14))
        object.__setattr__(self, "limit_scale", _vec(
            np.concatenate([[self.f_max - self.f_min] * 8, rate_max]), 14))

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


LIMIT_SIGN = freeze(np.array([-1.0, 1.0] * 4 + [1.0, -1.0] * 3))  # sign of each column


def limit_residuals(out: _flatjet.FlatOutputs, params: QuadParams, rows=slice(None)):
    """The 14 raw limit residuals per sample, all <= 0 iff thrust and
    body-rate limits are met, with the per-column sign and scale; of the
    samples ``rows``, every sample by default.

    Layout: [f_min - f_i, f_i - f_max] for each rotor, then
    [w_j - w_max_j, -w_j - w_max_j] per axis.  Column c is
    sign_c * x_c + offset_c, where x lists each rotor thrust and each body
    rate twice, so the residuals' cotangent maps back onto the 4 rotors and
    3 body rates by multiplying with sign and summing column pairs.  Returns
    (N, 14), (14,) and (14,); scale_c is that limit's range.
    """
    res = np.repeat(np.hstack([out.rotor[rows], out.omega[rows]]), 2, axis=1)
    res *= LIMIT_SIGN
    res += params.limit_offset
    return res, LIMIT_SIGN, params.limit_scale


def limit_screen(out: _flatjet.FlatOutputs, params: QuadParams):
    """Indices of the samples with one of the 7 outputs outside its bounds,
    NaN included.  These hold every row of limit_residuals(out, params) with
    a residual over its scale not <= 0, and any whose positive residual
    underflows to 0 over its scale, whose hinge is an exact zero."""
    inside = (params.f_min <= out.rotor) & (out.rotor <= params.f_max)
    rates = (-params.omega_max <= out.omega) & (out.omega <= params.omega_max)
    return np.flatnonzero(~(inside.all(axis=1) & rates.all(axis=1)))
