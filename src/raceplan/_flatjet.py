"""Vectorized flatness pipeline with an optional reverse-mode (adjoint) pass.

Maps batches of flat-output derivatives (position orders 2..4 and yaw
orders 0..2) to collective thrust, body rates, body-rate derivatives and
per-rotor thrusts.  In gradient mode the value pass keeps its intermediates
and the result carries a vector-Jacobian product: given cotangents on the
rotor thrusts and body rates it runs the chain rule backwards over those
intermediates and returns the cotangent on the 12 flat inputs, so downstream
penalty gradients are analytic rather than finite-differenced.  This is the
forward/backward split of the flatness map in GCOPTER (Wang et al., IEEE
T-RO 2022); the value pass is identical with and without it.

Input ordering of the 12 input columns:
    0:3  acceleration, 3:6 jerk, 6:9 snap, 9 yaw, 10 yaw rate, 11 yaw accel
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Below this thrust magnitude / axis-cross magnitude the map is singular.
EPS_SING = 1e-6


@dataclass
class FlatOutputs:
    """Batched outputs of the flatness pipeline.

    ``singular`` marks samples where the map is undefined; their numeric
    outputs are garbage and must be discarded by the caller.  ``vjp`` is None
    in value-only mode; otherwise ``vjp(rotor_bar (N, 4), omega_bar (N, 3))``
    returns the (N, 12) cotangent on the flat inputs.
    """

    thrust: np.ndarray          # (N,) collective thrust, N
    rotor: np.ndarray           # (N, 4) per-rotor thrusts, N
    omega: np.ndarray           # (N, 3) body rates, rad/s
    omega_dot: np.ndarray       # (N, 3) body-rate derivatives
    rotation: np.ndarray        # (N, 3, 3) world<-body
    singular: np.ndarray        # (N,) bool
    vjp: Callable | None = None


def mixer_matrix(params) -> np.ndarray:
    """Map from per-rotor thrusts to (collective thrust, body torque)."""
    l, c = params.arm_length, params.torque_const
    return np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [l, l, -l, -l],
            [-l, l, l, -l],
            [c, -c, c, -c],
        ]
    )


def _dot(a, b):
    return np.einsum("ni,ni->n", a, b)


def flat_outputs(derivs: np.ndarray, params, want_grad: bool = False) -> FlatOutputs:
    """Run the flatness pipeline on a batch of samples.

    derivs: (N, K, 4) flat-output derivatives, orders 0..K-1 (K >= 5), for
    dims (x, y, z, yaw).
    """
    derivs = np.asarray(derivs, dtype=float)
    n = derivs.shape[0]

    # Contiguous copies: einsum may round differently on strided views.
    a = derivs[:, 2, :3].copy()
    jrk = derivs[:, 3, :3].copy()
    snp = derivs[:, 4, :3].copy()
    psi = derivs[:, 0, 3].copy()
    psid = derivs[:, 1, 3].copy()
    psidd = derivs[:, 2, 3].copy()

    # Thrust direction z = f/|f| and its first two time derivatives.
    f = a - np.asarray(params.gravity)[None, :]
    c2 = _dot(f, f)
    singular = c2 < EPS_SING**2
    # Clamp singular entries so the remaining algebra stays finite.
    c2 = np.where(singular, 1.0, c2)
    c = np.sqrt(c2)
    inv_c = 1.0 / c
    z = inv_c[:, None] * f
    thrust = c * params.mass

    cd = _dot(z, jrk)
    u = jrk - cd[:, None] * z
    zd = inv_c[:, None] * u
    cdd = _dot(zd, jrk) + _dot(z, snp)
    ud = snp - cdd[:, None] * z - cd[:, None] * zd
    q = cd * (1.0 / c2)
    zdd = inv_c[:, None] * ud - q[:, None] * u

    # Heading axes from yaw.
    cs, sn = np.cos(psi), np.sin(psi)
    zero = np.zeros(n)
    x_c = np.stack([cs, sn, zero], axis=1)
    y_c = np.stack([-sn, cs, zero], axis=1)
    x_cd = psid[:, None] * y_c
    x_cdd = psidd[:, None] * y_c - (psid * psid)[:, None] * x_c

    # Body y axis y_b = n/|n| with n = z x x_c, and its derivatives.
    nvec = np.cross(z, x_c)
    nd = np.cross(zd, x_c) + np.cross(z, x_cd)
    ndd = np.cross(zdd, x_c) + 2.0 * np.cross(zd, x_cd) + np.cross(z, x_cdd)

    nn2 = _dot(nvec, nvec)
    singular |= nn2 < EPS_SING**2
    nn2 = np.where(nn2 < EPS_SING**2, 1.0, nn2)
    inv = 1.0 / np.sqrt(nn2)
    inv3 = inv * inv * inv
    p = _dot(nvec, nd)
    invd = -p * inv3
    s1 = _dot(nd, nd) + _dot(nvec, ndd)
    invdd = -(s1 * inv3) - p * (3.0 * (inv * inv) * invd)

    y_b = inv[:, None] * nvec
    y_bd = inv[:, None] * nd + invd[:, None] * nvec
    y_bdd = inv[:, None] * ndd + 2.0 * (invd[:, None] * nd) + invdd[:, None] * nvec

    x_b = np.cross(y_b, z)
    x_bd = np.cross(y_bd, z) + np.cross(y_b, zd)

    omega = np.stack([-_dot(y_b, zd), _dot(x_b, zd), -_dot(x_b, y_bd)], axis=1)
    omega_dot = np.stack([
        -(_dot(y_bd, zd) + _dot(y_b, zdd)),
        _dot(x_bd, zd) + _dot(x_b, zdd),
        -(_dot(x_bd, y_bd) + _dot(x_b, y_bdd)),
    ], axis=1)

    inertia = np.asarray(params.inertia_diag)
    j_w = omega * inertia[None, :]
    tau = omega_dot * inertia[None, :] + np.cross(omega, j_w)

    m_inv = np.linalg.inv(mixer_matrix(params))
    wrench = np.concatenate([thrust[:, None], tau], axis=1)  # (N, 4)
    rotor = wrench @ m_inv.T

    def vjp(rotor_bar, omega_bar):
        """Cotangents on rotor thrusts and body rates -> (N, 12) on inputs.

        Each block runs one forward step backwards; ``v_bar`` is the
        cotangent of forward variable ``v``.
        """
        wrench_bar = rotor_bar @ m_inv
        c_bar = params.mass * wrench_bar[:, 0]
        tau_bar = wrench_bar[:, 1:]
        wd_bar = tau_bar * inertia[None, :]
        w_bar = (omega_bar + np.cross(j_w, tau_bar)
                 + inertia[None, :] * np.cross(tau_bar, omega))

        # omega and omega_dot as dot products of the body axes.
        wx, wy, wz = (w_bar[:, k, None] for k in range(3))
        ex, ey, ez = (wd_bar[:, k, None] for k in range(3))
        x_b_bar = wy * zd - wz * y_bd + ey * zdd - ez * y_bdd
        x_bd_bar = ey * zd - ez * y_bd
        y_bdd_bar = -ez * x_b
        zdd_bar = ey * x_b - ex * y_b
        zd_bar = wy * x_b - wx * y_b + ey * x_bd - ex * y_bd

        # x_b = y_b x z, x_bd = y_bd x z + y_b x zd.
        y_b_bar = (-wx * zd - ex * zdd + np.cross(z, x_b_bar)
                   + np.cross(zd, x_bd_bar))
        y_bd_bar = -wz * x_b - ex * zd - ez * x_bd + np.cross(z, x_bd_bar)
        z_bar = np.cross(x_b_bar, y_b) + np.cross(x_bd_bar, y_bd)
        zd_bar += np.cross(x_bd_bar, y_b)

        # y_b and its derivatives from n and the inverse norm.
        nvec_bar = (inv[:, None] * y_b_bar + invd[:, None] * y_bd_bar
                    + invdd[:, None] * y_bdd_bar)
        nd_bar = inv[:, None] * y_bd_bar + 2.0 * invd[:, None] * y_bdd_bar
        ndd_bar = inv[:, None] * y_bdd_bar
        inv_bar = _dot(nvec, y_b_bar) + _dot(nd, y_bd_bar) + _dot(ndd, y_bdd_bar)
        invd_bar = _dot(nvec, y_bd_bar) + 2.0 * _dot(nd, y_bdd_bar)
        invdd_bar = _dot(nvec, y_bdd_bar)

        s1_bar = -inv3 * invdd_bar
        inv3_bar = -s1 * invdd_bar
        p_bar = -3.0 * inv * inv * invd * invdd_bar
        inv_bar -= 6.0 * p * inv * invd * invdd_bar
        invd_bar -= 3.0 * p * inv * inv * invdd_bar
        nd_bar += 2.0 * s1_bar[:, None] * nd
        nvec_bar += s1_bar[:, None] * ndd
        ndd_bar += s1_bar[:, None] * nvec

        p_bar -= inv3 * invd_bar
        inv3_bar -= p * invd_bar
        nvec_bar += p_bar[:, None] * nd
        nd_bar += p_bar[:, None] * nvec
        inv_bar += 3.0 * inv * inv * inv3_bar
        nn2_bar = -0.5 * inv3 * inv_bar
        nvec_bar += 2.0 * nn2_bar[:, None] * nvec

        # n, nd, ndd as cross products of z's and x_c's derivatives.
        zdd_bar += np.cross(x_c, ndd_bar)
        zd_bar += 2.0 * np.cross(x_cd, ndd_bar) + np.cross(x_c, nd_bar)
        z_bar += (np.cross(x_cdd, ndd_bar) + np.cross(x_cd, nd_bar)
                  + np.cross(x_c, nvec_bar))
        x_c_bar = (np.cross(ndd_bar, zdd) + np.cross(nd_bar, zd)
                   + np.cross(nvec_bar, z))
        x_cd_bar = 2.0 * np.cross(ndd_bar, zd) + np.cross(nd_bar, z)
        x_cdd_bar = np.cross(ndd_bar, z)

        # Yaw: x_c = (cos, sin, 0), y_c = (-sin, cos, 0) = d x_c / d psi.
        psidd_bar = _dot(y_c, x_cdd_bar)
        psid_bar = _dot(y_c, x_cd_bar) - 2.0 * psid * _dot(x_c, x_cdd_bar)
        x_c_bar -= (psid * psid)[:, None] * x_cdd_bar
        y_c_bar = psid[:, None] * x_cd_bar + psidd[:, None] * x_cdd_bar
        psi_bar = _dot(x_c_bar, y_c) - _dot(y_c_bar, x_c)

        # z, zd, zdd from f, jerk and snap.
        ud_bar = inv_c[:, None] * zdd_bar
        inv_c_bar = _dot(ud, zdd_bar)
        u_bar = -q[:, None] * zdd_bar
        q_bar = -_dot(u, zdd_bar)
        cd_bar = q_bar / c2
        c2_bar = -q_bar * q / c2

        snp_bar = ud_bar.copy()
        cdd_bar = -_dot(z, ud_bar)
        z_bar -= cdd[:, None] * ud_bar
        cd_bar -= _dot(zd, ud_bar)
        zd_bar -= cd[:, None] * ud_bar

        zd_bar += cdd_bar[:, None] * jrk
        jrk_bar = cdd_bar[:, None] * zd
        z_bar += cdd_bar[:, None] * snp
        snp_bar += cdd_bar[:, None] * z

        u_bar += inv_c[:, None] * zd_bar
        inv_c_bar += _dot(u, zd_bar)
        jrk_bar += u_bar
        cd_bar -= _dot(z, u_bar)
        z_bar -= cd[:, None] * u_bar

        z_bar += cd_bar[:, None] * jrk
        jrk_bar += cd_bar[:, None] * z
        f_bar = inv_c[:, None] * z_bar
        inv_c_bar += _dot(f, z_bar)
        c_bar -= inv_c * inv_c * inv_c_bar
        c2_bar += 0.5 * inv_c * c_bar
        f_bar += 2.0 * c2_bar[:, None] * f

        return np.concatenate([
            f_bar, jrk_bar, snp_bar,
            psi_bar[:, None], psid_bar[:, None], psidd_bar[:, None],
        ], axis=1)

    return FlatOutputs(
        thrust=thrust,
        rotor=rotor,
        omega=omega,
        omega_dot=omega_dot,
        rotation=np.stack([x_b, y_b, z], axis=2),
        singular=singular,
        vjp=vjp if want_grad else None,
    )
