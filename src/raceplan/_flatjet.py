"""Vectorized flatness pipeline with its reverse-mode (adjoint) pass.

Maps batches of position derivatives (orders 2..4), at a heading fixed at
zero yaw, to body rates and, through their derivatives, per-rotor thrusts.
The value pass writes the intermediates its adjoint reads into one array,
one column per sample.  :func:`vjp` takes cotangents on the rotor thrusts and
body rates of any subset of the samples, with their columns, and runs the
chain rule backwards to the cotangent on their 9 flat inputs, so downstream
penalty gradients are analytic rather than finite-differenced.  The backward
pass drops each cotangent after its last use, so only a few of them are
alive beside the kept intermediates.  This is the forward/backward split of
the flatness map in GCOPTER (Wang et al., IEEE T-RO 2022).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Below this thrust magnitude / axis-cross magnitude the map is singular.
EPS_SING = 1e-6
#: Gravitational acceleration, m/s^2, world frame (z up).
GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.flags.writeable = False
#: The heading x_c at zero yaw, (3, 1): it broadcasts against (3, N) in
#: _cross, which keeps np.cross's arithmetic, signed zeros included.
HEADING = np.array([[1.0], [0.0], [0.0]])


#: Rows of FlatOutputs.kept, the forward values the VJP reads per sample:
#: 10 scalars, then 14 vectors of 3 rows each, in the order _views names.
KEPT_ROWS = 10 + 14 * 3


def _views(kept):
    """The rows of ``kept`` (KEPT_ROWS, N) as views: the scalars (c2, inv_c,
    cd, cdd, q, inv, invd, invdd, p, s1), each (N,), and the vectors (f,
    jrk, snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega), each
    (3, N)."""
    return kept[:10], kept[10:].reshape(14, 3, -1)


@dataclass
class FlatOutputs:
    """Batched outputs of the flatness pipeline.

    ``singular`` marks samples where the map is undefined; their numeric
    outputs are garbage and must be discarded by the caller.  ``kept`` holds
    the forward values that :func:`vjp` reads, one column per sample, so a
    caller gathers the columns of the samples it differentiates with one
    index.  ``rotation``, which no penalty reads, is built from the kept
    component-major axes when read.
    """

    rotor: np.ndarray           # (N, 4) per-rotor thrusts, N
    omega: np.ndarray           # (N, 3) body rates, rad/s
    singular: np.ndarray        # (N,) bool
    kept: np.ndarray            # (KEPT_ROWS, N) forward values for vjp
    axes: tuple                 # body x, y, z axes in world frame, each (3, N)

    @property
    def rotation(self) -> np.ndarray:
        """(N, 3, 3) world<-body."""
        return np.stack(self.axes).transpose(2, 1, 0).copy()


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
    """Per-sample dot products of (3, N) arrays, added as einsum("ni,ni->n")
    adds an (N, 3) row, bit for bit: (p0 + p2) + p1, onto +0.0."""
    return a[0] * b[0] + a[2] * b[2] + a[1] * b[1] + 0.0


def _cross(a, b):
    """Per-sample cross products of (3, N) or (3, 1) arrays, with np.cross's
    arithmetic."""
    out = np.empty((3, b.shape[1] if a.shape[1] == 1 else a.shape[1]))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _heading_crosses(z, zd, zdd):
    """(nvec, nd, ndd): z, zd and zdd, each (3, N), crossed with the heading
    x_c, in one _cross over the three side by side."""
    return np.split(_cross(np.concatenate([z, zd, zdd], axis=1), HEADING), 3, axis=1)


def flat_outputs(inputs: np.ndarray, params) -> FlatOutputs:
    """Run the flatness pipeline on a batch of samples.

    inputs: (N, 3, 3) acceleration, jerk and snap of the position.
    """
    # Every vector is component-major, (3, N), with contiguous rows: scalars
    # broadcast as they are, and each numpy loop runs over the N samples.
    # The values the VJP reads are written into their rows of ``kept``.
    kept = np.empty((KEPT_ROWS, len(inputs)))
    ((c2, inv_c, cd, cdd, q, inv, invd, invdd, p, s1),
     (f, jrk, snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega)) = _views(kept)
    f[:], jrk[:], snp[:] = np.transpose(inputs, (1, 2, 0))

    # Thrust direction z = f/|f| and its first two time derivatives.
    f -= GRAVITY[:, None]
    c2[:] = _dot(f, f)
    singular = c2 < EPS_SING**2
    # Clamp singular entries so the remaining algebra stays finite.
    c2[singular] = 1.0
    c = np.sqrt(c2)
    inv_c[:] = 1.0 / c
    z[:] = inv_c * f
    thrust = c * params.mass

    cd[:] = _dot(z, jrk)
    u[:] = jrk - cd * z
    zd[:] = inv_c * u
    cdd[:] = _dot(zd, jrk) + _dot(z, snp)
    ud[:] = snp - cdd * z - cd * zd
    q[:] = cd * (1.0 / c2)
    zdd[:] = inv_c * ud - q * u

    # Body y axis y_b = n/|n| with n = z x x_c, and its derivatives.
    nvec, nd, ndd = _heading_crosses(z, zd, zdd)

    nn2 = _dot(nvec, nvec)
    singular |= nn2 < EPS_SING**2
    nn2 = np.where(nn2 < EPS_SING**2, 1.0, nn2)
    inv[:] = 1.0 / np.sqrt(nn2)
    inv3 = inv * inv * inv
    p[:] = _dot(nvec, nd)
    invd[:] = -p * inv3
    s1[:] = _dot(nd, nd) + _dot(nvec, ndd)
    invdd[:] = -(s1 * inv3) - p * (3.0 * (inv * inv) * invd)

    y_b[:] = inv * nvec
    y_bd[:] = inv * nd + invd * nvec
    y_bdd[:] = inv * ndd + 2.0 * (invd * nd) + invdd * nvec
    del nvec, nd, ndd, inv3

    x_b[:] = _cross(y_b, z)
    x_bd[:] = _cross(y_bd, z) + _cross(y_b, zd)

    omega[:] = (-_dot(y_b, zd), _dot(x_b, zd), -_dot(x_b, y_bd))
    omega_dot = np.stack([
        -(_dot(y_bd, zd) + _dot(y_b, zdd)),
        _dot(x_bd, zd) + _dot(x_b, zdd),
        -(_dot(x_bd, y_bd) + _dot(x_b, y_bdd)),
    ])

    inertia = np.asarray(params.inertia_diag)[:, None]
    tau = omega_dot * inertia + _cross(omega, omega * inertia)

    wrench = np.stack([thrust, *tau], axis=1)  # (N, 4)
    rotor = wrench @ params.mixer_inverse.T

    return FlatOutputs(
        rotor=rotor,
        omega=omega.T.copy(),
        singular=singular,
        kept=kept,
        axes=(x_b, y_b, z),
    )


def vjp(kept, params, rotor_bar, omega_bar):
    """Cotangents on the rotor thrusts (n, 4) and body rates (n, 3) of n
    samples -> (n, 9) on their flat inputs, from those samples' columns of
    ``FlatOutputs.kept``, (KEPT_ROWS, n).

    Every step is elementwise per sample, so any subset of the samples gives
    their rows of the full product, bit for bit.  Each block runs one
    forward step backwards; ``v_bar`` is the cotangent of forward variable
    ``v``, deleted after its last use.
    """
    ((c2, inv_c, cd, cdd, q, inv, invd, invdd, p, s1),
     (f, jrk, snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega)) = _views(kept)
    # One step from kept values each: rebuilt here as the forward pass
    # builds them, rather than kept.
    nvec, nd, ndd = _heading_crosses(z, zd, zdd)
    inv3 = inv * inv * inv
    inertia = np.asarray(params.inertia_diag)[:, None]
    j_w = omega * inertia
    # A one-row product would run BLAS's gemv, which rounds otherwise than
    # gemm: a zero row keeps every product on gemm.
    padded = np.concatenate([rotor_bar, np.zeros((1, 4))])
    wrench_bar = (padded @ params.mixer_inverse)[:-1].T
    c_bar = params.mass * wrench_bar[0]
    tau_bar = wrench_bar[1:]
    wd_bar = tau_bar * inertia
    w_bar = omega_bar.T + _cross(j_w, tau_bar) + inertia * _cross(tau_bar, omega)
    del wrench_bar, tau_bar

    # omega and omega_dot as dot products of the body axes.
    wx, wy, wz = w_bar
    ex, ey, ez = wd_bar
    x_b_bar = wy * zd - wz * y_bd + ey * zdd - ez * y_bdd
    x_bd_bar = ey * zd - ez * y_bd
    y_bdd_bar = -ez * x_b
    zdd_bar = ey * x_b - ex * y_b
    zd_bar = wy * x_b - wx * y_b + ey * x_bd - ex * y_bd

    # x_b = y_b x z, x_bd = y_bd x z + y_b x zd.
    y_b_bar = -wx * zd - ex * zdd + _cross(z, x_b_bar) + _cross(zd, x_bd_bar)
    y_bd_bar = -wz * x_b - ex * zd - ez * x_bd + _cross(z, x_bd_bar)
    del w_bar, wd_bar, wx, wy, wz, ex, ey, ez
    z_bar = _cross(x_b_bar, y_b) + _cross(x_bd_bar, y_bd)
    zd_bar += _cross(x_bd_bar, y_b)
    del x_b_bar, x_bd_bar

    # y_b and its derivatives from n and the inverse norm.
    nvec_bar = inv * y_b_bar + invd * y_bd_bar + invdd * y_bdd_bar
    nd_bar = inv * y_bd_bar + 2.0 * invd * y_bdd_bar
    ndd_bar = inv * y_bdd_bar
    inv_bar = _dot(nvec, y_b_bar) + _dot(nd, y_bd_bar) + _dot(ndd, y_bdd_bar)
    invd_bar = _dot(nvec, y_bd_bar) + 2.0 * _dot(nd, y_bdd_bar)
    invdd_bar = _dot(nvec, y_bdd_bar)
    del y_b_bar, y_bd_bar, y_bdd_bar

    s1_bar = -inv3 * invdd_bar
    inv3_bar = -s1 * invdd_bar
    p_bar = -3.0 * inv * inv * invd * invdd_bar
    inv_bar -= 6.0 * p * inv * invd * invdd_bar
    invd_bar -= 3.0 * p * inv * inv * invdd_bar
    del invdd_bar
    nd_bar += 2.0 * s1_bar * nd
    nvec_bar += s1_bar * ndd
    ndd_bar += s1_bar * nvec
    del s1_bar

    p_bar -= inv3 * invd_bar
    inv3_bar -= p * invd_bar
    del invd_bar
    nvec_bar += p_bar * nd
    nd_bar += p_bar * nvec
    del p_bar
    inv_bar += 3.0 * inv * inv * inv3_bar
    nn2_bar = -0.5 * inv3 * inv_bar
    nvec_bar += 2.0 * nn2_bar * nvec
    del inv3_bar, inv_bar, nn2_bar

    # n, nd, ndd as cross products of z's derivatives with x_c.
    zdd_bar += _cross(HEADING, ndd_bar)
    zd_bar += _cross(HEADING, nd_bar)
    z_bar += _cross(HEADING, nvec_bar)
    del ndd_bar, nd_bar, nvec_bar

    # z, zd, zdd from f, jerk and snap.
    ud_bar = inv_c * zdd_bar
    inv_c_bar = _dot(ud, zdd_bar)
    u_bar = -q * zdd_bar
    q_bar = -_dot(u, zdd_bar)
    del zdd_bar
    cd_bar = q_bar / c2
    c2_bar = -q_bar * q / c2
    del q_bar

    cdd_bar = -_dot(z, ud_bar)
    z_bar -= cdd * ud_bar
    cd_bar -= _dot(zd, ud_bar)
    zd_bar -= cd * ud_bar
    snp_bar = ud_bar + cdd_bar * z
    del ud_bar

    zd_bar += cdd_bar * jrk
    jrk_bar = cdd_bar * zd
    z_bar += cdd_bar * snp
    del cdd_bar

    u_bar += inv_c * zd_bar
    inv_c_bar += _dot(u, zd_bar)
    del zd_bar
    jrk_bar += u_bar
    cd_bar -= _dot(z, u_bar)
    z_bar -= cd * u_bar
    del u_bar

    z_bar += cd_bar * jrk
    jrk_bar += cd_bar * z
    del cd_bar
    f_bar = inv_c * z_bar
    inv_c_bar += _dot(f, z_bar)
    del z_bar
    c_bar -= inv_c * inv_c * inv_c_bar
    c2_bar += 0.5 * inv_c * c_bar
    f_bar += 2.0 * c2_bar * f

    # C-contiguous (n, 9): downstream einsums round by memory layout.
    return np.stack([*f_bar, *jrk_bar, *snp_bar], axis=1)
