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

from ._frozen import freeze

#: Below this thrust magnitude / axis-cross magnitude the map is singular.
EPS_SING = 1e-6
#: Gravitational acceleration, m/s^2, world frame (z up).
GRAVITY = freeze(np.array([0.0, 0.0, -9.81]))
#: The heading x_c at zero yaw, (3, 1): it broadcasts against (..., 3, N)
#: in _cross, which keeps np.cross's arithmetic, signed zeros included.
HEADING = freeze(np.array([[1.0], [0.0], [0.0]]))


#: Rows of FlatOutputs.kept, the forward values the VJP reads per sample:
#: 10 scalars, then 14 vectors of 3 rows each, in the order _views names.
KEPT_ROWS = 10 + 14 * 3


def _views(kept):
    """The rows of ``kept`` (KEPT_ROWS, N) as views: the scalars (c2, inv_c,
    cd, cdd, q, inv, invd, invdd, p, s1), (10, N), and the vectors (f, jrk,
    snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega), (14, 3, N),
    whose slices run a step on adjacent rows at once."""
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


#: Rows (1, 2, 0) and (2, 0, 1): component i of a x b is
#: a[_J[i]] * b[_K[i]] - a[_K[i]] * b[_J[i]].
_J = freeze(np.array([1, 2, 0]))
_K = freeze(np.array([2, 0, 1]))


def _dot(a, b, out=None):
    """Per-sample dot products of (..., 3, N) arrays that broadcast against
    each other, added as einsum("ni,ni->n") adds an (N, 3) row, bit for bit:
    (p0 + p2) + p1, onto +0.0."""
    p = a * b
    out = np.add(p[..., 0, :], p[..., 2, :], out=out)
    out += p[..., 1, :]
    out += 0.0
    return out


def _cross(a, b, out=None):
    """Per-sample cross products of (..., 3, N) or (3, 1) arrays that
    broadcast against each other, with np.cross's arithmetic."""
    out = np.multiply(a.take(_J, axis=-2), b.take(_K, axis=-2), out=out)
    # The second product is formed in place in whichever operand copy has
    # the result's shape, so no third result-sized array is alive.
    right, left = a.take(_K, axis=-2), b.take(_J, axis=-2)
    if right.shape != out.shape:
        right, left = left, right
    right *= left
    out -= right
    return out


def flat_outputs(inputs: np.ndarray, params) -> FlatOutputs:
    """Run the flatness pipeline on a batch of samples.

    inputs: (N, 3, 3) acceleration, jerk and snap of the position.
    """
    # Every vector is component-major, (3, N), with contiguous rows: scalars
    # broadcast as they are, and each numpy loop runs over the N samples.
    # The values the VJP reads are written into their rows of ``kept``;
    # steps on adjacent rows run as one, through views.
    n = len(inputs)
    kept = np.empty((KEPT_ROWS, n))
    scalars, vectors = _views(kept)
    c2, inv_c, cd, cdd, q, inv, invd, invdd, p, s1 = scalars
    f, jrk, snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega = vectors
    vectors[:3] = np.transpose(inputs, (1, 2, 0))

    # Thrust direction z = f/|f| and its first two time derivatives.
    f -= GRAVITY[:, None]
    _dot(f, f, out=c2)
    singular = c2 < EPS_SING**2
    # Clamp singular entries so the remaining algebra stays finite.
    c2[singular] = 1.0
    c = np.sqrt(c2)
    np.divide(1.0, c, out=inv_c)
    np.multiply(inv_c, f, out=z)
    thrust = c * params.mass
    del c

    _dot(z, jrk, out=cd)
    np.subtract(jrk, cd * z, out=u)
    np.multiply(inv_c, u, out=zd)
    np.add(*_dot(vectors[4:2:-1], vectors[1:3]), out=cdd)  # zd.jrk + z.snp
    np.subtract(snp, cdd * z, out=ud)
    ud -= cd * zd
    np.multiply(cd, 1.0 / c2, out=q)
    np.multiply(inv_c, ud, out=zdd)
    zdd -= q * u

    # Body y axis y_b = n/|n| with n = z x x_c, and its derivatives: nx holds
    # (n, nd, ndd), the crosses of z, zd and zdd with the heading x_c.
    nx = _cross(vectors[3:6], HEADING)
    nvec, nd, ndd = nx
    nn2, p[:] = _dot(nx[:2], nvec)  # n.n, nd.n
    flat = nn2 < EPS_SING**2
    singular |= flat
    nn2[flat] = 1.0
    np.divide(1.0, np.sqrt(nn2), out=inv)
    inv3 = inv * inv * inv
    np.multiply(-p, inv3, out=invd)
    np.add(*_dot(nx[1::-1], nx[1:]), out=s1)  # nd.nd + n.ndd
    np.subtract(-(s1 * inv3), p * (3.0 * (inv * inv) * invd), out=invdd)

    np.multiply(inv, nx, out=vectors[10:13])
    y_bd += invd * nvec
    y_bdd += 2.0 * (invd * nd)
    y_bdd += invdd * nvec
    del nx, nvec, nd, ndd, inv3

    # x_b = y_b x z, x_bd = y_bd x z + y_b x zd.
    _cross(vectors[10:12], z, out=vectors[8:10])
    x_bd += _cross(y_b, zd)

    # omega and omega_dot from nine dot products of the body axes, in pairs
    # of rows that are views of kept.
    xy_zd = _dot(vectors[8:11:2], zd)    # (x_b, y_b).zd
    x_y = _dot(x_b, vectors[11:13])      # x_b.(y_bd, y_bdd)
    omega[1] = xy_zd[0]
    np.negative(xy_zd[1], out=omega[0])
    np.negative(x_y[0], out=omega[2])
    del xy_zd
    omega_dot = np.empty((3, n))
    np.add(_dot(vectors[9:12:2], zd), _dot(vectors[8:11:2], zdd),
           out=omega_dot[1::-1])         # (x_bd, y_bd).zd + (x_b, y_b).zdd
    np.add(_dot(x_bd, y_bd), x_y[1], out=omega_dot[2])
    np.negative(omega_dot[::2], out=omega_dot[::2])
    del x_y

    # Collective thrust and body torques, (N, 4) C-contiguous for the mixer.
    wrench = np.empty((n, 4))
    wrench[:, 0] = thrust
    inertia = params.inertia_column
    torque = wrench[:, 1:].T
    np.multiply(omega_dot, inertia, out=torque)
    torque += _cross(omega, omega * inertia)
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
    ``v``, deleted after its last use.  Cotangents that take the same steps
    share one array, so one numpy call runs the step on all of them.
    """
    n = kept.shape[1]
    scalars, vectors = _views(kept)
    c2, inv_c, cd, cdd, q, inv, invd, invdd, p, s1 = scalars
    f, jrk, snp, z, zd, zdd, u, ud, x_b, x_bd, y_b, y_bd, y_bdd, omega = vectors
    # One step from kept values each: rebuilt here as the forward pass
    # builds them, rather than kept.
    nx = _cross(vectors[3:6], HEADING)
    nvec, nd, ndd = nx
    inv3 = inv * inv * inv
    inertia = params.inertia_column
    # A one-row product would run BLAS's gemv, which rounds otherwise than
    # gemm: a zero row keeps every product on gemm.
    padded = np.concatenate([rotor_bar, np.zeros((1, 4))])
    wrench_bar = (padded @ params.mixer_inverse)[:-1].T
    c_bar = params.mass * wrench_bar[0]
    tau_bar = wrench_bar[1:]
    # The cotangents of omega (w) and of omega_dot (e), one block.
    we = np.empty((6, n))
    np.add(omega_bar.T + _cross(omega * inertia, tau_bar),
           inertia * _cross(tau_bar, omega), out=we[:3])
    np.multiply(tau_bar, inertia, out=we[3:])
    wx, wy, wz, ex, ey, ez = we
    del wrench_bar, tau_bar

    # omega and omega_dot as dot products of the body axes.  xb holds
    # (x_b_bar, x_bd_bar), zb (z_bar, zd_bar, zdd_bar).
    xb = np.multiply(we[1::3, None], zd)  # (wy, ey) zd
    xb -= we[2::3, None] * y_bd            # (wz, ez) y_bd
    x_b_bar, x_bd_bar = xb
    x_b_bar += ey * zdd
    x_b_bar -= ez * y_bdd
    zb = np.empty((3, 3, n))
    z_bar, zd_bar, zdd_bar = zb
    np.multiply(we[1::3, None], x_b, out=zb[1:])  # (wy, ey) x_b
    zb[1:] -= we[::3, None] * y_b                   # (wx, ex) y_b
    zd_bar += ey * x_bd
    zd_bar -= ex * y_bd

    # x_b = y_b x z, x_bd = y_bd x z + y_b x zd.  yb holds (y_b_bar,
    # y_bd_bar, y_bdd_bar).
    yb = np.empty((3, 3, n))
    y_b_bar, y_bd_bar, y_bdd_bar = yb
    z_x = _cross(z, xb)  # z x (x_b_bar, x_bd_bar)
    np.subtract(-wx * zd, ex * zdd, out=y_b_bar)
    y_b_bar += z_x[0]
    y_b_bar += _cross(zd, x_bd_bar)
    np.subtract(-wz * x_b, ex * zd, out=y_bd_bar)
    y_bd_bar -= ez * x_bd
    y_bd_bar += z_x[1]
    np.multiply(-ez, x_b, out=y_bdd_bar)
    del we, wx, wy, wz, ex, ey, ez, z_x
    x_y = _cross(xb, y_b)  # (x_b_bar, x_bd_bar) x y_b
    np.add(x_y[0], _cross(x_bd_bar, y_bd), out=z_bar)
    zd_bar += x_y[1]
    del xb, x_b_bar, x_bd_bar, x_y

    # y_b and its derivatives from n and the inverse norm.  nb holds
    # (nvec_bar, nd_bar, ndd_bar).
    nb = inv * yb
    nvec_bar, nd_bar, ndd_bar = nb
    nvec_bar += invd * y_bd_bar
    nvec_bar += invdd * y_bdd_bar
    nd_bar += 2.0 * invd * y_bdd_bar
    n_y = _dot(nx, yb)       # n.y_b_bar, nd.y_bd_bar, ndd.y_bdd_bar
    inv_bar = n_y[0] + n_y[1] + n_y[2]
    n_y = _dot(nx[:2], yb[1:])  # n.y_bd_bar, nd.y_bdd_bar
    invd_bar = n_y[0] + 2.0 * n_y[1]
    invdd_bar = _dot(nvec, y_bdd_bar)
    del yb, y_b_bar, y_bd_bar, y_bdd_bar, n_y

    s1_bar = -inv3 * invdd_bar
    inv3_bar = -s1 * invdd_bar
    p_bar = -3.0 * inv * inv * invd * invdd_bar
    inv_bar -= 6.0 * p * inv * invd * invdd_bar
    invd_bar -= 3.0 * p * inv * inv * invdd_bar
    del invdd_bar
    nd_bar += 2.0 * s1_bar * nd
    nb[::2] += s1_bar * nx[::-2]  # nvec_bar += s1_bar ndd, ndd_bar += s1_bar nvec
    del s1_bar

    p_bar -= inv3 * invd_bar
    inv3_bar -= p * invd_bar
    del invd_bar
    nb[:2] += p_bar * nx[1::-1]  # nvec_bar += p_bar nd, nd_bar += p_bar nvec
    del p_bar
    inv_bar += 3.0 * inv * inv * inv3_bar
    nn2_bar = -0.5 * inv3 * inv_bar
    nvec_bar += 2.0 * nn2_bar * nvec
    del inv3_bar, inv_bar, nn2_bar

    # n, nd, ndd as cross products of z, zd, zdd with x_c.
    zb += _cross(HEADING, nb)
    del nb, nvec_bar, nd_bar, ndd_bar

    # z, zd, zdd from f, jerk and snap, into the C-contiguous (n, 9) result
    # (downstream einsums round by memory layout).
    grad = np.empty((n, 9))
    f_bar, jrk_bar, snp_bar = grad.reshape(n, 3, 3).transpose(1, 2, 0)
    ud_bar = inv_c * zdd_bar
    u_zdd = _dot(vectors[6:8], zdd_bar)  # (u, ud).zdd_bar
    inv_c_bar = u_zdd[1]
    u_bar = -q * zdd_bar
    q_bar = -u_zdd[0]
    del zdd_bar, u_zdd
    cd_bar = q_bar / c2
    c2_bar = -q_bar * q / c2
    del q_bar

    z_ud = _dot(vectors[3:5], ud_bar)  # (z, zd).ud_bar
    cdd_bar = -z_ud[0]
    zb[:2] -= scalars[3:1:-1, None] * ud_bar  # z_bar -= cdd ud_bar, zd_bar -= cd ud_bar
    cd_bar -= z_ud[1]
    np.add(ud_bar, cdd_bar * z, out=snp_bar)
    del ud_bar, z_ud

    zb[1::-1] += cdd_bar * vectors[1:3]  # zd_bar += cdd_bar jrk, z_bar += cdd_bar snp
    np.multiply(cdd_bar, zd, out=jrk_bar)
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
    np.multiply(inv_c, z_bar, out=f_bar)
    inv_c_bar += _dot(f, z_bar)
    del z_bar, zb
    c_bar -= inv_c * inv_c * inv_c_bar
    c2_bar += 0.5 * inv_c * c_bar
    f_bar += 2.0 * c2_bar * f
    return grad
