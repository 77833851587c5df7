"""Tests for the flatness pipeline: its reverse-mode (adjoint) pass, and the
component-major kernel against the sample-major reference it replaced."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from raceplan._flatjet import (
    EPS_SING, GRAVITY, HEADING, _cross, _dot, flat_outputs, mixer_matrix, vjp,
)

VALUE_FIELDS = ("rotor", "omega", "rotation", "singular")
# Flat-input column -> (derivative order, dim) in the (N, K, 3) input.
INPUT_ENTRIES = [(2 + k // 3, k % 3) for k in range(9)]


def random_batch(seed, n=40):
    """Seeded position derivatives; the last sample has a strongly tilted
    thrust (horizontal acceleration 3g, so the body z axis is about 72
    degrees off vertical)."""
    rng = np.random.default_rng(seed)
    derivs = rng.normal(scale=2.0, size=(n, 6, 3))
    derivs[-1, 2] = [29.43, 0.0, 0.0]
    return derivs


def with_zero_yaw(derivs):
    """(N, K, 3) position derivatives as the reference's (N, K, 4) input,
    with a zero yaw column."""
    return np.concatenate([derivs, np.zeros(derivs.shape[:2] + (1,))], axis=2)


def central_differences(derivs, params, rotor_bar, omega_bar, h=1e-6):
    """(N, 9) derivatives of sum(rotor_bar * rotor + omega_bar * omega) per
    sample, by central differences of the value pass."""
    def pairing(d):
        out = flat_outputs(d[:, 2:5], params)
        return (np.sum(rotor_bar * out.rotor, axis=1)
                + np.sum(omega_bar * out.omega, axis=1))

    fd = np.empty((len(derivs), 9))
    for col, (order, dim) in enumerate(INPUT_ENTRIES):
        up, down = derivs.copy(), derivs.copy()
        up[:, order, dim] += h
        down[:, order, dim] -= h
        fd[:, col] = (pairing(up) - pairing(down)) / (2 * h)
    return fd


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vjp_matches_central_differences(quad_a, seed):
    derivs = random_batch(seed)
    out = flat_outputs(derivs[:, 2:5], quad_a)
    assert not out.singular.any()
    assert out.rotation[-1, 2, 2] < 0.5   # body z more than 60 deg off vertical
    rng = np.random.default_rng(100 + seed)
    n = len(derivs)
    # Random cotangents, then each of the 4 rotors and 3 body rates alone.
    cotangents = [(rng.normal(size=(n, 4)), rng.normal(size=(n, 3)))]
    for k in range(7):
        unit = np.zeros((n, 7))
        unit[:, k] = 1.0
        cotangents.append((unit[:, :4], unit[:, 4:]))
    for rotor_bar, omega_bar in cotangents:
        got = vjp(out.kept, quad_a, rotor_bar, omega_bar)
        fd = central_differences(derivs, quad_a, rotor_bar, omega_bar)
        assert got.shape == (n, 9)
        for col in range(9):
            scale = max(1.0, np.max(np.abs(fd[:, col])))
            np.testing.assert_allclose(got[:, col], fd[:, col], rtol=1e-6,
                                       atol=1e-6 * scale, err_msg=f"column {col}")


# ---------------------------------------------------------------------------
# reference: the sample-major value pass and VJP

@dataclass
class ReferenceOutputs:
    """The reference's outputs, each value field stored as it is computed."""

    rotor: np.ndarray
    omega: np.ndarray
    omega_dot: np.ndarray
    rotation: np.ndarray
    singular: np.ndarray
    vjp: Callable


def _rows_dot(a, b):
    return np.einsum("ni,ni->n", a, b)


def reference_flat_outputs(derivs, params):
    """The flatness map and its VJP with every vector held sample-major,
    (N, 3), and np.cross: the reference the component-major kernel must
    match bit for bit.  It takes (N, K, 4) derivatives whose last column is
    yaw, and its VJP is (N, 12), the last 3 columns on yaw."""
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
    f = a - GRAVITY[None, :]
    c2 = _rows_dot(f, f)
    singular = c2 < EPS_SING**2
    # Clamp singular entries so the remaining algebra stays finite.
    c2 = np.where(singular, 1.0, c2)
    c = np.sqrt(c2)
    inv_c = 1.0 / c
    z = inv_c[:, None] * f
    thrust = c * params.mass

    cd = _rows_dot(z, jrk)
    u = jrk - cd[:, None] * z
    zd = inv_c[:, None] * u
    cdd = _rows_dot(zd, jrk) + _rows_dot(z, snp)
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

    nn2 = _rows_dot(nvec, nvec)
    singular |= nn2 < EPS_SING**2
    nn2 = np.where(nn2 < EPS_SING**2, 1.0, nn2)
    inv = 1.0 / np.sqrt(nn2)
    inv3 = inv * inv * inv
    p = _rows_dot(nvec, nd)
    invd = -p * inv3
    s1 = _rows_dot(nd, nd) + _rows_dot(nvec, ndd)
    invdd = -(s1 * inv3) - p * (3.0 * (inv * inv) * invd)

    y_b = inv[:, None] * nvec
    y_bd = inv[:, None] * nd + invd[:, None] * nvec
    y_bdd = inv[:, None] * ndd + 2.0 * (invd[:, None] * nd) + invdd[:, None] * nvec

    x_b = np.cross(y_b, z)
    x_bd = np.cross(y_bd, z) + np.cross(y_b, zd)

    omega = np.stack([-_rows_dot(y_b, zd), _rows_dot(x_b, zd), -_rows_dot(x_b, y_bd)],
                     axis=1)
    omega_dot = np.stack([
        -(_rows_dot(y_bd, zd) + _rows_dot(y_b, zdd)),
        _rows_dot(x_bd, zd) + _rows_dot(x_b, zdd),
        -(_rows_dot(x_bd, y_bd) + _rows_dot(x_b, y_bdd)),
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
        inv_bar = (_rows_dot(nvec, y_b_bar) + _rows_dot(nd, y_bd_bar)
                   + _rows_dot(ndd, y_bdd_bar))
        invd_bar = _rows_dot(nvec, y_bd_bar) + 2.0 * _rows_dot(nd, y_bdd_bar)
        invdd_bar = _rows_dot(nvec, y_bdd_bar)

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
        psidd_bar = _rows_dot(y_c, x_cdd_bar)
        psid_bar = _rows_dot(y_c, x_cd_bar) - 2.0 * psid * _rows_dot(x_c, x_cdd_bar)
        x_c_bar -= (psid * psid)[:, None] * x_cdd_bar
        y_c_bar = psid[:, None] * x_cd_bar + psidd[:, None] * x_cdd_bar
        psi_bar = _rows_dot(x_c_bar, y_c) - _rows_dot(y_c_bar, x_c)

        # z, zd, zdd from f, jerk and snap.
        ud_bar = inv_c[:, None] * zdd_bar
        inv_c_bar = _rows_dot(ud, zdd_bar)
        u_bar = -q[:, None] * zdd_bar
        q_bar = -_rows_dot(u, zdd_bar)
        cd_bar = q_bar / c2
        c2_bar = -q_bar * q / c2

        snp_bar = ud_bar.copy()
        cdd_bar = -_rows_dot(z, ud_bar)
        z_bar -= cdd[:, None] * ud_bar
        cd_bar -= _rows_dot(zd, ud_bar)
        zd_bar -= cd[:, None] * ud_bar

        zd_bar += cdd_bar[:, None] * jrk
        jrk_bar = cdd_bar[:, None] * zd
        z_bar += cdd_bar[:, None] * snp
        snp_bar += cdd_bar[:, None] * z

        u_bar += inv_c[:, None] * zd_bar
        inv_c_bar += _rows_dot(u, zd_bar)
        jrk_bar += u_bar
        cd_bar -= _rows_dot(z, u_bar)
        z_bar -= cd[:, None] * u_bar

        z_bar += cd_bar[:, None] * jrk
        jrk_bar += cd_bar[:, None] * z
        f_bar = inv_c[:, None] * z_bar
        inv_c_bar += _rows_dot(f, z_bar)
        c_bar -= inv_c * inv_c * inv_c_bar
        c2_bar += 0.5 * inv_c * c_bar
        f_bar += 2.0 * c2_bar[:, None] * f

        return np.concatenate([
            f_bar, jrk_bar, snp_bar,
            psi_bar[:, None], psid_bar[:, None], psidd_bar[:, None],
        ], axis=1)

    return ReferenceOutputs(
        rotor=rotor,
        omega=omega,
        omega_dot=omega_dot,
        rotation=np.stack([x_b, y_b, z], axis=2),
        singular=singular,
        vjp=vjp,
    )


def assert_bitwise(got, want, what):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_component_major_kernel_matches_reference_bitwise(quad_a, seed):
    derivs = random_batch(seed, n=300)
    derivs[0, 2] = GRAVITY  # zero specific force: singular
    want = reference_flat_outputs(with_zero_yaw(derivs), quad_a)
    got = flat_outputs(derivs[:, 2:5], quad_a)
    assert got.singular[0] and not got.singular[1:].any()
    assert got.rotation[-1, 2, 2] < 0.5   # the strongly tilted sample
    for name in VALUE_FIELDS:
        assert_bitwise(getattr(got, name), getattr(want, name), name)
        assert getattr(got, name).flags.c_contiguous, name
    rng = np.random.default_rng(200 + seed)
    n = len(derivs)
    dense = (rng.normal(size=(n, 4)), rng.normal(size=(n, 3)))
    # Mostly zero cotangents of both signs, as an inactive penalty gives.
    sparse = tuple(c * (rng.random(c.shape) < 0.1) for c in dense)
    for rotor_bar, omega_bar in (dense, sparse):
        g = vjp(got.kept, quad_a, rotor_bar, omega_bar)
        assert g.flags.c_contiguous
        assert_bitwise(g, want.vjp(rotor_bar, omega_bar)[:, :9], "vjp")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vjp_on_gathered_columns_matches_full_rows_bitwise(quad_a, seed):
    """The VJP of any subset of the samples, one sample included, gives
    their rows of the VJP of all samples, bit for bit, on the columns
    gathered by fancy index (F order) and by np.take (C order, as
    cost.penalty gathers them)."""
    derivs = random_batch(seed, n=300)
    out = flat_outputs(derivs[:, 2:5], quad_a)
    rng = np.random.default_rng(300 + seed)
    n = len(derivs)
    rotor_bar, omega_bar = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    full = vjp(out.kept, quad_a, rotor_bar, omega_bar)
    subsets = [np.array([k]) for k in (0, 137, n - 1)]
    subsets += [np.array([5, 6]), np.sort(rng.choice(n, 40, replace=False))]
    for rows in subsets:
        for kept in (out.kept[:, rows], np.take(out.kept, rows, axis=1)):
            got = vjp(kept, quad_a, rotor_bar[rows], omega_bar[rows])
            assert_bitwise(got, full[rows], f"rows {rows[:3]}")


def signed_zero_vectors(rng, n):
    """(3, n) seeded vectors with about a fifth of the entries +0.0 and a
    fifth -0.0."""
    v = rng.normal(size=(3, n))
    u = rng.random((3, n))
    v[u < 0.2] = 0.0
    v[u > 0.8] = -0.0
    return v


def test_dot_and_cross_match_einsum_and_np_cross_bitwise():
    """_dot adds as einsum("ni,ni->n") adds each (N, 3) row, and _cross
    computes as np.cross, byte for byte with signed zeros, the heading on
    either side of a cross, and stacks of vectors on either side."""
    rng = np.random.default_rng(400)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        a, b = signed_zero_vectors(rng, n), signed_zero_vectors(rng, n)
        want_dot = np.einsum("ni,ni->n", a.T.copy(), b.T.copy())
        assert_bitwise(_dot(a, b), want_dot, "dot")
        cases = [(a, b), (a, HEADING), (HEADING, b)]
        for x, y in cases:
            assert_bitwise(_cross(x, y), np.cross(x.T, y.T).T, "cross")
        # Stacks of vectors, as the kernel batches adjacent rows of kept.
        stack = np.stack([a, b, a])
        assert_bitwise(_dot(stack, b), np.stack([want_dot, _dot(b, b), want_dot]),
                       "stacked dot")
        for x, y in cases:
            assert_bitwise(_cross(stack, y), np.stack([_cross(v, y) for v in stack]),
                           "stacked cross, left")
            assert_bitwise(_cross(x, stack), np.stack([_cross(x, v) for v in stack]),
                           "stacked cross, right")
