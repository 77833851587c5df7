"""Tests for the reverse-mode (adjoint) pass of the flatness pipeline."""

import numpy as np
import pytest

from raceplan._flatjet import flat_outputs

VALUE_FIELDS = ("thrust", "rotor", "omega", "omega_dot", "rotation", "singular")
# Flat-input column -> (derivative order, dim) in the (N, K, 4) input.
INPUT_ENTRIES = [(2 + k // 3, k % 3) for k in range(9)] + [(0, 3), (1, 3), (2, 3)]


def random_batch(seed, n=40):
    """Seeded flat derivatives with nonzero yaw, yaw rate and yaw
    acceleration; the last sample has a strongly tilted thrust (horizontal
    acceleration 3g, so the body z axis is about 72 degrees off vertical)."""
    rng = np.random.default_rng(seed)
    derivs = rng.normal(scale=2.0, size=(n, 6, 4))
    derivs[:, 0, 3] = rng.uniform(-np.pi, np.pi, n)
    derivs[:, 1, 3] = rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n)
    derivs[:, 2, 3] = rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n)
    derivs[-1, 2, :3] = [29.43, 0.0, 0.0]
    return derivs


def central_differences(derivs, params, rotor_bar, omega_bar, h=1e-6):
    """(N, 12) derivatives of sum(rotor_bar * rotor + omega_bar * omega) per
    sample, by central differences of the value pass."""
    def pairing(d):
        out = flat_outputs(d, params)
        return (np.sum(rotor_bar * out.rotor, axis=1)
                + np.sum(omega_bar * out.omega, axis=1))

    fd = np.empty((len(derivs), 12))
    for col, (order, dim) in enumerate(INPUT_ENTRIES):
        up, down = derivs.copy(), derivs.copy()
        up[:, order, dim] += h
        down[:, order, dim] -= h
        fd[:, col] = (pairing(up) - pairing(down)) / (2 * h)
    return fd


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vjp_matches_central_differences(quad_a, seed):
    derivs = random_batch(seed)
    out = flat_outputs(derivs, quad_a, want_grad=True)
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
        got = out.vjp(rotor_bar, omega_bar)
        fd = central_differences(derivs, quad_a, rotor_bar, omega_bar)
        assert got.shape == (n, 12)
        for col in range(12):
            scale = max(1.0, np.max(np.abs(fd[:, col])))
            np.testing.assert_allclose(got[:, col], fd[:, col], rtol=1e-6,
                                       atol=1e-6 * scale, err_msg=f"column {col}")


@pytest.mark.parametrize("seed", [0, 1])
def test_gradient_mode_leaves_values_bitwise_unchanged(quad_a, seed):
    derivs = random_batch(seed, n=200)
    plain = flat_outputs(derivs, quad_a)
    with_grad = flat_outputs(derivs, quad_a, want_grad=True)
    assert plain.vjp is None and with_grad.vjp is not None
    for name in VALUE_FIELDS:
        assert np.array_equal(getattr(plain, name), getattr(with_grad, name)), name
