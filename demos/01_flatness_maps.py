"""Differential flatness: recover full state and rotor thrusts from position.

A quadrotor's attitude, body rates and rotor thrusts are all determined by
the position trajectory and its derivatives, at a heading fixed at zero
yaw.  This script runs the batched flatness map on two hand-written flat
samples and checks that the recovered controls respect the actuator model.
"""

import numpy as np
from scipy.spatial.transform import Rotation

from raceplan import QuadParams, flat_outputs, limit_residuals, mixer_matrix


def main():
    quad = QuadParams.quad_a()
    print(f"vehicle: m={quad.mass} kg, f in [{quad.f_min}, {quad.f_max}] N, "
          f"omega_max={quad.omega_max} rad/s")

    # One batch of two samples, (N, 3, 3): the rows of each sample are the
    # acceleration, jerk and snap of [x, y, z], all that the map reads at
    # zero yaw.  Hover, and a banked turn, where lateral acceleration tilts
    # the thrust axis.
    inputs = np.zeros((2, 3, 3))
    inputs[1, 0] = [0.0, 6.0, 0.0]     # acceleration
    inputs[1, 1] = [0.0, 0.0, 2.0]     # jerk
    out = flat_outputs(inputs, quad)
    assert not out.singular.any()
    # scipy's quaternions are (x, y, z, w); printed here as (w, x, y, z).
    quats = Rotation.from_matrix(out.rotation).as_quat()[:, [3, 0, 1, 2]]

    # Hover: thrust balances gravity, identity attitude.
    print("\nhover state:")
    print(f"  quaternion (wxyz) = {np.round(quats[0], 6)}")
    print(f"  rotor thrusts     = {np.round(out.rotor[0], 6)} N "
          f"(sum = {np.sum(out.rotor[0]):.6f}, m*g = {quad.mass * 9.81:.6f})")

    print("\nbanked turn (a_y = 6 m/s^2):")
    print(f"  quaternion (wxyz) = {np.round(quats[1], 4)}")
    print(f"  body rates        = {np.round(out.omega[1], 4)} rad/s")
    print(f"  rotor thrusts     = {np.round(out.rotor[1], 4)} N")

    # Limit residuals, one per rotor and body rate: the distance past the
    # nearer bound, negative within limits.
    res = limit_residuals(out.rotor, out.omega, quad)[0][1]
    print(f"  constraint residuals (<=0 is feasible): {np.round(res, 3)}")

    # Mixer round trip: thrusts -> (collective, torque) -> thrusts.
    mixer = mixer_matrix(quad)
    back = np.linalg.solve(mixer, mixer @ out.rotor[1])
    err = np.max(np.abs(back - out.rotor[1]))
    print(f"\nmixer round-trip error: {err:.2e} N")


if __name__ == "__main__":
    main()
