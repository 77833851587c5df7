"""Differential flatness: recover full state and rotor thrusts from position.

A quadrotor's attitude, body rates and rotor thrusts are all determined by
the position trajectory and its derivatives, at a heading fixed at zero
yaw.  This
script evaluates the flat maps at hand-written flat samples and checks that
the recovered controls respect the actuator model.
"""

import numpy as np

from raceplan import (
    FlatSample, QuadParams, constraint_residuals, flat_to_control,
    flat_to_state, mixer_forward, mixer_inverse,
)


def main():
    quad = QuadParams.quad_a()
    print(f"vehicle: m={quad.mass} kg, f in [{quad.f_min}, {quad.f_max}] N, "
          f"omega_max={quad.omega_max} rad/s")

    # Hover: thrust balances gravity, identity attitude.
    hover = FlatSample.rest([0.0, 0.0, 1.0])
    state = flat_to_state(hover, quad)
    u = flat_to_control(hover, quad)
    print("\nhover state:")
    print(f"  quaternion (wxyz) = {np.round(state.attitude, 6)}")
    print(f"  rotor thrusts     = {np.round(u.f, 6)} N "
          f"(sum = {np.sum(u.f):.6f}, "
          f"m*g = {quad.mass * np.linalg.norm(quad.gravity):.6f})")

    # A banked turn: lateral acceleration tilts the thrust axis.  Rows of the
    # derivative table are orders 0..4 of [x, y, z].
    banked = FlatSample(np.array([
        [0.0, 0.0, 1.0],   # position
        [5.0, 0.0, 0.0],   # velocity
        [0.0, 6.0, 0.0],   # acceleration
        [0.0, 0.0, 2.0],   # jerk
        [0.0, 0.0, 0.0],   # snap
    ]))
    state = flat_to_state(banked, quad)
    u = flat_to_control(banked, quad)
    print("\nbanked turn (a_y = 6 m/s^2):")
    print(f"  quaternion (wxyz) = {np.round(state.attitude, 4)}")
    print(f"  body rates        = {np.round(state.body_rate, 4)} rad/s")
    print(f"  rotor thrusts     = {np.round(u.f, 4)} N")

    # Constraint residuals: negative means within limits.
    res = constraint_residuals(banked, quad)
    print(f"  constraint residuals (<=0 is feasible): {np.round(res, 3)}")

    # Mixer round trip: thrusts -> (collective, torque) -> thrusts.
    f, tau = mixer_forward(u, quad)
    back = mixer_inverse(f, tau, quad)
    err = np.max(np.abs(back.f - u.f))
    print(f"\nmixer round-trip error: {err:.2e} N")


if __name__ == "__main__":
    main()
