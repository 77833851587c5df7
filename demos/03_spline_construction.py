"""Minimum-snap spline through waypoints in linear time.

Given waypoint positions and segment durations, the spline layer solves a
banded linear system for the unique degree-5 piecewise polynomial that
interpolates the waypoints, matches the boundary conditions, and minimizes
the integrated squared snap.  Construction cost grows linearly with the
number of segments.
"""

import time

import numpy as np

from raceplan import BoundaryCondition, construct


def main():
    bc0 = BoundaryCondition.hover([0.0, 0.0, 1.0])
    bcf = BoundaryCondition.hover([6.0, 0.0, 1.0])
    P = np.array([
        [2.0, 1.5, 1.2],
        [4.0, -1.5, 1.8],
    ])
    T = [0.9, 1.1, 0.8]
    traj = construct(P, T, bc0, bcf)

    print(f"{len(T)} segments, total time {traj.total_time:.2f} s")
    print("waypoint interpolation:")
    for t, p in zip(traj.junction_times, P):
        y = traj.eval_batch([t], 0)[0, 0]
        print(f"  t={t:.2f}: spline {np.round(y, 6)} vs waypoint {p}")

    # Continuity at an interior junction, orders 0..4.
    t_j = float(traj.junction_times[0])
    eps = 1e-9
    left = traj.eval_batch([t_j - eps], 4)[0]
    right = traj.eval_batch([t_j + eps], 4)[0]
    print("\ncontinuity across the first junction (orders 0..4):")
    for k in range(5):
        gap = np.max(np.abs(left[k] - right[k]))
        print(f"  order {k}: max jump {gap:.2e}")

    # Linear scaling: time per segment stays flat as the problem grows.
    print("\nconstruction cost (best of 5 runs):")
    rng = np.random.default_rng(1)
    for n_seg in (16, 64, 256):
        wp = np.cumsum(rng.normal(scale=1.0, size=(n_seg - 1, 3)), axis=0)
        durs = 0.5 + rng.random(n_seg)
        best = min(
            _timed(lambda: construct(wp, durs, bc0, bcf)) for _ in range(5)
        )
        print(f"  {n_seg:4d} segments: {best * 1e3:7.2f} ms "
              f"({best / n_seg * 1e6:.1f} us/segment)")


def _timed(fn):
    tic = time.perf_counter()
    fn()
    return time.perf_counter() - tic


if __name__ == "__main__":
    main()
