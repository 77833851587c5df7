"""Gates as constraint-free parameterizations.

Each gate maps an unconstrained real vector onto a point guaranteed to lie
inside the gate region (ball, polygon, polyhedron), and an unconstrained
scalar maps onto a positive segment duration.  That is what lets the planner
run plain unconstrained quasi-Newton steps without ever leaving the
feasible set.
"""

import numpy as np

from raceplan import BallGate, PolytopeGate, surject, time_map
from raceplan.gates import contains


def main():
    rng = np.random.default_rng(0)

    ball = BallGate(center=[2.0, -1.0, 1.5], radius=0.8)
    d = rng.normal(scale=5.0, size=(5, 4))
    points, _ = surject(ball, d)
    print("ball gate (center [2,-1,1.5], r=0.8):")
    for row, p in zip(d, points):
        dist = np.linalg.norm(p - ball.center)
        print(f"  d={np.round(row, 2)} -> p={np.round(p, 3)} "
              f"(|p-c|={dist:.3f} <= {ball.radius})")

    square = PolytopeGate.from_vertices([
        [4.0, -1.2, 0.3], [4.0, 1.2, 0.3], [4.0, 1.2, 2.7], [4.0, -1.2, 2.7],
    ], planar=True)
    print("\nplanar square gate, parameter -> convex vertex combination:")
    for d in (np.array([1.0, 0.0, 0.0, 0.0]),   # exactly the first vertex
              np.ones(4),                        # the centroid
              rng.normal(size=4)):
        p = surject(square, d[None])[0][0]
        print(f"  d={np.round(d, 2)} -> p={np.round(p, 3)} "
              f"(containment residual {contains(square, p):.1e})")

    # Bulk check: every random parameter lands inside.
    n = 10_000
    worst = max(
        contains(square, p)
        for p in surject(square, rng.normal(scale=5.0, size=(n, 4)))[0]
    )
    print(f"  worst residual over {n} random parameters: {worst:.1e}")

    print("\nduration map (scalar K -> positive time, smooth and monotone):")
    K = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    T, dT = time_map(K)
    for k, t, dt in zip(K, T, dT):
        print(f"  K={k:+.1f} -> T={t:.4f} s (dT/dK={dt:.4f})")


if __name__ == "__main__":
    main()
