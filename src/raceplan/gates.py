"""Gate regions, containment tests and the smooth parameter maps that
eliminate gate and time-positivity constraints.

Each gate type provides a smooth surjection from an unconstrained parameter
vector onto the gate region, so waypoint optimization can run without
inequality constraints.  Segment durations get the same treatment through
``time_map``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ._frozen import Frozen, freeze
from .errors import ValidationError

#: Tolerance for the off-plane residual of planar (polygon) gates, meters.
EPS_PLANE = 1e-6
#: The largest magnitude of any coordinate, length, time or sampled value
#: that the planner and the checks accept, checked where each value enters.
#: A race track spans tens of metres; within this bound no difference or
#: square of such values overflows.
WORKSPACE = 1e6

_GEOM_TOL = 1e-9


def require_workspace(values, name):
    """Raise ValidationError unless every entry x of values has
    |x| <= WORKSPACE, which NaN fails."""
    if not np.all(np.abs(values) <= WORKSPACE):
        raise ValidationError(
            f"{name} must be finite and of magnitude at most {WORKSPACE:g}")


@dataclass(frozen=True)
class BallGate(Frozen):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = freeze(np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "center", c)
        require_workspace(c, "ball gate center")
        if isinstance(self.radius, bool) or not isinstance(self.radius, numbers.Real):
            raise ValidationError(
                f"ball gate radius must be a number, got {self.radius!r}")
        require_workspace(self.radius, "ball gate radius")
        if self.radius < 0:
            raise ValidationError("ball gate radius must be >= 0")

    @property
    def param_dim(self) -> int:
        return 4


@dataclass(frozen=True)
class PolytopeGate(Frozen):
    """Convex polygon (planar) or polyhedron gate, stored in vertex form.

    Halfspaces are derived at construction; for planar gates they live in the
    gate plane and the plane itself is an extra equality handled separately.
    Build instances through :meth:`from_vertices`.
    """

    vertices: np.ndarray                  # (v, 3)
    halfspaces: tuple                     # (A (m,3), b (m,)), rows unit-norm
    is_planar: bool
    plane: tuple | None = None            # (unit normal, offset) if planar

    @property
    def param_dim(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, vertices, planar: bool) -> "PolytopeGate":
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValidationError("polytope vertices must be an (v, 3) array")
        require_workspace(verts, "polytope vertices")
        if len(verts) < 3:
            raise ValidationError("polytope gate needs at least 3 vertices")

        centered = verts - verts.mean(axis=0)
        # Smallest singular direction decides coplanarity.
        _, svals, vt = np.linalg.svd(centered, full_matrices=True)
        coplanar = svals[2] <= 1e-9 * max(1.0, svals[0])
        if planar and not coplanar:
            raise ValidationError("polygon gate vertices are not coplanar")
        if not planar and coplanar:
            raise ValidationError("polyhedron gate vertices are coplanar")

        try:
            if planar:
                normal = vt[2]
                basis = vt[:2].T  # (3, 2)
                pts2 = centered @ basis
                hull = ConvexHull(pts2)
                rows_a, rows_b = [], []
                order = hull.vertices  # counterclockwise in the 2D frame
                for i in range(len(order)):
                    p0 = pts2[order[i]]
                    p1 = pts2[order[(i + 1) % len(order)]]
                    edge = p1 - p0
                    n2 = np.array([edge[1], -edge[0]])
                    n2 /= np.linalg.norm(n2)
                    n3 = basis @ n2
                    rows_a.append(n3)
                    rows_b.append(n3 @ (p0 @ basis.T + verts.mean(axis=0)))
                a_mat = np.array(rows_a)
                b_vec = np.array(rows_b)
                plane = (normal, float(normal @ verts[0]))
            else:
                hull = ConvexHull(verts)
                a_mat = hull.equations[:, :3].copy()
                b_vec = -hull.equations[:, 3].copy()
                norms = np.linalg.norm(a_mat, axis=1)
                a_mat /= norms[:, None]
                b_vec /= norms
                plane = None
        except QhullError as exc:  # its first line names the cause
            raise ValidationError("degenerate polytope vertex set: "
                                  + str(exc).partition("\n")[0]) from exc
        if len(hull.vertices) != len(verts):
            kind = "polygon" if planar else "polyhedron"
            raise ValidationError(f"{kind} vertices are not in convex position")

        # Every vertex must satisfy its own halfspace description.
        if np.max(verts @ a_mat.T - b_vec) > _GEOM_TOL:
            raise ValidationError("derived halfspaces do not contain all vertices")

        return cls(
            vertices=freeze(verts.copy()),
            halfspaces=freeze((a_mat, b_vec)),
            is_planar=bool(planar),
            plane=freeze(plane),
        )


Gate = BallGate | PolytopeGate


@dataclass(frozen=True)
class GateSequence(Frozen):
    """Ordered gates, traversed in index order.

    ``offsets`` gives each gate's (start, stop) in the stacked parameters D.
    ``groups`` batches the gates by surjection kind and parameter count, so
    :func:`decode` maps each group in one call: per group, the gates'
    positions (G,), their columns of D (G, dim), and the surjection with the
    group's geometry stacked, (G, dim) parameters -> (G, 3), (G, 3, dim).
    """

    gates: tuple
    offsets: tuple = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise ValidationError("gate sequence must be nonempty")
        ends = np.cumsum([g.param_dim for g in self.gates]).tolist()
        object.__setattr__(self, "offsets", tuple(zip([0] + ends[:-1], ends)))
        members = {}
        for i, gate in enumerate(self.gates):
            members.setdefault((type(gate), gate.param_dim), []).append(i)
        groups = []
        for (kind, _), index in members.items():
            gates = [self.gates[i] for i in index]
            if kind is BallGate:
                surject = partial(_ball_map, np.array([g.center for g in gates]),
                                  np.array([g.radius for g in gates], dtype=float))
            else:
                surject = partial(_polytope_map, np.array([g.vertices for g in gates]))
            columns = np.array([np.arange(*self.offsets[i]) for i in index])
            groups.append((np.array(index), columns, surject))
        object.__setattr__(self, "groups", freeze(tuple(groups)))

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class DecisionVector:
    """Unconstrained variables: gate parameters D, at the sequence's
    ``offsets``, and times K."""

    D: np.ndarray
    K: np.ndarray

    @classmethod
    def for_sequence(cls, seq: GateSequence) -> "DecisionVector":
        """Every gate parameter at 0.1, just off the polytope map's d = 0
        convention point, and every time variable at 0 (T = 1)."""
        return cls(D=np.full(seq.offsets[-1][1], 0.1), K=np.zeros(len(seq) + 1))

    def to_flat(self) -> np.ndarray:
        return np.concatenate([self.D, self.K])

    def with_flat(self, x: np.ndarray) -> "DecisionVector":
        nd = len(self.D)
        if len(x) != nd + len(self.K):
            raise ValidationError("flat vector length does not match")
        return DecisionVector(D=x[:nd].copy(), K=x[nd:].copy())


# ---------------------------------------------------------------------------
# containment

# np.add.reduce and np.maximum.reduce are what .sum() and np.max run, less
# their argument handling, which on a few hundred points costs as much as
# the arithmetic.

def _ball_residual(center, radius, p):
    return np.linalg.norm(p - center, axis=-1) - radius


def _polyhedron_residual(a_mat, b_vec, p):
    # Products summed per point, not matmul: a batch rounds as its points
    # do one at a time.
    return np.maximum.reduce(
        np.add.reduce(p[..., None, :] * a_mat, axis=-1) - b_vec, axis=-1)


def _polygon_residual(a_mat, b_vec, normal, off, p):
    return np.maximum(_polyhedron_residual(a_mat, b_vec, p),
                      np.abs(np.add.reduce(p * normal, axis=-1) - off) - EPS_PLANE)


def _geometry(gate: Gate):
    """The residual function of the gate's kind and the gate's arguments to
    it ahead of the points."""
    if isinstance(gate, BallGate):
        return _ball_residual, (gate.center, gate.radius)
    if gate.is_planar:
        return _polygon_residual, (*gate.halfspaces, *gate.plane)
    return _polyhedron_residual, gate.halfspaces


def contains(gate: Gate, p):
    """Containment residual, <= 0 iff p is inside the gate (and on-plane for
    polygons): float for a (3,) point, (N,) for (N, 3) points.  1-Lipschitz
    in the point."""
    residual, geometry = _geometry(gate)
    res = residual(*geometry, np.asarray(p, dtype=float))
    return res if np.ndim(res) else float(res)


def containment(gates, which):
    """The function of points p, (n, 3), whose value i is
    ``contains(gates[which[i]], p[i])``, bit for bit.

    Each kind of gate runs its arithmetic once, on the geometry of the
    gates in ``which`` stacked and gathered per point.  Polytopes of one
    kind are padded to its largest halfspace count by repeating their own
    rows, which leaves each max as it is.
    """
    kinds = {}
    for g in np.unique(which):
        residual, geometry = _geometry(gates[g])
        kinds.setdefault(residual, []).append((g, geometry))
    parts = []
    for residual, members in kinds.items():
        index = np.array([g for g, _ in members])
        rows = np.flatnonzero(np.isin(which, index))
        at = np.searchsorted(index, which[rows])
        stacked = []
        for column in zip(*(geometry for _, geometry in members)):
            shape = max(map(np.shape, column))
            stacked.append(np.array([np.resize(a, shape) for a in column])[at])
        parts.append((rows, residual, stacked))

    def measure(p):
        res = np.empty(len(which))
        for rows, residual, stacked in parts:
            res[rows] = residual(*stacked, p[rows])
        return res
    return measure


def contains_floor(gate: Gate):
    """A centre c and numbers mu > 0 and beta with
    ``contains(gate, p) >= mu |p - c| - beta`` for every p.

    A ball gives (centre, 1, radius).  A polytope's residual is the largest
    of a_i . p - b_i over unit normals a_i (a polygon's plane adds the rows
    +-normal, offsets +-off + EPS_PLANE), so with c its vertex centroid it
    is at least max_i a_i . (p - c) - beta, beta = max_i (b_i - a_i . c).
    And max_i a_i . u >= mu |u| for mu the least distance from the origin to
    a facet of the normals' convex hull.
    """
    if isinstance(gate, BallGate):
        return gate.center, 1.0, gate.radius
    a_mat, b_vec = gate.halfspaces
    if gate.is_planar:
        normal, off = gate.plane
        a_mat = np.vstack([a_mat, normal, -normal])
        b_vec = np.append(b_vec, [off + EPS_PLANE, EPS_PLANE - off])
    mu = -ConvexHull(a_mat).equations[:, 3].max()
    center = gate_center(gate)
    return center, float(mu), float(np.max(b_vec - a_mat @ center))


def gate_center(gate: Gate) -> np.ndarray:
    """Ball center / polytope vertex centroid (surjection image of d = 0)."""
    if isinstance(gate, BallGate):
        return gate.center.copy()
    return gate.vertices.mean(axis=0)


# ---------------------------------------------------------------------------
# surjective parameter maps

def _ball_map(center, radius, d):
    """Map each row of d, (N, 4), onto a ball: centers (G, 3) and radii (G,),
    one per gate of a group, broadcast against the rows of d (G is N or 1).
    Returns the points (N, 3) and Jacobians (N, 3, 4)."""
    q = np.einsum("ni,ni->n", d, d) + 1.0
    scale = 2.0 * radius / q
    p = center + scale[:, None] * d[:, :3]
    jac = np.zeros((len(d), 3, 4))
    jac[:, :, :3] = scale[:, None, None] * np.eye(3)[None]
    jac -= (2.0 * scale / q)[:, None, None] * (d[:, :3, None] * d[:, None, :])
    return p, jac


def _polytope_map(vertices, d):
    """Map each row of d, (N, v), onto a polytope through normalized squared
    weights: vertices (G, v, 3), one set per gate of a group, broadcast
    against the rows of d (G is N or 1).  Returns the points (N, 3) and
    Jacobians (N, 3, v); d = 0 maps to the vertex centroid with a zero
    Jacobian by convention."""
    v = d.shape[1]
    s = np.einsum("ni,ni->n", d, d)
    zero = s == 0.0
    s_safe = np.where(zero, 1.0, s)
    w = d * d / s_safe[:, None]
    w[zero] = 1.0 / v
    p = np.matmul(w[:, None], vertices)[:, 0]
    # dw_i/dd_k = 2 d_i delta_ik / s - 2 d_k w_i / s
    dw = 2.0 * (d[:, :, None] * np.eye(v)) / s_safe[:, None, None]
    dw -= 2.0 * (w[:, :, None] * d[:, None, :]) / s_safe[:, None, None]
    dw[zero] = 0.0
    jac = np.einsum("...ic,...ik->...ck", vertices, dw)
    return p, jac


def surject(gate: Gate, d):
    """Map each row of d, (N, param_dim), into the gate with the group map
    that :func:`decode` runs.  Returns the points (N, 3) and the exact
    Jacobians dp/dd, (N, 3, param_dim)."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[1] != gate.param_dim:
        raise ValidationError(f"gate parameters must be (N, {gate.param_dim})")
    (_, _, group_map), = GateSequence((gate,)).groups
    return group_map(d)


# At a huge |K| both np.where branches overflow; T saturates at +inf or 0.
@np.errstate(over="ignore", invalid="ignore")
def time_map(K):
    """Unconstrained variable -> strictly positive duration, C^2, T(0) = 1.

    Returns (T, dT/dK) as arrays of K's shape.
    """
    k = np.asarray(K, dtype=float)
    pos = k >= 0
    t = np.where(pos, 0.5 * k * k + k + 1.0, 2.0 / (k * k - 2.0 * k + 2.0))
    dt = np.where(pos, k + 1.0, (4.0 - 4.0 * k) / (k * k - 2.0 * k + 2.0) ** 2)
    return t, dt


@np.errstate(over="ignore", invalid="ignore")
def time_map_inverse(T):
    """Exact inverse of time_map's duration component."""
    t = np.asarray(T, dtype=float)
    if np.any(t <= 0):
        raise ValidationError("durations must be positive")
    return np.where(
        t >= 1.0,
        -1.0 + np.sqrt(np.maximum(2.0 * t - 1.0, 0.0)),
        1.0 - np.sqrt(np.maximum(2.0 / t - 1.0, 0.0)),
    )


def decode(seq: GateSequence, dec: DecisionVector):
    """Decision variables -> waypoints, durations and their Jacobians.

    Returns (P (L,3), T (L+1,), jacs, dT_dK (L+1,)), where jacs[k] holds the
    (G, 3, dim) Jacobians of the gates in ``seq.groups[k]``.
    """
    if dec.D.shape != (seq.offsets[-1][1],) or len(dec.K) != len(seq) + 1:
        raise ValidationError("decision vector does not match gate sequence")
    waypoints = np.empty((len(seq), 3))
    jacs = []
    for index, columns, surject in seq.groups:
        waypoints[index], jac = surject(dec.D[columns])
        jacs.append(jac)
    durations, dt_dk = time_map(dec.K)
    return waypoints, durations, jacs, dt_dk


# ---------------------------------------------------------------------------
# margin shrinking

def _chebyshev_center(a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    from scipy.optimize import linprog  # here, not at import: few gates need it
    # max r s.t. A x + r <= b (rows unit-norm)
    c = np.array([0.0, 0.0, 0.0, -1.0])
    a_ub = np.hstack([a_mat, np.ones((len(a_mat), 1))])
    res = linprog(c, A_ub=a_ub, b_ub=b_vec, bounds=[(None, None)] * 3 + [(0, None)])
    if not res.success:
        raise ValidationError("could not compute polyhedron center")
    return res.x[:3]


def shrink_margin(gate: Gate, margin: float) -> Gate:
    """Shrink a gate so its boundary retreats by the safety margin.

    The margin is a diameter-style allowance: opposite faces of a polytope
    each retreat by margin/2 (a 2.4 m square becomes 2.1 m under a 0.3 m
    margin) and a ball loses the full margin from its radius.
    """
    if margin < 0:
        raise ValidationError("margin must be >= 0")
    if margin == 0:
        return gate
    if isinstance(gate, BallGate):
        if margin > gate.radius:
            raise ValidationError("margin exceeds ball radius")
        return BallGate(center=gate.center, radius=gate.radius - margin)

    a_mat, b_vec = gate.halfspaces
    if gate.is_planar:
        basis = np.linalg.svd(gate.vertices - gate.vertices.mean(axis=0))[2][:2].T
        pts2 = (gate.vertices - gate.vertices.mean(axis=0)) @ basis
        # Area centroid of the convex polygon via the fan of triangles from
        # its first hull vertex; an axis-0 sum adds the triangles in order.
        ring = pts2[ConvexHull(pts2).vertices]
        p0, p1, p2 = ring[0], ring[1:-1], ring[2:]
        u, w = p1 - p0, p2 - p0
        area = 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
        sums = np.column_stack([area, area[:, None] * (p0 + p1 + p2) / 3.0]
                               ).sum(axis=0)
        center = gate.vertices.mean(axis=0) + basis @ (sums[1:] / sums[0])
    else:
        center = _chebyshev_center(a_mat, b_vec)

    r_faces = b_vec - a_mat @ center
    r_min = float(np.min(r_faces))
    lam = 1.0 - margin / (2.0 * r_min)
    if lam <= 0:
        raise ValidationError("margin consumes the polytope gate")
    new_vertices = center[None, :] + lam * (gate.vertices - center[None, :])
    return PolytopeGate.from_vertices(new_vertices, planar=gate.is_planar)
