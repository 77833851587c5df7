"""Minimum-control piecewise-polynomial flat-output trajectories.

The spline of smoothness order s uses degree 2s-1 pieces and is the unique
polynomial satisfying boundary derivatives 0..s-1 at both ends, position
interpolation at interior waypoints, and derivative continuity through order
2s-2 at junctions.  Construction solves one banded linear system per flat
dimension; the cached factorization also drives the adjoint pass that maps
cost gradients on coefficients back onto waypoints and durations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from ._frozen import Frozen, freeze
from .errors import RaceplanError, ValidationError
from .gates import require_number

#: Per-segment duration above which the power basis is too ill-conditioned.
MAX_SEGMENT_DURATION = 60.0
#: Smoothness order s (minimum snap); each piece has NCOEF = 2s coefficients.
S = 3
NCOEF = 2 * S
#: Falling factorials m!/(m-k)!: row k, column m, zero where m < k.
_FALLING = freeze(np.array([[math.perm(m, k) for m in range(NCOEF)]
                            for k in range(NCOEF)], float))


@dataclass(frozen=True)
class BoundaryCondition(Frozen):
    """Position and its derivatives 1..s-1 at an endpoint, (s, 3)."""

    derivatives: np.ndarray

    def __post_init__(self):
        d = require_number(self.derivatives, "boundary condition", shape=(None, 3))
        object.__setattr__(self, "derivatives", freeze(d.copy()))

    @classmethod
    def hover(cls, position) -> "BoundaryCondition":
        d = np.zeros((S, 3))
        d[0] = position
        return cls(d)


def _basis(t, max_order: int, min_order: int = 0) -> np.ndarray:
    """Rows of d^k/dt^k [1, t, .., t^(2s-1)] for k = min_order..max_order at
    a batch of times; (N, max_order+1-min_order, 2s), row i holding order
    min_order + i.  Entry (k, m) is m!/(m-k)! t^(m-k)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rows, n = max_order + 1 - min_order, len(t)
    # Stored order-major so that each order's (N, 2s) slice is contiguous.
    # Entry (k, i, m), for order k = min_order + r, sits at flat index
    # r (N 2s + 1) + i 2s + min_order + p with p = m - k.  So the entries of
    # one power p, over all orders, are one strided view, which takes t^p in
    # one write; the entries with m < k stay +0.0.  The padding keeps the
    # last order's view in bounds.
    size = rows * n * NCOEF
    flat = np.zeros(size + rows + NCOEF)
    for p in range(NCOEF - min_order):
        orders = min(rows, NCOEF - min_order - p)
        start = min_order + p
        column = flat[start:start + orders * (n * NCOEF + 1)].reshape(orders, -1)
        column[:, :n * NCOEF:NCOEF] = t ** p
    table = flat[:size].reshape(rows, n, NCOEF)
    # Orders of 2s and above stay zero.
    top = min(max_order + 1, NCOEF)
    table[:top - min_order] *= _FALLING[min_order:top, None]
    return table.swapaxes(0, 1)


@dataclass
class TrajectorySpline:
    """Piecewise polynomial in local time per segment, power basis."""

    durations: np.ndarray       # (L+1,)
    coefficients: np.ndarray    # (L+1, 2s, 3)
    waypoints: np.ndarray       # (L, 3) interpolated positions at junctions
    _factor: tuple = field(repr=False)  # (lu, ipiv, kl, ku)
    _at_end: np.ndarray = field(repr=False)  # _basis(durations, 2s-1)

    @property
    def total_time(self) -> float:
        return float(np.sum(self.durations))

    @property
    def junction_times(self) -> np.ndarray:
        return np.cumsum(self.durations)[:-1]

    # -- evaluation -------------------------------------------------------

    def locate(self, ts: np.ndarray):
        """Segment index and local time for each query time."""
        ts = np.asarray(ts, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.durations)])
        if np.any(ts < -1e-9) or np.any(ts > cum[-1] + 1e-9):
            raise ValidationError("evaluation time outside [0, total_time]")
        idx = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0,
                      len(self.durations) - 1)
        return idx, np.clip(ts - cum[idx], 0.0, None)

    def eval_local(self, seg_idx, local, max_order: int,
                   min_order: int = 0) -> np.ndarray:
        """Evaluate orders min_order..max_order on given segments at local
        times; (N, max_order+1-min_order, 3)."""
        coeffs = self.segment_coefficients(seg_idx)
        basis = _basis(local, max_order, min_order)
        out = np.empty((len(basis), max_order + 1 - min_order, 3))
        for row in range(out.shape[1]):
            out[:, row] = np.einsum("nm,nmd->nd", basis[:, row], coeffs)
        return out

    def segment_coefficients(self, seg_idx) -> np.ndarray:
        """The values of ``coefficients[seg_idx]``, (N, 2s, 3), with the
        coefficient axis at an 8-byte stride, as in LAPACK's F-ordered
        solution: einsums over that axis round by their operands' strides,
        and a C-contiguous gather changes their last bits."""
        return np.take(self.coefficients.transpose(2, 0, 1), np.asarray(seg_idx),
                       axis=1).transpose(1, 2, 0)

    def eval_batch(self, ts, max_order: int) -> np.ndarray:
        """Position derivatives, shape (N, max_order+1, 3)."""
        idx, local = self.locate(np.atleast_1d(ts))
        return self.eval_local(idx, local, max_order)


@functools.lru_cache(maxsize=None)
def _band_layout(num_seg: int):
    """For num_seg segments, the flat position of each entry of construct's
    band matrix in Fortran order, and its flat index into
    [_basis(T, 2s-2), k!, -k!]."""
    s, ncoef, n = S, NCOEF, NCOEF * num_seg
    # Rows: the start boundary (orders 0..s-1 of segment 0 at t = 0); per
    # junction j between segments j and j+1, position interpolation then
    # continuity of orders 0..2s-2 (segment j at T_j minus segment j+1 at 0);
    # the end boundary (orders 0..s-1 of the last segment at its T).
    k = np.arange(ncoef - 1)  # derivative orders
    m = np.arange(ncoef)      # coefficient index within a segment
    j = np.arange(num_seg - 1)[:, None]
    r0 = s + ncoef * j
    at_end = np.arange(num_seg * (ncoef - 1) * ncoef).reshape(num_seg, ncoef - 1, ncoef)
    at0 = at_end.size + k     # k! at t = 0; -k! follows at at0 + 2s-1
    blocks = (  # (rows, columns, sources), broadcast against each other
        (k[:s], k[:s], at0[:s]),
        (r0[..., None] + m[:, None], ncoef * j[..., None] + m, at_end[:-1, np.r_[0, k]]),
        (r0 + 1 + k, ncoef * (j + 1) + k, at0 + ncoef - 1),
        (n - s + k[:s, None], n - ncoef + m, at_end[-1, :s]),
    )
    rows, cols, sources = (np.concatenate(parts) for parts in zip(*(
        [a.ravel() for a in np.broadcast_arrays(*block)] for block in blocks)))
    # Read-only: every later construct with this segment count shares them.
    band_rows = 3 * (3 * s - 1) + 1  # 2 kl + ku + 1
    return freeze((cols * band_rows + 2 * (3 * s - 1) + rows - cols,  # row kl + ku + i - j
                   sources))


def construct(P, T, bc0: BoundaryCondition, bcf: BoundaryCondition) -> TrajectorySpline:
    """Build the minimum-control spline through waypoints P with durations T."""
    T = require_number(T, "durations", 0, MAX_SEGMENT_DURATION, "(]", shape=(None,))
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3:
        raise ValidationError("waypoints must be (L, 3)")
    num_seg = len(T)
    if num_seg != len(P) + 1:
        raise ValidationError("need exactly len(P)+1 durations")
    s, ncoef = S, NCOEF
    if bc0.derivatives.shape[0] != s or bcf.derivatives.shape[0] != s:
        raise ValidationError("boundary conditions must provide s rows")

    n = ncoef * num_seg
    kl = ku = 3 * s - 1
    rhs = np.zeros((n, 3))
    rhs[:s] = bc0.derivatives
    rhs[s:n - s:ncoef] = P
    rhs[n - s:] = bcf.derivatives
    positions, sources = _band_layout(num_seg)
    factorials = np.diagonal(_FALLING)[:-1]
    at_end = _basis(T, ncoef - 1)  # the adjoint reads orders 1..2s-1
    values = np.concatenate([at_end[:, :-1].ravel(), factorials, -factorials])
    # In Fortran order, as dgbtrf takes it, so that it factors ab in place
    # rather than a copy; ab.T is C-contiguous, as np.put needs.
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    np.put(ab.T, positions, values[sources])

    lu, ipiv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info != 0:
        raise RaceplanError(f"banded factorization failed (info={info})")
    sol, info = lapack.dgbtrs(lu, kl, ku, rhs, ipiv)
    if info != 0:
        raise RaceplanError("banded solve failed")

    coeffs = sol.reshape(num_seg, ncoef, 3)
    return TrajectorySpline(
        durations=T.copy(),
        coefficients=coeffs,
        waypoints=P.copy(),
        _factor=(lu, ipiv, kl, ku), _at_end=at_end,
    )


def propagate_gradients(spline: TrajectorySpline, dJ_dC, dJ_dT_direct):
    """Adjoint of the construction: gradients on coefficients and durations
    become gradients on waypoints (L, 3) and durations (L+1,)."""
    lu, ipiv, kl, ku = spline._factor
    s, ncoef = S, NCOEF
    num_seg = len(spline.durations)
    n = ncoef * num_seg

    dJ_dC = np.asarray(dJ_dC, dtype=float).reshape(n, 3)
    dJ_dT_direct = np.asarray(dJ_dT_direct, dtype=float)
    if len(dJ_dT_direct) != num_seg:
        raise ValidationError("dJ_dT_direct must have one entry per segment")

    lam, info = lapack.dgbtrs(lu, kl, ku, dJ_dC, ipiv, trans=1)
    if info != 0:
        raise RaceplanError("adjoint banded solve failed")

    # d/dT of every T-dependent row bumps its derivative order by one on the
    # segment that ends there: junction rows (position, then continuity
    # orders 0..2s-2) take orders 1, 1, 2, .., 2s-1; end rows take 1..s.
    at_end = spline._at_end[:, 1:]  # orders 1..2s-1
    junction = _row_sums(lam[s:n - s].reshape(num_seg - 1, ncoef, 3),
                         at_end[:-1, np.r_[0, :ncoef - 1]], spline.coefficients[:-1])
    end = _row_sums(lam[None, n - s:], at_end[-1:, :s], spline.coefficients[-1:])
    dJ_dT = dJ_dT_direct - np.concatenate([junction, end])
    return lam[s:n - s:ncoef].copy(), dJ_dT


def _row_sums(lam, basis, coeffs):
    """Per segment, the sum over rows k of lam_k . (basis_k @ coeffs), added
    in row order, each dot as (p0 + p2) + p1: solves hinge on dJ/dT's last
    bits, and tests/test_spline.py pins this order.  lam (S, R, 3), basis
    (S, R, 2s), coeffs (S, 2s, 3)."""
    values = np.matmul(basis[:, :, None, :], coeffs[:, None])[:, :, 0]  # (S, R, 3)
    p = values * lam
    return np.cumsum((p[..., 0] + p[..., 2]) + p[..., 1], axis=1)[:, -1]
