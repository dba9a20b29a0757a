"""Planar helpers: convex hulls, hull margins, Hausdorff gaps, row dots,
column bounds, cell index."""

from __future__ import annotations

import numpy as np

# at most this many cells per axis (plus one) bound a CellIndex's offset table
GRID_CELLS_PER_AXIS = 2048


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped.

    Ties broken lexicographically.  Degenerate inputs give a single point or
    a two-point segment.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise ValueError("empty point set")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts
    hull = _monotone_chain(pts)
    if len(hull) == 2 and np.allclose(hull[0], hull[1]):
        hull = hull[:1]
    return np.asarray(hull)


def _monotone_chain(pts) -> list:
    """Andrew's monotone chain over distinct points sorted lexicographically:
    the hull vertices counterclockwise, collinear ones dropped.  Works on
    float rows and on exact rational tuples alike."""

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ d / L2, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


def interior_margin(p, hull: np.ndarray) -> float:
    """Signed distance to the hull boundary: positive inside, negative out.

    Heuristic indicator only; degenerate hulls (a point, a segment) give
    -distance, so max(0, -margin) is the distance to the filled hull.
    """
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    n = len(hull)
    edges = [(hull[i], hull[(i + 1) % n]) for i in range(n)] if n > 2 else [(hull[0], hull[-1])]
    d_boundary = min(point_segment_distance(p, a, b) for a, b in edges)
    inside = n > 2 and not any(_cross(a, b, p) < 0.0 for a, b in edges)
    return d_boundary if inside else -d_boundary


def hausdorff_gap(hull_a: np.ndarray, hull_b: np.ndarray) -> float:
    """Hausdorff distance between two filled convex hulls.

    For convex sets the sup over one set of the distance to the other is
    attained at a vertex, so checking vertices is exact.
    """
    hull_a = np.asarray(hull_a, dtype=float)
    hull_b = np.asarray(hull_b, dtype=float)
    return max(
        0.0,
        *(-interior_margin(p, hull_b) for p in hull_a),
        *(-interior_margin(p, hull_a) for p in hull_b),
    )


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of matching rows over the last axis, each rounded like
    the 1-D `a @ b` (the BLAS dot, which may fuse the multiply-add that a
    plain (A * B).sum(-1) rounds)."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]


def column_bounds(*arrays):
    """Per-column (lo, hi) over the rows of one or more (n, 2) arrays, as
    2-vectors: the values of `np.vstack(arrays).min(axis=0)` and `.max(axis=0)`,
    reduced one column at a time, which numpy does many times faster than
    an axis-0 reduction over (n, 2) rows."""
    lo = np.array([np.min([a[:, c].min() for a in arrays]) for c in (0, 1)])
    hi = np.array([np.max([a[:, c].max() for a in arrays]) for c in (0, 1)])
    return lo, hi


class CellIndex:
    """Points bucketed by square cell of side max(min_cell, extent /
    GRID_CELLS_PER_AXIS), or 1.0 if that is zero: cell c, by flat id x major,
    holds the points `order[offsets[c]:offsets[c + 1]]`, in input order."""

    def __init__(self, points, min_cell: float):
        self.points = pts = np.asarray(points, dtype=float).reshape(-1, 2)
        self.lo, hi = column_bounds(pts)
        self.cell = max(min_cell, float(np.max(hi - self.lo)) / GRID_CELLS_PER_AXIS) or 1.0
        cx, cy = (np.floor((pts[:, a] - self.lo[a]) / self.cell).astype(np.intp) for a in (0, 1))
        self.shape = np.array([cx.max(), cy.max()]) + 1
        flat = cx * self.shape[1] + cy
        self.order = np.argsort(flat, kind="stable")
        cells = self.shape[0] * self.shape[1]
        self.offsets = np.cumsum(np.bincount(flat + 1, minlength=cells + 1), dtype=np.int32)

    def pairs(self, queries, r: float):
        """Int arrays (i, j), in lexicographic order, of the queries i and
        points j with sqrt(dx*dx + dy*dy) <= r, (dx, dy) = point - query.
        A query scans one run per column of the cells its square of half side
        r touches, widened by a hair against rounding in cell coordinates.
        Where a subnormal cell overflows both the query's cell coordinate and
        the reach (inf - inf), the square spans the whole axis."""
        q = np.asarray(queries, dtype=float).reshape(-1, 2)
        span = []  # first and one-past-last cell of each square, x then y
        with np.errstate(over="ignore", invalid="ignore"):
            reach = r / self.cell * (1.0 + 1e-9) + 1e-9
            for axis in (0, 1):
                b = (q[:, axis] - self.lo[axis]) / self.cell
                top = float(self.shape[axis])
                # fmax/fmin drop a NaN edge: the first becomes 0, the last top
                first = np.fmin(np.fmax(np.floor(b - reach), 0.0), top)
                last = np.fmax(np.fmin(np.floor(b + reach) + 1.0, top), 0.0)
                span += [first.astype(np.intp), last.astype(np.intp)]
        x0, x1, y0, y1 = span
        k = np.repeat(np.arange(len(q)), x1 - x0)  # query of each scanned column
        base = _runs(x0, x1 - x0) * self.shape[1]
        start = self.offsets[base + y0[k]].astype(np.intp)
        n = self.offsets[base + y1[k]] - start
        i, j = np.repeat(k, n), self.order[_runs(start, n)]
        d = self.points[j] - q[i]
        near = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) <= r
        key = np.sort(i[near] * len(self.points) + j[near])
        return key // len(self.points), key % len(self.points)


def _runs(start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges start[k] ... start[k] + n[k] - 1, concatenated."""
    return np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)
