"""Planar helpers: convex hulls, point/hull distances, Hausdorff gaps."""

from __future__ import annotations

import numpy as np


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


def point_in_convex_hull(p, hull: np.ndarray) -> bool:
    """Membership in the filled hull (degenerate hulls included)."""
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if len(hull) == 1:
        return bool(np.allclose(p, hull[0]))
    if len(hull) == 2:
        return point_segment_distance(p, hull[0], hull[1]) == 0.0
    for i in range(len(hull)):
        if _cross(hull[i], hull[(i + 1) % len(hull)], p) < 0.0:
            return False
    return True


def distance_to_hull(p, hull: np.ndarray) -> float:
    """Distance from a point to the filled convex hull (0 if inside)."""
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if len(hull) == 1:
        return float(np.linalg.norm(p - hull[0]))
    if len(hull) == 2:
        return point_segment_distance(p, hull[0], hull[1])
    if point_in_convex_hull(p, hull):
        return 0.0
    return min(
        point_segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def interior_margin(p, hull: np.ndarray) -> float:
    """Signed distance to the hull boundary: positive inside, negative out.

    Heuristic indicator only; degenerate hulls give -distance.
    """
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if len(hull) <= 2:
        return -distance_to_hull(p, hull)
    d_boundary = min(
        point_segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )
    return d_boundary if point_in_convex_hull(p, hull) else -d_boundary


def hausdorff_gap(hull_a: np.ndarray, hull_b: np.ndarray) -> float:
    """Hausdorff distance between two filled convex hulls.

    For convex sets the sup over one set of the distance to the other is
    attained at a vertex, so checking vertices is exact.
    """
    hull_a = np.asarray(hull_a, dtype=float)
    hull_b = np.asarray(hull_b, dtype=float)
    d_ab = max(distance_to_hull(p, hull_b) for p in hull_a)
    d_ba = max(distance_to_hull(p, hull_a) for p in hull_b)
    return max(d_ab, d_ba)
