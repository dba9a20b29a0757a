"""Invariant manifold growth and topologically transverse crossings.

Unstable/stable branches of a hyperbolic periodic point are grown as
polylines by iterating a short seed segment along the eigendirection with
adaptive preimage refinement.  Crossings between curves are validated by a
discretized rectangle test: a witness requires a strict side change across
the local manifold piece and an exit through a rectangle side in both
complementary components, so tangential touches never count.

Crossing search is a broad phase followed by a narrow phase.  The broad
phase pairs segments whose midpoints lie within half the sum of the two
curves' longest segments, which every strictly crossing pair does.  It asks
a `geometry.CellIndex` over the target's midpoints, built once per curve,
for the pairs within that radius of `midpoints - v` for a translate v.
The narrow phase tests strict crossings over all candidate pairs at once
and runs the rectangle walk only on true crossings, in (piece segment,
target segment) order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import CellIndex, row_dot
from .maps import LiftedTorusMap, require_finite
from .periodic import PeriodicPoint

DEFAULT_H_MAX = 1e-3
DEFAULT_DELTA_SEED = 1e-6
DEFAULT_BUDGET = 200.0
VERTEX_CAP = 2_000_000
MIXING_SAMPLES_PER_RADIUS = 8


class NonHyperbolicError(ValueError):
    pass


class GrowthError(RuntimeError):
    pass


@dataclass(frozen=True)
class ManifoldCurve:
    """Polyline approximation of one branch of W^u or W^s."""

    owner: PeriodicPoint
    kind: str            # "unstable" | "stable"
    branch: str          # "+" | "-"
    vertices: np.ndarray
    arclength: float
    growth_log: tuple    # (iteration levels, refinement insertions)
    h_max: float

    def translated(self, v) -> "ManifoldCurve":
        return replace(self, vertices=self.vertices + np.asarray(v, dtype=float))

    @cached_property
    def segment_index(self) -> "_SegmentIndex":
        """Broad-phase index over the segment midpoints, built on first use
        and kept for the life of the curve (the vertices are never
        modified in place)."""
        return _SegmentIndex(self.vertices)


def _segment_lengths(pts: np.ndarray) -> np.ndarray:
    """Segment lengths of a polyline, sqrt(dx*dx + dy*dy) on the split
    coordinate differences: the bits of `np.linalg.norm` over the rows, at a
    quarter of its cost."""
    dx = np.diff(pts[:, 0])
    dy = np.diff(pts[:, 1])
    return np.sqrt(dx * dx + dy * dy)


class _SegmentIndex:
    """Segment midpoints of one polyline, their longest segment length and, on
    first use, a `CellIndex` of the midpoints with cells at least twice that."""

    def __init__(self, vertices: np.ndarray):
        self.midpoints = 0.5 * (vertices[:-1] + vertices[1:])
        self.max_len = float(np.max(_segment_lengths(vertices)))

    @cached_property
    def cells(self) -> CellIndex:
        return CellIndex(self.midpoints, 2.0 * self.max_len)


def polyline_curve(vertices, h_max: float = DEFAULT_H_MAX, kind: str = "unstable") -> ManifoldCurve:
    """Wrap a raw polyline as a curve (for tests and synthetic scans)."""
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
    arclength = float(np.sum(_segment_lengths(vertices)))
    owner = PeriodicPoint(
        point=vertices[0],
        period=1,
        translation=(0, 0),
        jacobian=np.eye(2),
        eigenvalues=np.array([1.0 + 0j, 1.0 + 0j]),
        classification="parabolic",
        residual=0.0,
    )
    return ManifoldCurve(
        owner=owner,
        kind=kind,
        branch="+",
        vertices=vertices,
        arclength=arclength,
        growth_log=(0, 0),
        h_max=h_max,
    )


def eigen_frame(pp: PeriodicPoint):
    """Unit eigenvectors (unstable, stable) and eigenvalues of Df^q(Q).

    The returned directions are normalized to point into the upper half
    plane when possible, else toward positive x.
    """
    if pp.classification != "hyperbolic_positive":
        raise NonHyperbolicError(
            "eigen frame requires a hyperbolic point with positive eigenvalues, got %s"
            % pp.classification
        )
    ev, V = np.linalg.eig(pp.jacobian)
    ev = ev.real
    V = V.real
    iu = int(np.argmax(ev))
    is_ = 1 - iu

    def orient(v):
        v = v / np.linalg.norm(v)
        if abs(v[1]) > 1e-14:
            return v if v[1] > 0 else -v
        return v if v[0] > 0 else -v

    return orient(V[:, iu]), orient(V[:, is_]), (float(ev[iu]), float(ev[is_]))


def _growth_maps(m: LiftedTorusMap, pp: PeriodicPoint):
    """g(z) = f^q(z) - (p, r) and its inverse."""
    q = pp.period
    pr = np.asarray(pp.translation, dtype=float)

    def g(z):
        z = np.asarray(z, dtype=float)
        for _ in range(q):
            z = m.forward(z)
        return z - pr

    def g_inv(w):
        w = np.asarray(w, dtype=float) + pr
        for _ in range(q):
            w = m.inverse(w)
        return w

    return g, g_inv


def grow_manifold(
    m: LiftedTorusMap,
    pp: PeriodicPoint,
    kind: str = "unstable",
    branch: str = "+",
    arclength_budget: float = DEFAULT_BUDGET,
    h_max: float = DEFAULT_H_MAX,
    delta_seed: float = DEFAULT_DELTA_SEED,
    vertex_cap: int = VERTEX_CAP,
) -> ManifoldCurve:
    """Grow one manifold branch to a target arclength.

    A seed segment [z0, g(z0)] along the eigendirection is iterated; every
    vertex is the exact image g^m of a seed-segment point, and midpoint
    preimages are inserted until adjacent image spacing is at most h_max.

    A level whose coarse (unrefined) cumulative length reaches the budget is
    the last one: it is truncated after the first coarse vertex whose
    cumulative length reaches the budget, and only that prefix is refined.
    Refinement only inserts points, so by the triangle inequality the
    refined cut lies inside the prefix, and the kept vertices, arclength and
    level equal those of refining the whole level (should rounding leave the
    refined prefix short of the budget, the curve ends at its last vertex).
    So `growth_log`'s insertion count covers only the kept prefix of the
    last level, and `vertex_cap` bounds the vertices kept from earlier
    levels plus that refined prefix; exceeding it raises `GrowthError`,
    never a partial curve.
    """
    if kind not in ("unstable", "stable"):
        raise ValueError("kind must be 'unstable' or 'stable'")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if min(arclength_budget, h_max, delta_seed) <= 0:
        raise ValueError("budget, h_max and delta_seed must be positive")
    u_dir, s_dir, (lam_u, lam_s) = eigen_frame(pp)
    g, g_inv = _growth_maps(m, pp)
    step = g if kind == "unstable" else g_inv
    direction = u_dir if kind == "unstable" else s_dir
    if branch == "-":
        direction = -direction

    Q = pp.point
    z0 = Q + delta_seed * direction
    z1 = step(z0)
    if arclength_budget < np.linalg.norm(z1 - z0):
        raise GrowthError("budget exhausted before the first fundamental-domain pass")

    def seed_point(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return z0[None, :] + t[:, None] * (z1 - z0)[None, :]

    def advance(P, times):
        for _ in range(times):
            P = step(P)
        return P

    # each level's new vertices as one 2-D chunk, joined once at the end
    chunks = [z0[None, :]]
    n_vertices = 1
    arclength = 0.0
    insertions = 0
    level = 0
    # level m spans g^m([z0, z1]); ends match up exactly between levels
    t = np.array([0.0, 1.0])
    pts = seed_point(t)
    while True:
        gaps = _segment_lengths(pts)
        cum = arclength + np.cumsum(gaps)
        last = cum[-1] >= arclength_budget
        if last:
            # the last level: refine only up to the first coarse vertex past the budget
            keep = int(np.searchsorted(cum, arclength_budget)) + 2
            t, pts, gaps = t[:keep], pts[:keep], gaps[: keep - 1]
        # refine until image spacing <= h_max
        while True:
            bad = np.nonzero(gaps > h_max)[0]
            if len(bad) == 0:
                break
            t_new = 0.5 * (t[bad] + t[bad + 1])
            resolvable = (t[bad + 1] - t[bad]) > 1e-14
            t_new = t_new[resolvable]
            if len(t_new) == 0:
                break
            p_new = advance(seed_point(t_new), level)
            insertions += len(t_new)
            # each t_new lies strictly between its neighbours, so inserting
            # by position keeps t sorted
            at = bad[resolvable] + 1
            t = np.insert(t, at, t_new)
            pts = np.insert(pts, at, p_new, axis=0)
            if n_vertices + len(t) > vertex_cap:
                raise GrowthError("refinement exceeded the vertex cap")
            gaps = _segment_lengths(pts)
        cum = arclength + np.cumsum(gaps)
        if last or cum[-1] >= arclength_budget:
            cut = min(int(np.searchsorted(cum, arclength_budget)), len(cum) - 1)
            chunks.append(pts[1 : cut + 2])
            arclength = float(cum[cut])
            break
        chunks.append(pts[1:])
        n_vertices += len(pts) - 1
        arclength = float(cum[-1])
        level += 1
        pts = advance(pts, 1)
    return ManifoldCurve(
        owner=pp,
        kind=kind,
        branch=branch,
        vertices=np.concatenate(chunks),
        arclength=arclength,
        growth_log=(level, insertions),
        h_max=h_max,
    )


@dataclass(frozen=True)
class CrossingWitness:
    """Rectangle evidence for a topologically transverse intersection."""

    location: np.ndarray
    translate: tuple
    rectangle: np.ndarray   # 4 corners, CCW in the local frame
    sides_hit: dict         # {"left": exit side, "right": exit side}
    piece_segment: int
    target_segment: int


def _segment_pairs(piece: ManifoldCurve, target: ManifoldCurve, v: np.ndarray):
    """Candidate (i, j) segment index pairs of piece and target + v whose
    midpoints are within half the sum of the longest segments of each, as
    int arrays in lexicographic order."""
    own, index = piece.segment_index, target.segment_index
    return index.cells.pairs(own.midpoints - v, 0.5 * (own.max_len + index.max_len) + 1e-12)


def _cross(o, p, q):
    return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])


def _strict_crossings(P: np.ndarray, T: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The candidate pairs whose segments P[i]P[i+1] and T[j]T[j+1] cross
    strictly, with their intersection points."""
    a, b, c, d = P[i], P[i + 1], T[j], T[j + 1]
    s1 = _cross(a, b, c)
    s2 = _cross(a, b, d)
    hit = (s1 * s2 < 0) & (_cross(c, d, a) * _cross(c, d, b) < 0)
    t = s1[hit] / (s1[hit] - s2[hit])
    c, d = c[hit], d[hit]
    return i[hit], j[hit], c + t[:, None] * (d - c)


def _local_piece(P: np.ndarray, i: int, x0: np.ndarray, half_len: float) -> np.ndarray:
    """Portion of polyline P around x0 on segment i, half_len arc each way."""
    fwd = [x0]
    acc = 0.0
    j = i + 1
    prev = x0
    while j < len(P) and acc < half_len:
        fwd.append(P[j])
        acc += float(np.linalg.norm(P[j] - prev))
        prev = P[j]
        j += 1
    bwd = []
    acc = 0.0
    j = i
    prev = x0
    while j >= 0 and acc < half_len:
        bwd.append(P[j])
        acc += float(np.linalg.norm(P[j] - prev))
        prev = P[j]
        j -= 1
    return np.asarray(bwd[::-1] + fwd)


def _piece_segments(piece: np.ndarray):
    """Start points, directions and squared lengths of the nonzero-length
    segments of a local polyline."""
    a = piece[:-1]
    d = piece[1:] - a
    L2 = row_dot(d, d)
    keep = L2 != 0.0
    return a[keep], d[keep], L2[keep]


def _side_of(x, segments):
    """Signed offset of x from the local polyline (sign by orientation),
    taken from the nearest of its `_piece_segments`, the first on ties."""
    a, d, L2 = segments
    t = np.clip(row_dot(x - a, d) / L2, 0.0, 1.0)
    off = x - (a + t[:, None] * d)
    k = int(np.argmin(np.sqrt(row_dot(off, off))))
    a, d = a[k], d[k]
    return (d[0] * (x[1] - a[1]) - d[1] * (x[0] - a[0])) / np.sqrt(L2[k])


def _walk_side(T, j_from, direction, c, tang, segments, ell, w):
    """Walk target polyline one way from a crossing until it exits the
    rectangle; return (side sign, exit side label) or None on tangency,
    recrossing, or a dead end inside the rectangle."""
    sgn = 0.0
    j = j_from
    while 0 <= j < len(T):
        x = T[j]
        u = float(tang @ (x - c))
        s = _side_of(x, segments)
        inside = abs(u) <= ell / 2 and abs(s) <= w / 2
        if s != 0.0:
            if sgn == 0.0:
                sgn = np.sign(s)
            elif np.sign(s) != sgn and inside:
                return None  # recrossed the piece inside the rectangle
        if not inside:
            if sgn == 0.0:
                if s == 0.0:
                    return None
                sgn = np.sign(s)
            label = "end" if abs(u) > ell / 2 else "far"
            return sgn, label
        j += direction
    return None  # polyline ends inside the rectangle


def detect_crossings(
    piece: ManifoldCurve,
    target: ManifoldCurve,
    translate=(0, 0),
    max_witnesses: int | None = None,
) -> list:
    """Topologically transverse intersections of piece with target + translate.

    Each geometric crossing is validated by a rectangle of length 10*h_max
    along the local piece and width 2*h_max across it; the target must
    change side strictly and reach a rectangle side in both components.
    An empty list means "not found at this resolution", never "absent".

    The broad phase queries target's cached segment index (see
    `ManifoldCurve.segment_index`) at the piece's midpoints minus the
    translate, so repeated calls on one target build it once.  The narrow
    phase keeps the strictly crossing candidate pairs and validates them
    in lexicographic (piece segment, target segment) order, stopping at
    max_witnesses.
    """
    P = piece.vertices
    v = np.asarray(translate, dtype=float)
    T = target.vertices + v
    if len(P) < 2 or len(T) < 2:
        raise ValueError("both curves need at least two vertices")
    h = piece.h_max
    ell = 10.0 * h
    w = 2.0 * h
    witnesses = []
    i_hit, j_hit, x_hit = _strict_crossings(P, T, *_segment_pairs(piece, target, v))
    for i, j, x0 in zip(i_hit.tolist(), j_hit.tolist(), x_hit):
        local = _piece_segments(_local_piece(P, i, x0, ell / 2))
        tang = P[i + 1] - P[i]
        tang = tang / np.linalg.norm(tang)
        fwd = _walk_side(T, j + 1, +1, x0, tang, local, ell, w)
        if fwd is None:
            continue
        bwd = _walk_side(T, j, -1, x0, tang, local, ell, w)
        if bwd is None:
            continue
        if fwd[0] * bwd[0] >= 0:
            continue  # tangential touch: both components on one side
        nrm = np.array([-tang[1], tang[0]])
        corners = np.array(
            [
                x0 - (ell / 2) * tang - (w / 2) * nrm,
                x0 + (ell / 2) * tang - (w / 2) * nrm,
                x0 + (ell / 2) * tang + (w / 2) * nrm,
                x0 - (ell / 2) * tang + (w / 2) * nrm,
            ]
        )
        left, right = (fwd, bwd) if fwd[0] > 0 else (bwd, fwd)
        witnesses.append(
            CrossingWitness(
                location=x0,
                translate=(int(translate[0]), int(translate[1])),
                rectangle=corners,
                sides_hit={"left": left[1], "right": right[1]},
                piece_segment=i,
                target_segment=j,
            )
        )
        if max_witnesses is not None and len(witnesses) >= max_witnesses:
            break
    return witnesses


def translate_scan(
    unstable: ManifoldCurve,
    stable: ManifoldCurve,
    half_range: int = 1,
    max_witnesses: int = 1,
) -> dict:
    """Crossing search of W^u against W^s + (a, b) over an integer box.

    Maps (a, b) to a witness list; an empty list means "not found at the
    current budget", which is distinct from absence.  One
    `detect_crossings` call per translate; all of them share the stable
    curve's segment index, so the broad phase builds it once per scan.
    """
    table = {}
    for a in range(-half_range, half_range + 1):
        for b in range(-half_range, half_range + 1):
            table[(a, b)] = detect_crossings(
                unstable, stable, translate=(a, b), max_witnesses=max_witnesses
            )
    return table


def mixing_probe(
    m: LiftedTorusMap,
    ball_u: tuple,
    ball_v: tuple,
    n_max: int = 200,
):
    """Probe topological mixing: does f^n(B_u) meet B_v for every large n?

    Samples ball_u on a disk grid, iterates, and records per-n hits on
    ball_v.  Returns (hits, n0) where n0 is the first index with an
    unbroken hit tail up to n_max, or None when the tail is broken.  A
    non-finite image raises FloatingPointError.
    """
    cu, ru = np.asarray(ball_u[0], float), float(ball_u[1])
    cv, rv = np.asarray(ball_v[0], float), float(ball_v[1])
    if ru <= 0 or rv <= 0:
        raise ValueError("ball radii must be positive")
    step = ru / MIXING_SAMPLES_PER_RADIUS
    g = np.arange(-MIXING_SAMPLES_PER_RADIUS, MIXING_SAMPLES_PER_RADIUS + 1) * step
    X, Y = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    pts = pts[np.linalg.norm(pts, axis=1) <= ru] + cu
    hits = np.zeros(n_max + 1, dtype=bool)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    for n in range(1, n_max + 1):
        m.step(x, y)
        require_finite(x, y)
        dx, dy = x - cv[0], y - cv[1]
        hits[n] = bool(np.any(np.sqrt(dx * dx + dy * dy) <= rv))
    n0 = None
    if hits[n_max]:
        n = n_max
        while n >= 1 and hits[n]:
            n -= 1
        n0 = n + 1
    return hits, n0
