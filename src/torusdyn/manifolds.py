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
for the pairs within that radius of `midpoints - v` for a translate v,
which must be integer-valued.  The narrow phase tests strict crossings over
all candidate pairs at once, reading only the target rows it needs, plus v.
It then runs the rectangle walk on the true crossings as numpy arrays, in
blocks taken in (piece segment, target segment) order: one block without a
witness cap, else blocks of max_witnesses, 2*max_witnesses, ... hits until
the cap is met.  Each hit reads its local piece and its two target walks
through windows of polyline rows, clipped at the polyline ends.  A window
that leaves its part undecided is read again twice as wide, up to the
polyline's length, for the hits it failed alone: pieces first, then each
walk against its hit's whole piece, in chunks of bounded size.
Piece arc lengths are sqrt(row_dot(d, d)), the bits of `np.linalg.norm` on
each segment, summed left to right by `np.cumsum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CellIndex, row_dot
from .maps import LiftedTorusMap, NumericalAbort, require_finite
from .periodic import PeriodicPoint

DEFAULT_H_MAX = 1e-3
DEFAULT_DELTA_SEED = 1e-6
DEFAULT_BUDGET = 200.0
VERTEX_CAP = 2_000_000
MIXING_SAMPLES_PER_RADIUS = 8
# first window widths of the crossing walk, in vertices: per side of a local
# piece, and along a target walk; each doubles for a hit it leaves undecided
PIECE_WINDOW = 16
WALK_WINDOW = 4
SIDE_BATCH = 1 << 20  # (walk vertex, piece segment) pairs per side-offset chunk


class NonHyperbolicError(ValueError):
    pass


class GrowthError(NumericalAbort):
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


def _strict_crossings(P: np.ndarray, T: np.ndarray, v: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The candidate pairs whose segments P[i]P[i+1] and T[j]T[j+1] + v cross
    strictly, with their intersection points."""
    a, b, c, d = P[i], P[i + 1], T[j] + v, T[j + 1] + v
    s1 = _cross(a, b, c)
    s2 = _cross(a, b, d)
    hit = (s1 * s2 < 0) & (_cross(c, d, a) * _cross(c, d, b) < 0)
    t = s1[hit] / (s1[hit] - s2[hit])
    c, d = c[hit], d[hit]
    return i[hit], j[hit], c + t[:, None] * (d - c)


def _window(n: int, start: np.ndarray, step: int, width: int):
    """Rows start, start + step, ... (width of them) for each hit, clipped to
    a polyline of n vertices, and the mask of the rows inside it."""
    rows = start[:, None] + step * np.arange(width)
    return np.clip(rows, 0, n - 1), (rows >= 0) & (rows < n)


def _local_pieces(P: np.ndarray, i: np.ndarray, x0: np.ndarray, half: float):
    """Each hit's local piece: P around x0 on segment i, the vertices of P
    out to where the arc from x0 first reaches half, each way.

    Reads windows of PIECE_WINDOW rows per side, doubled (up to len(P)) for
    the hits whose windows end before their cut or the polyline's end; arc
    lengths are the cumulative sums of sqrt(row_dot(d, d)).  Yields the hits
    decided together with their segments in piece order as start points,
    directions, squared lengths (1 where masked) and the mask of kept
    nonzero-length ones, trimmed to the longest kept run on each side."""
    pending, width = np.arange(len(i)), PIECE_WINDOW
    while len(pending):
        width = min(width, len(P))
        parts = []
        for start, step in ((i[pending], -1), (i[pending] + 1, 1)):
            rows, kept = _window(len(P), start, step, width)
            V = P[rows]
            prev = np.concatenate([x0[pending, None], V[:, :-1]], axis=1)
            # each segment runs from the earlier to the later vertex of the piece
            a, d = (V, prev - V) if step < 0 else (prev, V - prev)
            L2 = row_dot(d, d)
            arc = np.cumsum(np.sqrt(L2), axis=1)
            kept[:, 1:] &= arc[:, :-1] < half
            parts.append((a, d, L2, kept))
        done = ~parts[0][3][:, -1] & ~parts[1][3][:, -1]
        if done.any():
            cut = [np.flatnonzero(part[3][done].any(axis=0))[-1] + 1 for part in parts]
            # backward side farthest first, then forward
            a, d, L2, kept = (
                np.concatenate([b[done, : cut[0]][:, ::-1], f[done, : cut[1]]], axis=1) for b, f in zip(*parts)
            )
            keep = kept & (L2 != 0.0)
            yield pending[done], (a, d, np.where(keep, L2, 1.0), keep)
        pending, width = pending[~done], 2 * width


def _side_offsets(X: np.ndarray, a, d, L2, keep) -> np.ndarray:
    """Signed offsets (sign by orientation) of walk vertices X[h, k] from hit
    h's local piece, each taken from its nearest kept segment, the first on
    ties (masked segments lie at +inf).  The (hit, vertex) rows go in chunks
    of at most SIDE_BATCH (vertex, segment) pairs, or one row when a single
    row's segments outnumber it."""
    x = X.reshape(-1, 2)
    hit = np.repeat(np.arange(len(X)), X.shape[1])
    s = np.empty(len(x))
    step = max(1, SIDE_BATCH // a.shape[1])
    for lo in range(0, len(x), step):
        r = slice(lo, lo + step)
        xr, hr = x[r], hit[r]
        ah, dh = a[hr], d[hr]
        t = np.clip(row_dot(xr[:, None] - ah, dh) / L2[hr], 0.0, 1.0)
        off = xr[:, None] - (ah + t[..., None] * dh)
        near = np.argmin(np.where(keep[hr], np.sqrt(row_dot(off, off)), np.inf), axis=1)
        ak, dk = a[hr, near], d[hr, near]
        s[r] = (dk[:, 0] * (xr[:, 1] - ak[:, 1]) - dk[:, 1] * (xr[:, 0] - ak[:, 0])) / np.sqrt(L2[hr, near])
    return s.reshape(X.shape[:2])


def _walk(T, v, start, step, x0, tang, segments, half, w):
    """Walk target + v from rows `start` one `step` at a time until it leaves
    each hit's rectangle.  Returns the first nonzero side sign up to the exit
    (0 when there is none, on a recrossing inside the rectangle and at a
    dead end at the polyline's end) and whether the exit is through an end
    (|u| > half) or a far side.  Reads windows of WALK_WINDOW rows, doubled
    (up to len(T)) for the walks they leave undecided."""
    sgn = np.zeros(len(start))
    end = np.zeros(len(start), dtype=bool)
    pending, width = np.arange(len(start)), WALK_WINDOW
    while len(pending):
        h, width = pending, min(width, len(T))
        rows, valid = _window(len(T), start[h], step, width)
        X = T[rows] + v
        u = row_dot(X - x0[h, None], tang[h, None])
        s = _side_offsets(X, *(part[h] for part in segments))
        out = valid & ~((np.abs(u) <= half) & (np.abs(s) <= w / 2))
        exit_ = np.argmax(out, axis=1)  # the first vertex outside
        n, k = np.arange(len(h)), np.arange(width)
        exited = out[n, exit_]
        signed = (s != 0.0) & (k <= exit_[:, None])
        first = np.sign(s[n, np.argmax(signed, axis=1)])  # the first nonzero side
        recross = signed & (k < exit_[:, None]) & (np.sign(s) != first[:, None])
        ok = exited & signed.any(axis=1) & ~recross.any(axis=1)
        sgn[h], end[h] = np.where(ok, first, 0.0), np.abs(u[n, exit_]) > half
        pending, width = h[~(exited | ~valid[:, -1])], 2 * width
    return sgn, end


def _validate(P, T, v, i, j, x0, ell, w):
    """Rectangle walks of a block of strict crossings: the forward and
    backward side signs and end exits per hit, each walk against its hit's
    whole local piece."""
    d = P[i + 1] - P[i]
    tang = d / np.sqrt(row_dot(d, d))[:, None]
    sgn = np.zeros((2, len(i)))
    end = np.zeros((2, len(i)), dtype=bool)
    for h, segments in _local_pieces(P, i, x0, ell / 2):
        for side, start, step in ((0, j[h] + 1, 1), (1, j[h], -1)):
            sgn[side, h], end[side, h] = _walk(T, v, start, step, x0[h], tang[h], segments, ell / 2, w)
    return tang, sgn, end


def _witnesses(P, T, v, i, j, x0, h, label) -> list:
    """The witnesses among a block of strict crossings, in block order."""
    ell = 10.0 * h
    w = 2.0 * h
    tang, (fwd, bwd), (fwd_end, bwd_end) = _validate(P, T, v, i, j, x0, ell, w)
    good = np.nonzero(fwd * bwd < 0)[0]  # strict side change: not a tangential touch
    a = (ell / 2) * tang[good]
    b = (w / 2) * np.stack([-tang[good, 1], tang[good, 0]], axis=1)
    x = x0[good]
    corners = np.stack([x - a - b, x + a - b, x + a + b, x - a + b], axis=1)
    left = np.where(fwd > 0, fwd_end, bwd_end)[good].tolist()
    right = np.where(fwd > 0, bwd_end, fwd_end)[good].tolist()
    exits = ("far", "end")
    return [
        CrossingWitness(
            location=x0[k],
            translate=label,
            rectangle=corners[n],
            sides_hit={"left": exits[left[n]], "right": exits[right[n]]},
            piece_segment=int(i[k]),
            target_segment=int(j[k]),
        )
        for n, k in enumerate(good.tolist())
    ]


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
    The translate must be integer-valued (it labels the witnesses), and
    max_witnesses, when given, positive.

    The broad phase queries target's cached segment index (see
    `ManifoldCurve.segment_index`) at the piece's midpoints minus the
    translate, so repeated calls on one target build it once.  The narrow
    phase keeps the strictly crossing candidate pairs and validates them as
    arrays, in blocks taken in lexicographic (piece segment, target segment)
    order: all at once without max_witnesses, else a first block of
    max_witnesses hits and each later one twice as large, stopping once
    max_witnesses are found.  Each hit's local piece and target walks are
    read through windows of piece and target rows, each grown by doubling
    for the hits it leaves undecided; piece arc lengths are
    sqrt(row_dot(d, d)), the bits of `np.linalg.norm` on each segment.
    """
    P, T = piece.vertices, target.vertices
    v = np.asarray(translate, dtype=float)
    if not np.all(np.isfinite(v) & (v == np.floor(v))):
        raise ValueError("translate must be integer-valued, got %r" % (translate,))
    if max_witnesses is not None and max_witnesses < 1:
        raise ValueError("max_witnesses must be positive or None")
    if len(P) < 2 or len(T) < 2:
        raise ValueError("both curves need at least two vertices")
    label = (int(v[0]), int(v[1]))
    i_hit, j_hit, x_hit = _strict_crossings(P, T, v, *_segment_pairs(piece, target, v))
    limit = len(i_hit) if max_witnesses is None else max_witnesses
    witnesses = []
    lo, size = 0, limit
    while lo < len(i_hit) and len(witnesses) < limit:
        k = slice(lo, lo + size)
        witnesses += _witnesses(P, T, v, i_hit[k], j_hit[k], x_hit[k], piece.h_max, label)
        lo, size = lo + size, 2 * size
    return witnesses[:limit]


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
    curve's segment index, so the broad phase builds it once per scan.  A
    negative half_range raises ValueError rather than scan an empty box.
    """
    if half_range < 0:
        raise ValueError("half_range must be nonnegative, got %r" % (half_range,))
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
    non-finite image raises NonFiniteImageError.
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
