"""Subshifts of finite type with vector edge weights, in exact rationals.

For a strongly connected graph the rotation set of the weighted subshift is
the convex hull of simple-cycle mean weights.  A rational vector rho
strictly inside it is realized by a periodic word whose partial weight sums
stay within an explicit constant of n * rho for every n, once rho is written
as a combination of at most three simple cycles linked by shared vertices.
The search is limited to such combinations, so on any graph, strongly
connected or not, a point inside the hull can have none (NoCycleCombination).
It takes the first combination in lexicographic order of cycle indices, by
size: one cycle or a pair is looked up through an index of the directions
from rho to the cycle means, and triples are scanned.  Arithmetic is exact:
the searches run on the cycle means times one common denominator, as ints.

Edges are stored as a list and may be parallel (several edges between the
same vertex pair, e.g. two self-loops on one vertex); cycles and words are
sequences of edge indices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations

from .geometry import _cross, _monotone_chain
from .maps import NumericalAbort

DEFAULT_CYCLE_CAP = 10000

Vec = tuple  # (Fraction, Fraction)


class CycleCapExceeded(NumericalAbort):
    """More simple cycles than the cap: the hull would be partial."""


class NoCycleCombination(NumericalAbort):
    """rho lies inside the hull, but no vertex-connected combination of at
    most three simple cycles realizes it."""


@dataclass(frozen=True)
class WeightedSft:
    """Directed multigraph on vertices 0..n-1 with a weight per edge."""

    n: int
    edges: tuple  # ((i, j, (Fraction, Fraction)), ...)

    def __post_init__(self):
        for i, j, w in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError("edge (%d, %d) out of range" % (i, j))
            if len(w) != 2:
                raise ValueError("weights must be 2-vectors")
        try:
            has_cycle = bool(simple_cycles(self, cap=1))
        except CycleCapExceeded:
            has_cycle = True
        if not has_cycle:
            raise ValueError("graph must contain at least one cycle")

    def out_edges(self, v: int):
        return [e for e, (i, _, _) in enumerate(self.edges) if i == v]


def make_sft(n: int, edges) -> WeightedSft:
    """Build a WeightedSft from (i, j, wx, wy) rows, coercing to Fractions."""
    ed = tuple(
        (int(i), int(j), (Fraction(wx), Fraction(wy))) for i, j, wx, wy in edges
    )
    return WeightedSft(n=int(n), edges=ed)


def parse_sft(text: str) -> WeightedSft:
    """Parse the plain edge-list format::

        vertices N
        i j wx wy

    with rational weights like ``1/2`` or integers; repeated (i, j) lines
    define parallel edges."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vertices"):
        raise ValueError("first line must be 'vertices N'")
    ln = lines[0]  # the line being parsed, named by the error
    try:
        n = int(ln.split()[1])
        rows = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 4:
                raise ValueError
            rows.append((int(parts[0]), int(parts[1]), Fraction(parts[2]), Fraction(parts[3])))
    except (IndexError, ValueError, ZeroDivisionError):
        raise ValueError("malformed line %r: want 'vertices N', then 'i j wx wy'" % ln) from None
    return make_sft(n, rows)


def cycle_vertices(sft: WeightedSft, cycle: tuple) -> tuple:
    return tuple(sft.edges[e][0] for e in cycle)


def simple_cycles(sft: WeightedSft, cap: int = DEFAULT_CYCLE_CAP) -> list:
    """Simple cycles as edge-index tuples, rooted at each cycle's least
    vertex, in deterministic lexicographic order."""
    cycles = []
    out = {v: sft.out_edges(v) for v in range(sft.n)}
    for root in range(sft.n):
        stack = [(root, (), (root,))]
        while stack:
            v, path, seen = stack.pop()
            for e in reversed(out[v]):
                w = sft.edges[e][1]
                if w == root:
                    cycles.append(path + (e,))
                    if len(cycles) > cap:
                        raise CycleCapExceeded("simple-cycle cap exceeded; hull is partial")
                elif w > root and w not in seen:
                    stack.append((w, path + (e,), seen + (w,)))
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _scaled_weights(sft: WeightedSft, rho=()) -> tuple:
    """(D, w) with D the lcm of the edge-weight and rho denominators and
    w[e] the integer pair D * weight of edge e."""
    fracs = [f for _, _, w in sft.edges for f in w] + list(rho)
    D = reduce(math.lcm, [f.denominator for f in fracs], 1)
    return D, [(int(wx * D), int(wy * D)) for _, _, (wx, wy) in sft.edges]


def _mean_lattice(sft: WeightedSft, cycles: list, rho=()) -> tuple:
    """(S, points) with points[i] the mean edge weight of cycles[i] times S,
    as a pair of Python ints (S is unbounded); S * rho is integral too."""
    D, w = _scaled_weights(sft, rho)
    M = reduce(math.lcm, {len(c) for c in cycles}, 1)
    points = []
    for c in cycles:
        k = M // len(c)
        points.append((k * sum(w[e][0] for e in c), k * sum(w[e][1] for e in c)))
    return D * M, points


def rational_hull(points: list) -> list:
    """Monotone-chain hull over exact rational points, CCW, no collinear."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    return _monotone_chain(pts)  # [min, max] for collinear points


def cycle_rotation_hull(sft: WeightedSft, cycle_cap: int = DEFAULT_CYCLE_CAP) -> list:
    """Convex hull of simple-cycle mean weights, exact."""
    if cycle_cap < sft.n:
        raise ValueError("cycle_cap must be at least the vertex count")
    S, points = _mean_lattice(sft, simple_cycles(sft, cap=cycle_cap))
    return [(Fraction(x, S), Fraction(y, S)) for x, y in rational_hull(points)]


def point_in_hull_interior(rho, hull: list) -> bool:
    """Strict relative-interior membership, exact.

    A 2D hull needs all edge cross products strictly positive; a point or
    segment hull needs rho to be a combination of its vertices with every
    coefficient positive."""
    rho = (Fraction(rho[0]), Fraction(rho[1]))
    if len(hull) <= 2:
        coeffs = _solve_combination(hull, rho)
        return coeffs is not None and all(a > 0 for a in coeffs)
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], rho) > 0 for i in range(len(hull)))


@dataclass(frozen=True)
class BoundedDeviationOrbit:
    sft: WeightedSft
    word: tuple                 # closed walk as edge indices (period = len)
    target: Vec                 # rational rho, the exact mean of the word
    deviation_bound: float      # Const = period * max edge |psi| (float view)
    deviation_bound_sq: Fraction  # exact Const^2
    verified_horizon: int
    max_deviation_sq: Fraction

    @property
    def period(self) -> int:
        return len(self.word)


def _max_weight_norm_sq(sft: WeightedSft) -> Fraction:
    return max(w[0] * w[0] + w[1] * w[1] for _, _, w in sft.edges)


def _solve_combination(means: list, rho: Vec):
    """Exact nonnegative coefficients summing to 1 with sum a_i m_i = rho,
    for 1, 2 or 3 lattice points (ratios of crosses: the scale cancels)."""
    if len(means) == 1:
        return [Fraction(1)] if means[0] == rho else None
    if len(means) == 2:
        a, b = means
        if _cross(a, b, rho) != 0:
            return None
        d = (b[0] - a[0], b[1] - a[1])
        den = d[0] * d[0] + d[1] * d[1]
        num = (rho[0] - a[0]) * d[0] + (rho[1] - a[1]) * d[1]
        if den == 0 or not (0 <= num <= den):
            return None
        t = Fraction(num, den)
        return [1 - t, t]
    a, b, c = means
    det = _cross(a, b, c)
    if det == 0:
        return None
    crosses = (_cross(rho, b, c), _cross(a, rho, c), _cross(a, b, rho))
    if any(x * det < 0 for x in crosses):
        return None
    return [Fraction(x, det) for x in crosses]


def _cycles_vertex_connected(vertex_sets: list) -> bool:
    """Whether at most three cycles are linked by shared vertices: n sets
    are when at least n - 1 of their pairs share a vertex."""
    shared = sum(bool(a & b) for a, b in combinations(vertex_sets, 2))
    return shared >= len(vertex_sets) - 1


def _splice(sft: WeightedSft, cycles_rep: list) -> tuple:
    """Concatenate repeated cycles sharing vertices into one closed walk of
    edge indices."""
    walk = list(cycles_rep[0][0]) * cycles_rep[0][1]
    pending = list(cycles_rep[1:])
    while pending:
        for idx, (cyc, reps) in enumerate(pending):
            cyc_verts = [sft.edges[e][0] for e in cyc]
            hit = None
            for pos, e in enumerate(walk):
                v = sft.edges[e][0]
                if v in cyc_verts:
                    hit = (pos, cyc_verts.index(v))
                    break
            if hit is not None:
                pos, rot = hit
                rotated = cyc[rot:] + cyc[:rot]
                walk[pos:pos] = list(rotated) * reps
                pending.pop(idx)
                break
        else:
            raise ValueError("graph not strongly connected between chosen cycles")
    return tuple(walk)


def _first_combination(sft: WeightedSft, cycles: list, points: list, rho_s: tuple) -> list:
    """The first vertex-connected [(cycle, coefficient > 0), ...] that
    realizes rho_s, in lexicographic order of cycle indices, by size 1, 2, 3.

    Sizes 1 and 2 are looked up.  With no point at rho_s, points i < j hold
    rho_s strictly between them exactly when u = p - rho_s points in
    opposite directions at i and j; the cycles are bucketed by the primitive
    direction of u, and for each i in order the opposite bucket is bisected
    for its indices above i.  Size 3 is scanned."""
    if rho_s in points:
        return [(cycles[points.index(rho_s)], Fraction(1))]
    rays = []
    buckets = {}
    for i, (x, y) in enumerate(points):
        ux, uy = x - rho_s[0], y - rho_s[1]
        g = math.gcd(ux, uy)
        rays.append((ux // g, uy // g))
        buckets.setdefault(rays[-1], []).append(i)

    @cache
    def vertices(i):
        return set(cycle_vertices(sft, cycles[i]))

    for i, (dx, dy) in enumerate(rays):
        opposite = buckets.get((-dx, -dy), [])
        for j in opposite[bisect_right(opposite, i):]:
            if vertices(i) & vertices(j):
                a, b = _solve_combination([points[i], points[j]], rho_s)
                return [(cycles[i], a), (cycles[j], b)]
    for combo in combinations(range(len(cycles)), 3):
        coeffs = _solve_combination([points[i] for i in combo], rho_s)
        if coeffs is None:
            continue
        active = [(cycles[i], a) for i, a in zip(combo, coeffs) if a > 0]
        if _cycles_vertex_connected([set(cycle_vertices(sft, c)) for c, _ in active]):
            return active
    raise NoCycleCombination("no vertex-connected cycle combination realizes rho")


def bounded_deviation_orbit(
    sft: WeightedSft,
    rho,
    horizon: int = 10000,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> BoundedDeviationOrbit:
    """Periodic word with mean exactly rho and bounded partial-sum deviation.

    rho is written as an exact convex combination of at most 3 simple-cycle
    means (Caratheodory in the plane) whose cycles are linked by shared
    vertices, the first in lexicographic order (`_first_combination`); the
    repetition counts are cleared of denominators, and the cycles are
    spliced at shared vertices into a single closed walk.  The bound
    Const = period * max edge |psi| is verified by an exact partial-sum
    scan up to ``horizon``, which must be at least 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if cycle_cap < sft.n:
        raise ValueError("cycle_cap must be at least the vertex count")
    rho = (Fraction(rho[0]), Fraction(rho[1]))
    cycles = simple_cycles(sft, cap=cycle_cap)
    S, points = _mean_lattice(sft, cycles, rho)
    rho_s = (int(rho[0] * S), int(rho[1] * S))
    if not point_in_hull_interior(rho_s, rational_hull(points)):
        raise ValueError("rho must lie strictly inside the cycle-mean hull")

    chosen = _first_combination(sft, cycles, points, rho_s)

    # integer repetitions proportional to a_i / L_i make the mean exact
    fracs = [a / len(c) for c, a in chosen]
    denom = reduce(math.lcm, [f.denominator for f in fracs])
    reps = [(c, int(f * denom)) for (c, _), f in zip(chosen, fracs)]
    reps = [(c, k) for c, k in reps if k > 0]
    word = _splice(sft, reps)

    max_norm_sq = _max_weight_norm_sq(sft)
    L = len(word)
    bound_sq = Fraction(L * L) * max_norm_sq
    orbit = BoundedDeviationOrbit(
        sft=sft,
        word=word,
        target=rho,
        deviation_bound=L * math.sqrt(float(max_norm_sq)),
        deviation_bound_sq=bound_sq,
        verified_horizon=horizon,
        max_deviation_sq=Fraction(0),
    )
    max_sq = verify_deviation(orbit, horizon)
    if max_sq > bound_sq:
        raise AssertionError("deviation bound violated: construction bug")
    return replace(orbit, max_deviation_sq=max_sq)


def verify_deviation(orbit: BoundedDeviationOrbit, n_max: int) -> Fraction:
    """Exact max over n <= n_max of || sum_{j<n} psi - n rho ||^2.

    Because the word's full-period sum equals period * rho exactly, the
    deviation sequence is periodic; the scan stops after two full periods,
    where the running max has provably plateaued.  Sums are scaled to ints.
    """
    word = orbit.word
    rho = orbit.target
    D, weights = _scaled_weights(orbit.sft, rho)
    rx, ry = int(rho[0] * D), int(rho[1] * D)
    L = len(word)
    sx = sy = max_sq = 0
    for n in range(1, n_max + 1):
        w = weights[word[(n - 1) % L]]
        sx += w[0]
        sy += w[1]
        dx = sx - n * rx
        dy = sy - n * ry
        sq = dx * dx + dy * dy
        if sq > max_sq:
            max_sq = sq
        if n % L == 0 and n >= 2 * L:
            break
    return Fraction(max_sq, D * D)


def two_loop_example() -> WeightedSft:
    """One vertex with two self-loops of weights (1,0) and (0,1)."""
    return make_sft(1, [(0, 0, 1, 0), (0, 0, 0, 1)])
