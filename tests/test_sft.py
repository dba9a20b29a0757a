import math
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn import sft
from torusdyn.geometry import _cross
from torusdyn.sft import (
    CycleCapExceeded,
    NoCycleCombination,
    bounded_deviation_orbit,
    cycle_rotation_hull,
    make_sft,
    parse_sft,
    point_in_hull_interior,
    rational_hull,
    simple_cycles,
    two_loop_example,
    verify_deviation,
)


def cycle_weight(sft, cycle):
    wx = wy = F(0)
    for e in cycle:
        w = sft.edges[e][2]
        wx += w[0]
        wy += w[1]
    return (wx, wy)


def cycle_mean(sft, cycle):
    wx, wy = cycle_weight(sft, cycle)
    return (wx / len(cycle), wy / len(cycle))


def triangle_sft():
    # two self-loops plus a 2-cycle of zero weight: hull is a triangle
    return make_sft(
        2,
        [(0, 0, 1, 0), (1, 1, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)],
    )


def test_two_loop_hull_is_segment():
    hull = cycle_rotation_hull(two_loop_example())
    assert hull == [(F(0), F(1)), (F(1), F(0))]


def test_single_zero_loop_hull():
    s = make_sft(1, [(0, 0, 0, 0)])
    assert cycle_rotation_hull(s) == [(F(0), F(0))]


def test_triangle_hull():
    hull = cycle_rotation_hull(triangle_sft())
    assert set(hull) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
    assert len(hull) == 3


def test_simple_cycles_multigraph():
    s = two_loop_example()
    assert simple_cycles(s) == [(0,), (1,)]
    t = triangle_sft()
    cycles = simple_cycles(t)
    assert (0,) in cycles and (1,) in cycles
    assert (2, 3) in cycles  # the zero-weight 2-cycle
    with pytest.raises(CycleCapExceeded):
        simple_cycles(t, cap=1)


def _linked_by_search(vertex_sets):
    # reference: grow the set of cycles reached through shared vertices
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j, vs in enumerate(vertex_sets):
            if j not in seen and vertex_sets[i] & vs:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(vertex_sets)


def test_vertex_connected_rule_matches_search():
    # every choice of one to three vertex sets over vertices 0..3
    subsets = [{v for v in range(4) if mask >> v & 1} for mask in range(1, 16)]
    for n in (1, 2, 3):
        for sets in product(subsets, repeat=n):
            assert sft._cycles_vertex_connected(list(sets)) == _linked_by_search(sets)


def test_graph_without_cycle_rejected():
    with pytest.raises(ValueError):
        make_sft(2, [(0, 1, 1, 0)])


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        make_sft(1, [(0, 2, 1, 0)])


def test_parse_sft_roundtrip():
    s = parse_sft(
        """
        # one vertex, two self-loops
        vertices 1
        0 0 1 0
        0 0 0 1
        """
    )
    assert s == two_loop_example()
    assert parse_sft("vertices 1\n0 0 1/2 -2/3\n").edges[0][2] == (F(1, 2), F(-2, 3))
    with pytest.raises(ValueError):
        parse_sft("0 0 1 0\n")
    with pytest.raises(ValueError):
        parse_sft("vertices 1\n0 0 1\n")


def test_half_half_orbit_exact():
    orbit = bounded_deviation_orbit(two_loop_example(), (F(1, 2), F(1, 2)), 10000)
    assert orbit.period == 2
    assert sorted(orbit.word) == [0, 1]  # alternating loops
    assert orbit.max_deviation_sq == F(1, 2)
    assert math.isclose(math.sqrt(float(verify_deviation(orbit, 10000))), math.sqrt(0.5))
    assert orbit.max_deviation_sq <= orbit.deviation_bound_sq


def test_third_two_thirds_orbit():
    orbit = bounded_deviation_orbit(two_loop_example(), (F(1, 3), F(2, 3)), 10000)
    assert orbit.period == 3
    assert sorted(orbit.word) == [0, 1, 1]
    # max edge weight norm is 1, so deviation stays within 2 * max||psi||
    assert math.sqrt(float(verify_deviation(orbit, 10000))) <= 2.0


def test_word_mean_is_exact():
    for rho in [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(2, 5), F(3, 5))]:
        orbit = bounded_deviation_orbit(two_loop_example(), rho, 1000)
        total = cycle_weight(orbit.sft, orbit.word)
        assert total == (orbit.period * rho[0], orbit.period * rho[1])


def test_triangle_interior_point_realized():
    orbit = bounded_deviation_orbit(triangle_sft(), (F(1, 4), F(1, 4)), 10000)
    assert cycle_weight(orbit.sft, orbit.word) == (
        orbit.period * F(1, 4),
        orbit.period * F(1, 4),
    )
    assert orbit.max_deviation_sq <= orbit.deviation_bound_sq


def test_single_cycle_mean_target():
    s = make_sft(1, [(0, 0, 0, 0)])
    orbit = bounded_deviation_orbit(s, (F(0), F(0)), 100)
    assert orbit.word == (0,)
    assert orbit.max_deviation_sq == 0


def test_boundary_rho_rejected():
    s = two_loop_example()
    for rho in [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 3)), (F(2), F(-1))]:
        with pytest.raises(ValueError):
            bounded_deviation_orbit(s, rho, 100)


@pytest.mark.parametrize("horizon", [0, -3])
def test_horizon_below_one_rejected(horizon):
    # a zero horizon would report a verification that never ran
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        bounded_deviation_orbit(two_loop_example(), (F(1, 2), F(1, 2)), horizon)


def test_verify_deviation_plateaus_after_two_periods():
    orbit = bounded_deviation_orbit(two_loop_example(), (F(1, 3), F(2, 3)), 10000)
    L = orbit.period
    vals = [verify_deviation(orbit, n) for n in (L, 2 * L, 4 * L, 10000)]
    assert vals[1] == vals[2] == vals[3]
    assert vals[0] <= vals[1]


def test_hull_invariant_under_relabeling():
    t = triangle_sft()
    relabeled = make_sft(
        2,
        [(1, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)],
    )
    assert set(cycle_rotation_hull(t)) == set(cycle_rotation_hull(relabeled))


@given(num=st.integers(-6, 6), den=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_hull_and_deviation_scale_exactly(num, den):
    s = F(num, den)
    if s == 0:
        return
    base = two_loop_example()
    scaled = make_sft(1, [(0, 0, s * 1, s * 0), (0, 0, s * 0, s * 1)])
    hb = cycle_rotation_hull(base)
    hs = cycle_rotation_hull(scaled)
    assert set(hs) == {(s * x, s * y) for x, y in hb}
    rho = (F(1, 2), F(1, 2))
    ob = bounded_deviation_orbit(base, rho, 200)
    os_ = bounded_deviation_orbit(scaled, (s * rho[0], s * rho[1]), 200)
    assert os_.max_deviation_sq == s * s * ob.max_deviation_sq


def test_point_in_hull_interior_cases():
    seg = [(F(0), F(1)), (F(1), F(0))]
    assert point_in_hull_interior((F(1, 2), F(1, 2)), seg)
    assert not point_in_hull_interior((F(0), F(1)), seg)
    assert not point_in_hull_interior((F(1, 2), F(1, 4)), seg)
    tri = cycle_rotation_hull(triangle_sft())
    assert point_in_hull_interior((F(1, 4), F(1, 4)), tri)
    assert not point_in_hull_interior((F(1, 2), F(1, 2)), tri)  # on the edge
    point = [(F(3), F(4))]
    assert point_in_hull_interior((F(3), F(4)), point)
    assert not point_in_hull_interior((F(3), F(5)), point)


def test_cycle_mean_values():
    t = triangle_sft()
    assert cycle_mean(t, (0,)) == (F(1), F(0))
    assert cycle_mean(t, (2, 3)) == (F(0), F(0))


# -- reference: the Fraction hull and search that the integer lattice replaced --


def _ref_rational_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull = sft._monotone_chain(pts)
    if len(hull) < 3:  # all collinear after pruning
        return [min(pts), max(pts)]
    return hull


def _ref_point_in_hull_interior(rho, hull):
    rho = (F(rho[0]), F(rho[1]))
    if len(hull) == 1:
        return rho == hull[0]
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, rho) != 0:
            return False
        d = (b[0] - a[0], b[1] - a[1])
        num = (rho[0] - a[0]) * d[0] + (rho[1] - a[1]) * d[1]
        den = d[0] * d[0] + d[1] * d[1]
        t = num / den
        return 0 < t < 1
    for i in range(len(hull)):
        if _cross(hull[i], hull[(i + 1) % len(hull)], rho) <= 0:
            return False
    return True


def _ref_hull(s):
    return _ref_rational_hull([cycle_mean(s, c) for c in simple_cycles(s)])


def _ref_solve(means, rho):
    if len(means) == 1:
        return [F(1)] if means[0] == rho else None
    if len(means) == 2:
        a, b = means
        if _cross(a, b, rho) != 0:
            return None
        d = (b[0] - a[0], b[1] - a[1])
        den = d[0] * d[0] + d[1] * d[1]
        if den == 0:
            return None
        t = ((rho[0] - a[0]) * d[0] + (rho[1] - a[1]) * d[1]) / den
        return [1 - t, t] if 0 <= t <= 1 else None
    a, b, c = means
    det = _cross(a, b, c)
    if det == 0:
        return None
    ws = [_cross(rho, b, c) / det, _cross(a, rho, c) / det, _cross(a, b, rho) / det]
    return None if min(ws) < 0 else ws


def _ref_max_deviation_sq(s, word, rho, n_max):
    sx = sy = max_sq = F(0)
    for n in range(1, n_max + 1):
        w = s.edges[word[(n - 1) % len(word)]][2]
        sx += w[0]
        sy += w[1]
        sq = (sx - n * rho[0]) ** 2 + (sy - n * rho[1]) ** 2
        max_sq = max(max_sq, sq)
        if n % len(word) == 0 and n >= 2 * len(word):
            break
    return max_sq


def _ref_combination(s, cycles, means, rho):
    for r in (1, 2, 3):
        for combo in combinations(range(len(cycles)), r):
            coeffs = _ref_solve([means[i] for i in combo], rho)
            if coeffs is None:
                continue
            active = [(cycles[i], a) for i, a in zip(combo, coeffs) if a > 0]
            if sft._cycles_vertex_connected([set(sft.cycle_vertices(s, c)) for c, _ in active]):
                return active
    raise NoCycleCombination("no vertex-connected cycle combination realizes rho")


def _ref_orbit(s, rho, horizon):
    """(word, max_deviation_sq, deviation_bound, deviation_bound_sq)."""
    cycles = simple_cycles(s)
    means = [cycle_mean(s, c) for c in cycles]
    if not _ref_point_in_hull_interior(rho, _ref_rational_hull(means)):
        raise ValueError("rho must lie strictly inside the cycle-mean hull")
    active = _ref_combination(s, cycles, means, rho)
    fracs = [a / len(c) for c, a in active]
    denom = math.lcm(*[f.denominator for f in fracs])
    word = sft._splice(s, [(c, int(f * denom)) for (c, _), f in zip(active, fracs) if f > 0])
    norm_sq = sft._max_weight_norm_sq(s)
    L = len(word)
    return word, _ref_max_deviation_sq(s, word, rho, horizon), L * math.sqrt(float(norm_sq)), L * L * norm_sq


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NoCycleCombination) as exc:
        return type(exc), str(exc)


def _orbit_fields(s, rho, horizon):
    o = bounded_deviation_orbit(s, rho, horizon)
    return o.word, o.max_deviation_sq, o.deviation_bound, o.deviation_bound_sq


def _assert_matches_reference(s, rho, horizon):
    assert cycle_rotation_hull(s) == _ref_hull(s)
    assert _outcome(_orbit_fields, s, rho, horizon) == _outcome(_ref_orbit, s, rho, horizon)


_weight = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def _multigraph_and_rho(draw):
    """A random multigraph on at most 4 vertices (parallel edges, self-loops,
    mixed denominators) around one closed walk, and a convex combination of
    1-3 of its cycle means."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    ring = draw(st.lists(vertex, min_size=1, max_size=4))
    edges = [(v, ring[(k + 1) % len(ring)], draw(_weight), draw(_weight)) for k, v in enumerate(ring)]
    edges += draw(st.lists(st.tuples(vertex, vertex, _weight, _weight), max_size=6))
    edges = draw(st.permutations(edges))
    s = make_sft(n, edges)
    means = [cycle_mean(s, c) for c in simple_cycles(s)]
    picks = draw(st.lists(st.tuples(st.sampled_from(means), st.integers(1, 5)), min_size=1, max_size=3))
    total = sum(k for _, k in picks)
    rho = tuple(sum(k * m[i] for m, k in picks) / total for i in (0, 1))
    return s, rho


@given(_multigraph_and_rho(), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_lattice_search_matches_fraction_reference(case, horizon):
    s, rho = case
    _assert_matches_reference(s, rho, horizon)


def _assert_index_matches_scan(s, rho):
    """The indexed search picks the reference scan's combination."""
    cycles = simple_cycles(s)
    S, points = sft._mean_lattice(s, cycles, rho)
    rho_s = (int(rho[0] * S), int(rho[1] * S))
    chosen = sft._first_combination(s, cycles, points, rho_s)
    assert chosen == _ref_combination(s, cycles, [cycle_mean(s, c) for c in cycles], rho)
    _assert_matches_reference(s, rho, 100)
    return chosen


def test_index_finds_a_later_cycle_at_rho():
    # loops (0, 0) and (2, 0) at vertex 0, (0, 2) and (2, 2) at vertex 1, and
    # a 2-cycle of mean (1, 1) = rho, which sorts after the four loops; the
    # pairs of loops through rho lie on different vertices
    s = make_sft(2, [(0, 0, 0, 0), (0, 0, 2, 0), (1, 1, 0, 2), (1, 1, 2, 2), (0, 1, 1, 1), (1, 0, 1, 1)])
    assert _assert_index_matches_scan(s, (F(1), F(1))) == [((4, 5), F(1))]


def test_index_skips_an_opposite_pair_without_a_shared_vertex():
    # from rho = (1, 1), loop 0 at vertex 0 points opposite to loop 1 at
    # vertex 1 and to loop 4 back at vertex 0: the pair (0, 4) is taken
    s = make_sft(2, [(0, 0, 0, 0), (1, 1, 2, 2), (0, 0, 0, 2), (1, 1, 2, 0), (0, 0, 3, 3)])
    assert _assert_index_matches_scan(s, (F(1), F(1))) == [((0,), F(2, 3)), ((4,), F(1, 3))]


def test_index_orders_cycles_sharing_one_direction():
    # loops 1, 2 and 6 all point along (1, 1) from rho = (1, 1), loops 0
    # and 3 along (-1, -1); loop 0 at vertex 0 meets none of its opposites,
    # so loop 1 pairs with loop 3 on vertex 1 before the vertex-0 pair (4, 5)
    s = make_sft(
        3,
        [(0, 0, 0, 0), (1, 1, 2, 2), (2, 2, 3, 3), (1, 1, -1, -1), (0, 0, 2, 0), (0, 0, 0, 2), (2, 2, 4, 4)],
    )
    assert _assert_index_matches_scan(s, (F(1), F(1))) == [((1,), F(2, 3)), ((3,), F(1, 3))]


def test_strongly_connected_graph_can_have_no_combination():
    # rho needs the loops at vertices 1 and 2, which share no vertex, and
    # linking them takes four cycles
    s = make_sft(
        3,
        [(2, 2, 3, 1), (0, 2, 3, 3), (0, 1, 3, 0), (1, 0, -3, 3), (2, 2, 0, 2), (1, 1, -1, -2), (2, 0, -2, 3)],
    )
    rho = (F(12, 11), F(21, 22))
    assert point_in_hull_interior(rho, cycle_rotation_hull(s))
    with pytest.raises(NoCycleCombination):
        bounded_deviation_orbit(s, rho, 100)
    _assert_matches_reference(s, rho, 100)


def test_lattice_scale_beyond_int64():
    # three self-loops with pairwise coprime denominators near 2**40: the
    # common denominator S is about 2**122, so any int64 lattice would wrap
    p, q, r = 2**40 + 1, 2**40 + 3, 2**40 + 5
    s = make_sft(1, [(0, 0, F(1, p), 0), (0, 0, 0, F(1, q)), (0, 0, F(-1, r), F(-1, r))])
    rho = ((F(1, p) - F(1, r)) / 3, (F(1, q) - F(1, r)) / 3)  # the centroid
    S, _ = sft._mean_lattice(s, simple_cycles(s), rho)
    assert S > 2**63
    _assert_matches_reference(s, rho, 100)
    assert sorted(bounded_deviation_orbit(s, rho, 100).word) == [0, 1, 2]


_coord = st.integers(-4, 4) | st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_rpoint = st.tuples(_coord, _coord)
# points anywhere, or on one line through a point (segment and point hulls)
_rpoints = st.lists(_rpoint, min_size=1, max_size=7) | st.builds(
    lambda a, d, ts: [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts],
    _rpoint,
    _rpoint,
    st.lists(st.integers(-3, 3), min_size=1, max_size=7),
)


@given(_rpoints, _rpoint, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=500, deadline=None)
def test_hull_and_membership_match_reference(points, q, i, j):
    hull = rational_hull(points)
    assert repr(hull) == repr(_ref_rational_hull(points))
    a, b = hull[i % len(hull)], hull[j % len(hull)]
    centroid = tuple(sum(F(v[k]) for v in hull) / len(hull) for k in (0, 1))
    # a free point, a vertex, a chord midpoint (an edge's, for neighbours)
    for rho in (q, a, (F(a[0] + b[0]) / 2, F(a[1] + b[1]) / 2), centroid):
        assert point_in_hull_interior(rho, hull) == _ref_point_in_hull_interior(rho, hull)
