import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import torusdyn as td
from torusdyn import manifolds
from torusdyn.geometry import CellIndex, point_segment_distance, row_dot
from torusdyn.manifolds import CrossingWitness, GrowthError, NonHyperbolicError
from torusdyn.maps import OrbitEscapeError
from torusdyn.periodic import PeriodicPoint

from conftest import growth_maps, inverted, make_linear_saddle, pullback_rate_fit


def _saddle_fixed_point():
    m = make_linear_saddle(2.0)
    return m, td.newton_periodic(m, 1, (0, 0), (0.01, 0.01))


def test_eigen_frame_diagonal():
    pp = PeriodicPoint(
        point=np.zeros(2),
        period=1,
        translation=(0, 0),
        jacobian=np.array([[2.0, 0.0], [0.0, 0.5]]),
        eigenvalues=np.array([2.0 + 0j, 0.5 + 0j]),
        classification="hyperbolic_positive",
        residual=0.0,
    )
    u, s, (lu, ls) = td.eigen_frame(pp)
    assert np.allclose(u, [1, 0]) and np.allclose(s, [0, 1])
    assert (lu, ls) == (2.0, 0.5)


def test_eigen_frame_rejects_non_hyperbolic(std_k2):
    pp = td.newton_periodic(std_k2, 1, (0, 0), (0.45, 0.05))
    assert pp.classification == "hyperbolic_negative"
    with pytest.raises(NonHyperbolicError):
        td.eigen_frame(pp)


def test_eigen_frame_residual(fp_origin, std_k2):
    u, s, (lu, ls) = td.eigen_frame(fp_origin)
    J = fp_origin.jacobian
    assert np.linalg.norm(J @ u - lu * u) < 1e-10
    assert np.linalg.norm(J @ s - ls * s) < 1e-10
    assert lu * ls == pytest.approx(1.0, abs=1e-9)


def test_linear_saddle_axis_manifolds_exact():
    m, pp = _saddle_fixed_point()
    wu = td.grow_manifold(m, pp, "unstable", "+", arclength_budget=5.0)
    ws = td.grow_manifold(m, pp, "stable", "+", arclength_budget=5.0)
    assert np.max(np.abs(wu.vertices[:, 1])) < 1e-12
    assert np.all(wu.vertices[:, 0] > 0)
    assert np.max(np.abs(ws.vertices[:, 0])) < 1e-12
    assert np.all(ws.vertices[:, 1] > 0)
    wm = td.grow_manifold(m, pp, "unstable", "-", arclength_budget=5.0)
    assert np.all(wm.vertices[:, 0] < 0)


def test_grow_respects_spacing_and_budget(std_k2, fp_origin):
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=2.0)
    gaps = np.linalg.norm(np.diff(wu.vertices, axis=0), axis=1)
    assert np.max(gaps) <= wu.h_max * (1 + 1e-9)
    assert wu.arclength >= 2.0
    assert wu.arclength == pytest.approx(np.sum(gaps), rel=1e-12)


def test_grow_budget_too_small_errors():
    m, pp = _saddle_fixed_point()
    with pytest.raises(GrowthError):
        td.grow_manifold(m, pp, "unstable", "+", arclength_budget=1e-8)


def test_grow_stops_on_a_non_finite_image(std_k2, fp_origin):
    # an unstep that returns NaN from a given call on: a NaN arclength never
    # reaches the budget, so only the escape check ends the growth.  Each
    # call is one map step.  The fifth is the second step of a pass refining
    # level 2 from the seed segment, the eighth carries level 2 to level 3
    # and the ninth is the first step of a pass refining level 3; every
    # escape counts the steps from the seed segment
    for nan_from, steps in ((5, 2), (8, 3), (9, 1)):
        calls = []

        def planted(x, y):
            std_k2.unstep(x, y)
            calls.append(1)
            if len(calls) >= nan_from:
                x[...] = np.nan

        m = replace(std_k2, inverse=td.maps.on_copies(planted))
        with np.errstate(invalid="ignore"), pytest.raises(OrbitEscapeError, match="after %d steps$" % steps):
            td.grow_manifold(m, fp_origin, "stable", "+", arclength_budget=20.0)
        assert len(calls) == nan_from  # caught at the last step of the advance that made it


def test_grow_input_validation(std_k2, fp_origin):
    with pytest.raises(ValueError):
        td.grow_manifold(std_k2, fp_origin, "sideways", "+")
    with pytest.raises(ValueError):
        td.grow_manifold(std_k2, fp_origin, "unstable", "x")
    with pytest.raises(ValueError):
        td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=-1.0)


def test_pullback_rate_within_ten_percent(std_k2, fp_origin):
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=50.0)
    slope, expected = pullback_rate_fit(std_k2, wu)
    assert abs(slope - expected) < 0.1 * abs(expected)


def test_stable_curve_matches_inverse_map_unstable(std_k2, fp_origin):
    ws = td.grow_manifold(std_k2, fp_origin, "stable", "+", arclength_budget=10.0)
    inv = inverted(std_k2)
    pp_inv = td.newton_periodic(inv, 1, (0, 0), (0.01, 0.01))
    wu_inv = td.grow_manifold(inv, pp_inv, "unstable", "+", arclength_budget=10.0)
    n = min(len(ws.vertices), len(wu_inv.vertices))
    assert np.max(np.abs(ws.vertices[:n] - wu_inv.vertices[:n])) < 1e-8


def test_growth_equivariance_under_integer_translation(std_k2, fp_origin):
    # (1, 0) is fixed by the Dehn matrix, so Q + (1, 0) solves the same family
    shifted = td.newton_periodic(std_k2, 1, (0, 0), (1.01, 0.01))
    assert np.linalg.norm(shifted.point - [1.0, 0.0]) < 1e-10
    w0 = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=3.0)
    w1 = td.grow_manifold(std_k2, shifted, "unstable", "+", arclength_budget=3.0)
    n = min(len(w0.vertices), len(w1.vertices))
    assert np.max(np.abs(w1.vertices[:n] - (1.0, 0.0) - w0.vertices[:n])) < 1e-8


def _grow_full_levels(m, pp, kind, branch, budget, h_max=manifolds.DEFAULT_H_MAX):
    """Reference growth that refines every level in full and only then cuts
    the last one at the budget.  Returns (vertices, arclength, level,
    insertions)."""
    u_dir, s_dir, _ = manifolds.eigen_frame(pp)
    g, g_inv = growth_maps(m, pp)
    step = g if kind == "unstable" else g_inv
    direction = u_dir if kind == "unstable" else s_dir
    if branch == "-":
        direction = -direction
    z0 = pp.point + manifolds.DEFAULT_DELTA_SEED * direction
    z1 = step(z0)

    def advance(P, times):
        for _ in range(times):
            P = step(P)
        return P

    chunks = [z0[None, :]]
    arclength = 0.0
    insertions = 0
    level = 0
    t = np.array([0.0, 1.0])
    pts = z0[None, :] + t[:, None] * (z1 - z0)[None, :]
    while True:
        while True:
            gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            bad = np.nonzero(gaps > h_max)[0]
            if len(bad) == 0:
                break
            t_new = 0.5 * (t[bad] + t[bad + 1])
            resolvable = (t[bad + 1] - t[bad]) > 1e-14
            t_new = t_new[resolvable]
            if len(t_new) == 0:
                break
            p_new = advance(z0[None, :] + t_new[:, None] * (z1 - z0)[None, :], level)
            insertions += len(t_new)
            at = bad[resolvable] + 1
            t = np.insert(t, at, t_new)
            pts = np.insert(pts, at, p_new, axis=0)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = arclength + np.cumsum(seg)
        if cum[-1] >= budget:
            cut = int(np.searchsorted(cum, budget))
            chunks.append(pts[1 : cut + 2])
            return np.concatenate(chunks), float(cum[cut]), level, insertions
        chunks.append(pts[1:])
        arclength = float(cum[-1])
        level += 1
        pts = advance(pts, 1)


def _assert_matches_full_levels(m, pp, budget):
    for kind in ("unstable", "stable"):
        for branch in ("+", "-"):
            got = td.grow_manifold(m, pp, kind, branch, arclength_budget=budget)
            vertices, arclength, level, insertions = _grow_full_levels(m, pp, kind, branch, budget)
            assert got.vertices.tobytes() == vertices.tobytes()
            assert got.arclength == arclength and got.growth_log[0] == level
            assert got.growth_log[1] < insertions


@pytest.mark.parametrize(
    "saddle, budget",
    [
        (False, 2.0),
        # level 7 refined in full is about 5x longer than the kept prefix
        (False, 60.0),
        # a straight manifold, where refining adds no length
        (True, 5.0),
    ],
)
def test_grow_matches_full_level_reference(std_k2, fp_origin, saddle, budget):
    m, pp = _saddle_fixed_point() if saddle else (std_k2, fp_origin)
    _assert_matches_full_levels(m, pp, budget)


@pytest.mark.parametrize("seed", ["translated", "doubled"])
def test_grow_matches_full_level_reference_with_translation_and_period(std_k2, seed):
    # the (p, r) = (1, 0) fixed point at (0, 1) pins where (p, r) enters each
    # step; the q = 2 point doubled from (1/2, 0) pins the q loop
    if seed == "translated":
        pp = td.newton_periodic(std_k2, 1, (1, 0), (0.0, 1.0))
        assert pp.translation == (1, 0) and pp.classification == "hyperbolic_positive"
    else:
        pp = td.newton_periodic(std_k2, 1, (0, 0), (0.5, 0.0)).doubled(std_k2)
        assert pp.period == 2 and pp.classification == "hyperbolic_positive"
    _assert_matches_full_levels(std_k2, pp, 20.0)


def test_vertex_cap_counts_only_the_kept_prefix(std_k2, fp_origin):
    # refining level 7 in full would pass 100,000 vertices; its kept prefix does not
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=60.0, vertex_cap=100_000)
    assert len(wu.vertices) == 86_366
    with pytest.raises(GrowthError, match="vertex cap"):
        td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=60.0, vertex_cap=50_000)


# default to an even vertex count so test crossings never land exactly on
# a polyline vertex (the detector is strict about proper crossings)
def _segment(p, q, n=20, h_max=1e-3):
    t = np.linspace(0, 1, n)[:, None]
    return td.polyline_curve(np.asarray(p) + t * (np.asarray(q) - np.asarray(p)), h_max)


def _translated(curve, v):
    """The curve moved by the vector v."""
    return replace(curve, vertices=curve.vertices + np.asarray(v, dtype=float))


def test_detect_crossings_simple_cross():
    lam = _segment((-1, 0), (1, 0))
    K = _segment((0, -1), (0, 1))
    wits = td.detect_crossings(lam, K)
    assert len(wits) == 1
    assert np.linalg.norm(wits[0].location) < 1e-12
    assert set(wits[0].sides_hit) == {"left", "right"}


def test_detect_crossings_rejects_tangency():
    lam = _segment((-1, 0), (1, 0))
    xs = np.linspace(-0.6, 0.6, 25)
    K = td.polyline_curve(np.stack([xs, xs**2], axis=-1))
    assert td.detect_crossings(lam, K) == []


def test_detect_crossings_double_cross():
    lam = _segment((-1, 0), (1, 0))
    K = td.polyline_curve([[-0.45, -0.5], [-0.45, 0.5], [0.45, 0.5], [0.45, -0.5]])
    wits = td.detect_crossings(lam, K)
    assert len(wits) == 2
    xs = sorted(w.location[0] for w in wits)
    assert xs == pytest.approx([-0.45, 0.45])


def test_witness_location_on_both_polylines():
    lam = _segment((-1, 0), (1, 0))
    K = _segment((-0.3, -1), (0.4, 1))
    wits = td.detect_crossings(lam, K)
    assert len(wits) == 1
    x = wits[0].location
    dl = min(point_segment_distance(x, a, b) for a, b in zip(lam.vertices, lam.vertices[1:]))
    dk = min(point_segment_distance(x, a, b) for a, b in zip(K.vertices, K.vertices[1:]))
    assert dl < 1e-9 and dk < 1e-9


def test_translate_scan_straight_lines():
    u = _segment((-0.5, 0), (0.5, 0))
    s = _segment((0, -0.5), (0, 0.5))
    table = td.translate_scan(u, s, half_range=1)
    for (a, b), wits in table.items():
        if (a, b) == (0, 0):
            assert len(wits) == 1
        else:
            assert wits == []


def test_scan_symmetry_between_translates():
    u = _segment((-0.5, 0), (1.5, 0))
    s = _segment((1, -0.5), (1, 0.5))
    direct = td.detect_crossings(u, s, translate=(-1, 0))
    swapped = td.detect_crossings(_translated(u, (1, 0)), s, translate=(0, 0))
    assert len(direct) == len(swapped) == 1


# The crossing search before the segment index: a KD-tree over the
# translated target's midpoints per call, a scalar crossing test and side
# offset per candidate pair.  The indexed search must reproduce its
# witnesses field for field.

def _ref_segment_pairs(P, T):
    mp = 0.5 * (P[:-1] + P[1:])
    mt = 0.5 * (T[:-1] + T[1:])
    lp = np.linalg.norm(np.diff(P, axis=0), axis=1)
    lt = np.linalg.norm(np.diff(T, axis=0), axis=1)
    r = 0.5 * (lp.max() + lt.max()) + 1e-12
    groups = cKDTree(mt).query_ball_point(mp, r)
    return sorted((i, j) for i, js in enumerate(groups) for j in js)


def _ref_proper_intersection(a, b, c, d):
    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    s1 = cross(a, b, c)
    s2 = cross(a, b, d)
    s3 = cross(c, d, a)
    s4 = cross(c, d, b)
    if s1 * s2 < 0 and s3 * s4 < 0:
        t = s1 / (s1 - s2)
        return np.asarray(c, dtype=float) + t * (np.asarray(d, dtype=float) - np.asarray(c, dtype=float))
    return None


def _ref_side_of(x, piece):
    best = None
    for a, b in zip(piece[:-1], piece[1:]):
        d = b - a
        L2 = float(d @ d)
        if L2 == 0.0:
            continue
        t = float(np.clip((x - a) @ d / L2, 0.0, 1.0))
        proj = a + t * d
        dist = float(np.linalg.norm(x - proj))
        if best is None or dist < best[0]:
            s = (d[0] * (x[1] - a[1]) - d[1] * (x[0] - a[0])) / np.sqrt(L2)
            best = (dist, s)
    return best[1]


def _ref_walk_side(T, j, direction, c, tang, piece, ell, w):
    sgn = 0.0
    while 0 <= j < len(T):
        x = T[j]
        u = float(tang @ (x - c))
        s = _ref_side_of(x, piece)
        inside = abs(u) <= ell / 2 and abs(s) <= w / 2
        if s != 0.0:
            if sgn == 0.0:
                sgn = np.sign(s)
            elif np.sign(s) != sgn and inside:
                return None
        if not inside:
            if sgn == 0.0:
                if s == 0.0:
                    return None
                sgn = np.sign(s)
            return sgn, ("end" if abs(u) > ell / 2 else "far")
        j += direction
    return None


def _ref_local_piece(P, i, x0, half_len):
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


def _ref_detect_crossings(piece, target, translate=(0, 0), max_witnesses=None):
    P = piece.vertices
    T = target.vertices + np.asarray(translate, dtype=float)
    ell, w = 10.0 * piece.h_max, 2.0 * piece.h_max
    witnesses = []
    for i, j in _ref_segment_pairs(P, T):
        x0 = _ref_proper_intersection(P[i], P[i + 1], T[j], T[j + 1])
        if x0 is None:
            continue
        local = _ref_local_piece(P, i, x0, ell / 2)
        tang = P[i + 1] - P[i]
        tang = tang / np.linalg.norm(tang)
        fwd = _ref_walk_side(T, j + 1, +1, x0, tang, local, ell, w)
        if fwd is None:
            continue
        bwd = _ref_walk_side(T, j, -1, x0, tang, local, ell, w)
        if bwd is None or fwd[0] * bwd[0] >= 0:
            continue
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


def _assert_same_witnesses(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert np.array_equal(g.location, r.location)
        assert np.array_equal(g.rectangle, r.rectangle)
        assert g.translate == r.translate and g.sides_hit == r.sides_hit
        assert (g.piece_segment, g.target_segment) == (r.piece_segment, r.target_segment)
        assert type(g.piece_segment) is int and type(g.target_segment) is int


@pytest.fixture(scope="module")
def k2_pair(std_k2, fp_origin):
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=20.0)
    ws = td.grow_manifold(std_k2, fp_origin, "stable", "+", arclength_budget=20.0)
    return wu, ws


@pytest.mark.parametrize("max_witnesses", [1, None])
def test_translate_scan_matches_reference_on_k2_manifolds(k2_pair, max_witnesses):
    wu, ws = k2_pair
    table = td.translate_scan(wu, ws, 1, max_witnesses)
    assert sorted(table) == [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    found = 0
    for v, wits in table.items():
        _assert_same_witnesses(wits, _ref_detect_crossings(wu, ws, v, max_witnesses))
        found += len(wits)
    assert found > 0


_coord = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-8, 8).map(lambda n: n / 8.0),  # lattice values make ties and touches
)


@st.composite
def _polyline(draw):
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=15))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    V = np.repeat(np.asarray(pts, dtype=float), repeats, axis=0)  # zero-length segments
    if not np.any(V != V[0]):
        V[-1] += 0.5  # at least one segment of positive length
    return V


@settings(max_examples=150, deadline=None)
@given(
    _polyline(),
    _polyline(),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([0.01, 0.05, 0.2]),
)
def test_detect_crossings_matches_reference_on_random_polylines(P, T, v, max_witnesses, h):
    piece = td.polyline_curve(P, h)
    target = td.polyline_curve(T, h)
    got = td.detect_crossings(piece, target, v, max_witnesses)
    _assert_same_witnesses(got, _ref_detect_crossings(piece, target, v, max_witnesses))


def test_long_piece_segments_scan_several_cells():
    # a three-vertex zigzag across a finely sampled sine: the search radius
    # spans many of the target's cells, and the candidates still match the
    # reference pairs
    piece = td.polyline_curve([[-1.0, -0.3], [0.05, 0.35], [1.0, -0.25]], 1e-3)
    xs = np.linspace(-1.0, 1.0, 2000)
    target = td.polyline_curve(np.stack([xs, 0.2 * np.sin(7.0 * xs)], axis=-1), 1e-3)
    r = 0.5 * (piece.max_len + target.max_len)
    assert r > 2.0 * target.cells.cell
    i, j = manifolds._segment_pairs(piece, target, np.zeros(2))
    assert list(zip(i.tolist(), j.tolist())) == _ref_segment_pairs(piece.vertices, target.vertices)
    for v in [(0, 0), (0, 1), (1, 0)]:
        got = td.detect_crossings(piece, target, v)
        _assert_same_witnesses(got, _ref_detect_crossings(piece, target, v))
    assert len(td.detect_crossings(piece, target)) > 0


def test_far_translate_gives_no_candidates():
    piece = _segment((-1, 0), (1, 0))
    target = _segment((0, -1), (0, 1))
    i, j = manifolds._segment_pairs(piece, target, np.array([50.0, -70.0]))
    assert i.shape == j.shape == (0,)
    assert i.dtype.kind == j.dtype.kind == "i"
    assert td.detect_crossings(piece, target, (50, -70)) == []


def test_two_vertex_target():
    piece = _segment((-1, 0), (1, 0))
    target = td.polyline_curve([[0.25, -1.0], [0.25, 1.0]])
    assert len(target.midpoints) == 1
    for v in [(0, 0), (-1, 0), (1, 1)]:
        got = td.detect_crossings(piece, target, v)
        _assert_same_witnesses(got, _ref_detect_crossings(piece, target, v))
    (wit,) = td.detect_crossings(piece, target)
    assert np.allclose(wit.location, [0.25, 0.0])
    point = td.polyline_curve([[0.25, 0.0], [0.25, 0.0]])  # zero extent and length
    assert point.cells.cell > 0
    assert td.detect_crossings(piece, point) == []


def _clipped_windows():
    # crossings on the first and the last piece segment: the local piece
    # reaches a polyline end before its arc reaches half the rectangle
    piece = td.polyline_curve([[0.0, 0.0], [1.0, 0.01], [2.0, 0.0]], 0.05)
    target = td.polyline_curve([[0.1, -1.0], [0.1, -0.03], [0.1, 0.04], [0.1, 1.0], [1.93, 1.0], [1.93, -1.0]], 0.05)
    return piece, target, None, 2


def _walks_off_the_end():
    # the left target ends inside the rectangle (a dead end); the right one
    # leaves it at its last vertex
    piece = _segment((-1, 0), (1, 0))
    target = td.polyline_curve([[-0.35, 0.0009], [-0.35, -1.0], [0.35, -1.0], [0.35, 0.0011]])
    return piece, target, None, 1


def _dense_windows():
    # both curves sampled at h/50: the local piece and both walks outgrow
    # their first windows several times over
    h = 0.05
    xs = np.arange(-0.3, 0.31, h / 50)
    piece = td.polyline_curve(np.stack([xs, 0.3 * xs * xs], axis=-1), h)
    ys = np.arange(-0.2, 0.23, h / 50)
    target = td.polyline_curve(np.stack([0.0123 + 0.2 * ys, ys], axis=-1), h)
    return piece, target, None, 1


def _wide_walks():
    # a two-vertex piece with h = 0.5 against a target sampled at h/5000:
    # each walk runs about 5,000 vertices to leave the rectangle, against a
    # local piece of two segments
    piece = td.polyline_curve([[-1.0, 0.0], [1.0, 0.0]], 0.5)
    ys = np.linspace(-1.0, 1.0, 20001) + 3e-5
    target = td.polyline_curve(np.stack([np.full_like(ys, 0.0123), ys], axis=-1), 0.5)
    return piece, target, None, 1


def _touch_before_a_crossing():
    # the first strict crossing in lexicographic order dips through the piece
    # and back inside the rectangle (rejected, as is its partner); the first
    # witness lies further along
    piece = _segment((-1, 0), (1, 0))
    target = td.polyline_curve(
        [[-0.5, 0.0008], [-0.4995, -0.0005], [-0.499, 0.0008], [-0.4985, 1.0], [0.5, 1.0], [0.5, -1.0]]
    )
    return piece, target, 1, 1


def _touch_a_chunk_before_a_crossing():
    # the touch of _touch_before_a_crossing on a piece of 13,999 segments: both
    # its strict crossings lie in the first broad-phase chunk and fail, and
    # the first witness lies in the second chunk
    _, target, _, _ = _touch_before_a_crossing()
    return _segment((-1, 0), (1, 0), n=14000), target, 1, 1


@pytest.mark.parametrize(
    "case",
    [
        _clipped_windows,
        _walks_off_the_end,
        _dense_windows,
        _wide_walks,
        _touch_before_a_crossing,
        _touch_a_chunk_before_a_crossing,
    ],
)
def test_batch_edge_cases_match_reference(case):
    piece, target, max_witnesses, found = case()
    got = td.detect_crossings(piece, target, (0, 0), max_witnesses)
    _assert_same_witnesses(got, _ref_detect_crossings(piece, target, (0, 0), max_witnesses))
    assert len(got) == found


@pytest.mark.parametrize("batch", [1, 4096])
def test_side_offset_chunks_match_reference(monkeypatch, batch):
    # chunks of one walk vertex, and of a few vertices of one hit's window,
    # bound the rows of every dot product and keep the witnesses
    rows = []

    def counting_row_dot(A, B):
        rows.append(np.broadcast_shapes(A.shape, B.shape)[:-1])
        return row_dot(A, B)

    monkeypatch.setattr(manifolds, "SIDE_BATCH", batch)
    monkeypatch.setattr(manifolds, "row_dot", counting_row_dot)
    piece, target, max_witnesses, found = _dense_windows()
    got = td.detect_crossings(piece, target, (0, 0), max_witnesses)
    _assert_same_witnesses(got, _ref_detect_crossings(piece, target, (0, 0), max_witnesses))
    assert len(got) == found
    assert max(math.prod(r) for r in rows) <= max(batch, 1024)


def test_touch_before_a_crossing_is_skipped():
    piece, target, _, _ = _touch_before_a_crossing()
    i, j, _ = manifolds._strict_crossings(
        piece.vertices, target.vertices, np.zeros(2), *manifolds._segment_pairs(piece, target, np.zeros(2))
    )
    assert j.tolist() == [0, 1, 4]  # two strict crossings of the touch come first
    (wit,) = td.detect_crossings(piece, target, max_witnesses=1)
    assert wit.target_segment == 4 and wit.location[0] == pytest.approx(0.5)


def _recorded_queries(monkeypatch):
    """The number of query rows of each `CellIndex.pairs` call from now on."""
    rows = []
    pairs = CellIndex.pairs

    def recording_pairs(self, queries, r):
        rows.append(len(queries))
        return pairs(self, queries, r)

    monkeypatch.setattr(CellIndex, "pairs", recording_pairs)
    return rows


def test_touch_in_one_chunk_and_witness_in_the_next(monkeypatch):
    piece, target, _, _ = _touch_a_chunk_before_a_crossing()
    chunk = manifolds.PIECE_CHUNK
    i, j, _ = manifolds._strict_crossings(
        piece.vertices, target.vertices, np.zeros(2), *manifolds._segment_pairs(piece, target, np.zeros(2))
    )
    assert j.tolist() == [0, 1, 4] and i[1] < chunk <= i[2] < 3 * chunk
    rows = _recorded_queries(monkeypatch)
    (wit,) = td.detect_crossings(piece, target, max_witnesses=1)
    assert (wit.piece_segment, wit.target_segment) == (i[2], 4)
    assert rows == [chunk, 2 * chunk]  # the first two chunks, and no more


@pytest.mark.parametrize("swap", [False, True])
def test_chunked_broad_phase_matches_reference(monkeypatch, k2_pair, swap):
    # chunks of 1, 2, 4, ..., 2, 4, 8, ... and 3, 6, 12, ... piece rows keep
    # the witnesses of the unchunked reference, with either curve as the
    # piece; the reference's first m witnesses are its answer to m
    piece, target = k2_pair[::-1] if swap else k2_pair
    translates = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    want = {v: _ref_detect_crossings(piece, target, v) for v in translates}
    assert any(want.values())
    for chunk in (1, 2, 3):
        monkeypatch.setattr(manifolds, "PIECE_CHUNK", chunk)
        for max_witnesses in (1, 2, 3, None):
            table = td.translate_scan(piece, target, 1, max_witnesses)
            for v in translates:
                _assert_same_witnesses(table[v], want[v][:max_witnesses])
                _assert_same_witnesses(td.detect_crossings(piece, target, v, max_witnesses), want[v][:max_witnesses])


def test_scan_queries_only_the_rows_it_needs(monkeypatch, k2_pair):
    wu, ws = k2_pair
    n = len(wu.vertices) - 1
    rows = _recorded_queries(monkeypatch)
    (wit,) = td.detect_crossings(wu, ws, (1, 0), max_witnesses=1)
    assert wit.piece_segment < manifolds.PIECE_CHUNK < n
    assert rows == [manifolds.PIECE_CHUNK]
    rows.clear()
    td.translate_scan(wu, ws, 1, max_witnesses=1)
    assert len(rows) >= 9 and sum(rows) < 9 * n
    rows.clear()
    td.detect_crossings(wu, ws, (1, 0))
    # without max_witnesses the same chunks run on to the last row
    assert rows[:-1] == [manifolds.PIECE_CHUNK << k for k in range(len(rows) - 1)]
    assert 0 < rows[-1] <= manifolds.PIECE_CHUNK << (len(rows) - 1) and sum(rows) == n


def test_detect_crossings_rejects_a_fractional_translate():
    piece = _segment((-1, 0), (1, 0))
    target = _segment((-0.5, -1), (-0.5, 1))
    for v in [(0.5, 0.0), (0.0, -0.25), (float("nan"), 0.0), (float("inf"), 0.0)]:
        with pytest.raises(ValueError, match="integer"):
            td.detect_crossings(piece, target, v)
    (wit,) = td.detect_crossings(piece, target, (1.0, 0.0))
    assert wit.translate == (1, 0) and type(wit.translate[0]) is int
    assert wit.location == pytest.approx([0.5, 0.0])
    with pytest.raises(ValueError, match="max_witnesses"):
        td.detect_crossings(piece, target, (1, 0), max_witnesses=0)


def test_translate_scan_rejects_a_negative_half_range():
    u = _segment((-0.5, 0), (0.5, 0))
    s = _segment((0, -0.5), (0, 0.5))
    with pytest.raises(ValueError, match="half_range"):
        td.translate_scan(u, s, half_range=-1)
    assert list(td.translate_scan(u, s, half_range=0)) == [(0, 0)]


def test_segment_index_built_once_per_curve(monkeypatch):
    built = []

    def counting_index(points, min_cell):
        built.append(len(points))
        return CellIndex(points, min_cell)

    monkeypatch.setattr(manifolds, "CellIndex", counting_index)
    u = _segment((-0.5, 0), (0.5, 0))
    s = _segment((0, -0.5), (0, 0.5), n=40)
    index = s.cells
    td.translate_scan(u, s, half_range=1, max_witnesses=None)
    td.translate_scan(u, s, half_range=1, max_witnesses=None)
    assert s.cells is index
    assert built == [39]  # one index for the target; the piece needs none
    moved = _translated(s, (1, 0))
    assert moved.cells is not index
    assert np.array_equal(moved.midpoints, 0.5 * (moved.vertices[:-1] + moved.vertices[1:]))
    assert moved.max_len == s.max_len
    assert len(td.detect_crossings(u, moved, (-1, 0))) == 1
    assert built == [39, 39]


def test_mixing_probe_identity_and_translation():
    ident = td.make_identity_map()
    hits, n0 = td.mixing_probe(ident, ((0, 0), 1.0), ((0, 0), 1.0), n_max=20)
    assert n0 == 1 and np.all(hits[1:])
    shift = td.make_translation_map(1.0, 0.0)
    hits, n0 = td.mixing_probe(shift, ((0, 0), 1.0), ((0, 0), 1.0), n_max=20)
    assert n0 is None
    assert hits[1:].sum() <= 3  # only finitely many early hits


def _plane_mixing_hits(m, ball_u, ball_v, n_max):
    """Reference: per-n hits of the ball samples iterated as (n, 2) arrays."""
    cu, ru = np.asarray(ball_u[0], float), float(ball_u[1])
    cv, rv = np.asarray(ball_v[0], float), float(ball_v[1])
    g = np.arange(-manifolds.MIXING_SAMPLES_PER_RADIUS, manifolds.MIXING_SAMPLES_PER_RADIUS + 1)
    g = g * (ru / manifolds.MIXING_SAMPLES_PER_RADIUS)
    X, Y = np.meshgrid(g, g, indexing="ij")
    Z = np.stack([X.ravel(), Y.ravel()], axis=-1)
    Z = Z[np.linalg.norm(Z, axis=1) <= ru] + cu
    hits = np.zeros(n_max + 1, dtype=bool)
    for n in range(1, n_max + 1):
        Z = m.forward(Z)
        hits[n] = bool(np.any(np.linalg.norm(Z - cv, axis=1) <= rv))
    return hits


@pytest.mark.parametrize("ball_v", [((0.0, 0.0), 0.3), ((-1.0, 0.1), 0.2), ((4.0, 0.0), 0.5)])
def test_mixing_hits_match_plane_loop_reference(std_k2, ball_v):
    ball_u = ((0.05, 0.02), 0.2)
    hits, _ = td.mixing_probe(std_k2, ball_u, ball_v, n_max=60)
    want = _plane_mixing_hits(std_k2, ball_u, ball_v, 60)
    np.testing.assert_array_equal(hits, want)
    assert want[1:].any()


def test_subnormal_target_segments_match_reference():
    # a target whose only positive-length segment is subnormal: its cell
    # index has a subnormal cell, whose overflowing coordinates once indexed
    # the offset table with NaN
    target = td.polyline_curve([[0.0, 0.0], [0.0, 2.22507386e-313], [0.0, 2.22507386e-313]], 0.01)
    for P, v in [([[0, 0], [0, 0], [0, 1.0]], (0, 0)), ([[0, 0], [0, -0.4295]], (0, 1)), ([[-0.5, 1e-313], [0.5, 1e-313]], (0, 0))]:
        piece = td.polyline_curve(np.array(P, dtype=float), 0.01)
        got = td.detect_crossings(piece, target, v)
        _assert_same_witnesses(got, _ref_detect_crossings(piece, target, v))
