import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusdyn.geometry import (
    GRID_CELLS_PER_AXIS,
    CellIndex,
    _cross,
    convex_hull,
    hausdorff_gap,
    interior_margin,
    point_segment_distance,
)

finite = st.floats(-10.0, 10.0)
point_sets = st.lists(st.tuples(finite, finite), min_size=1, max_size=40)


def test_hull_of_square_with_interior_points():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    # counterclockwise orientation: positive signed area
    x, y = hull[:, 0], hull[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0


def test_hull_collinear_dropped():
    pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
    hull = convex_hull(pts)
    assert len(hull) == 2
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 0], [2, 1]])
    assert len(convex_hull(pts)) == 4


def test_hull_degenerate_inputs():
    assert convex_hull([[0.3, 0.4]]).shape == (1, 2)
    assert convex_hull([[0.3, 0.4], [0.3, 0.4]]).shape == (1, 2)
    with pytest.raises(ValueError):
        convex_hull(np.empty((0, 2)))


@given(point_sets)
@settings(max_examples=50, deadline=None)
def test_hull_contains_all_points(pts):
    pts = np.asarray(pts)
    hull = convex_hull(pts)
    for p in pts:
        assert interior_margin(p, hull) > -1e-9


@given(point_sets, point_sets)
@settings(max_examples=30, deadline=None)
def test_hull_monotone_under_union(a, b):
    ha = convex_hull(np.asarray(a))
    hu = convex_hull(np.asarray(a + b))
    for p in ha:
        assert interior_margin(p, hu) > -1e-9


def test_point_segment_distance_values():
    assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == 1.0
    assert point_segment_distance((2, 0), (-1, 0), (1, 0)) == 1.0
    assert point_segment_distance((5, 5), (1, 1), (1, 1)) == pytest.approx(np.hypot(4, 4))


def test_membership_and_margin():
    hull = convex_hull([[0, 0], [4, 0], [4, 4], [0, 4]])
    assert interior_margin((2, 2), hull) == pytest.approx(2.0)
    assert interior_margin((5, 2), hull) == pytest.approx(-1.0)
    # degenerate hulls never report positive margin
    seg = convex_hull([[0, 0], [1, 0]])
    assert interior_margin((0.5, 0), seg) <= 0.0


def test_hausdorff_gap_values():
    a = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = convex_hull([[0, 0], [2, 0], [2, 1], [0, 1]])
    assert hausdorff_gap(a, b) == pytest.approx(1.0)
    assert hausdorff_gap(a, a) == 0.0


@given(point_sets, point_sets)
@settings(max_examples=30, deadline=None)
def test_hausdorff_gap_symmetric(a, b):
    ha = convex_hull(np.asarray(a))
    hb = convex_hull(np.asarray(b))
    assert hausdorff_gap(ha, hb) == hausdorff_gap(hb, ha)


# -- reference: the hull queries that interior_margin and hausdorff_gap merged --


def _ref_point_in_convex_hull(p, hull):
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


def _ref_distance_to_hull(p, hull):
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if len(hull) == 1:
        return float(np.linalg.norm(p - hull[0]))
    if len(hull) == 2:
        return point_segment_distance(p, hull[0], hull[1])
    if _ref_point_in_convex_hull(p, hull):
        return 0.0
    return min(
        point_segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def _ref_interior_margin(p, hull):
    p = np.asarray(p, dtype=float)
    hull = np.asarray(hull, dtype=float)
    if len(hull) <= 2:
        return -_ref_distance_to_hull(p, hull)
    d_boundary = min(
        point_segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )
    return d_boundary if _ref_point_in_convex_hull(p, hull) else -d_boundary


def _ref_hausdorff_gap(hull_a, hull_b):
    d_ab = max(_ref_distance_to_hull(p, hull_b) for p in hull_a)
    d_ba = max(_ref_distance_to_hull(p, hull_a) for p in hull_b)
    return max(d_ab, d_ba)


# up to 7 points: coarse lattice points (collinear and repeated ones are
# common) or free floats, at scales from 1e-9 to 1e6
_coord = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0, allow_subnormal=False)
_scale = st.sampled_from([1e-9, 1e-3, 1.0, 7.0, 1e6])
_raw = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=7)


@given(_raw, _raw, st.tuples(_coord, _coord), _scale, st.booleans())
# a point off a segment hull whose distance to (a, b) and to (b, a) differ
# in the last bit: the segment's edge keeps the hull's vertex order
@example([(-0.085, 2.337), (2.604, -0.853)], [(0.0, 0.0)], (0.429, -1.069), 1.0, True)
@settings(max_examples=400, deadline=None)
def test_hull_queries_match_reference(a, b, q, scale, as_hull):
    A = np.asarray(a) * scale
    B = np.asarray(b) * scale
    # a point or segment as given, or the convex hull the program passes
    ha = convex_hull(A) if as_hull or len(A) > 2 else A
    hb = convex_hull(B)
    for p in [np.asarray(q) * scale, *A, *(0.5 * (A[:-1] + A[1:]))]:
        for h in (ha, hb):
            assert repr(interior_margin(p, h)) == repr(_ref_interior_margin(p, h))
            assert repr(max(0.0, -interior_margin(p, h))) == repr(_ref_distance_to_hull(p, h))
    assert repr(hausdorff_gap(ha, hb)) == repr(_ref_hausdorff_gap(ha, hb))
    assert repr(hausdorff_gap(hb, ha)) == repr(_ref_hausdorff_gap(hb, ha))


def _brute_pairs(points, queries, r):
    d = points[None, :, :] - queries[:, None, :]
    return np.nonzero(np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) <= r)


lattice = st.tuples(st.integers(-10, 10), st.integers(-10, 10))


@given(
    st.lists(lattice, min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=30),
    st.sampled_from([1.0, 0.25, 0.1, 0.3, 0.7, 1.0 / 3.0]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 13.0]),
    st.sampled_from([0.0, 0.3, 1.0, 2.0, 7.0]),
)
# r is two cells, and rounding puts the point at distance r three cells left
# of the query: a scan of exactly r / cell cells each way misses it
@example([(-1, -4), (-3, -4)], [(1, -4)], 0.3, 2.0, 1.0)
@settings(max_examples=200, deadline=None)
def test_cell_index_pairs_match_brute_force(points, queries, scale, r, min_cell):
    # lattice points put pairs exactly at distance r (3-4-5, 5-12-13, axis
    # steps), queries reach far outside the grid, and r spans up to 43 cells
    P = np.array(points, dtype=float) * scale
    Q = np.array(queries, dtype=float).reshape(-1, 2) * scale
    i, j = CellIndex(P, min_cell * scale).pairs(Q, r * scale)
    bi, bj = _brute_pairs(P, Q, r * scale)
    assert i.dtype.kind == j.dtype.kind == "i"
    assert np.array_equal(i, bi) and np.array_equal(j, bj)


def test_cell_index_empty_results_and_cell_bound():
    index = CellIndex(np.array([[0.0, 0.0], [3.0, 4.0]]), 1.0)
    for queries in (np.empty((0, 2)), np.array([[100.0, -100.0]])):
        i, j = index.pairs(queries, 1.0)
        assert i.shape == j.shape == (0,)
        assert i.dtype.kind == j.dtype.kind == "i"
    i, j = index.pairs([[0.0, 0.0]], 5.0)
    assert i.tolist() == [0, 0] and j.tolist() == [0, 1]
    assert CellIndex(np.array([[2.0, 2.0]]), 0.0).cell == 1.0  # zero extent
    wide = CellIndex(np.array([[0.0, 0.0], [1e6, 1.0]]), 1e-3)
    assert wide.cell == 1e6 / GRID_CELLS_PER_AXIS
    assert max(wide.shape) <= GRID_CELLS_PER_AXIS + 1


def test_cell_index_subnormal_cell_overflows_to_a_full_scan():
    # a subnormal cell overflows the query's cell coordinate and the reach
    # to inf; the scan covers the whole grid instead of indexing with NaN
    P = np.array([[0.0, 0.0], [0.0, 2.225e-313]])
    index = CellIndex(P, 2.225e-313)
    assert index.cell == 2.225e-313
    with np.errstate(invalid="raise"):
        for Q, r in [([[0.0, 0.5]], 0.5), ([[0.25, 0.25]], 0.5), ([[0.0, 1e-313]], 1.0), ([[0.0, 1.0]], 1e-320)]:
            i, j = index.pairs(Q, r)
            bi, bj = _brute_pairs(P, np.array(Q), r)
            assert np.array_equal(i, bi) and np.array_equal(j, bj)
