import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusdyn.geometry import (
    GRID_CELLS_PER_AXIS,
    CellIndex,
    convex_hull,
    distance_to_hull,
    hausdorff_gap,
    interior_margin,
    point_in_convex_hull,
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
        assert distance_to_hull(p, hull) < 1e-9


@given(point_sets, point_sets)
@settings(max_examples=30, deadline=None)
def test_hull_monotone_under_union(a, b):
    ha = convex_hull(np.asarray(a))
    hu = convex_hull(np.asarray(a + b))
    for p in ha:
        assert distance_to_hull(p, hu) < 1e-9


def test_point_segment_distance_values():
    assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == 1.0
    assert point_segment_distance((2, 0), (-1, 0), (1, 0)) == 1.0
    assert point_segment_distance((5, 5), (1, 1), (1, 1)) == pytest.approx(np.hypot(4, 4))


def test_membership_and_margin():
    hull = convex_hull([[0, 0], [4, 0], [4, 4], [0, 4]])
    assert point_in_convex_hull((2, 2), hull)
    assert not point_in_convex_hull((5, 2), hull)
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
