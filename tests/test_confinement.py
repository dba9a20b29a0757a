import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import torusdyn as td
from torusdyn.confinement import (
    ConfinementCloud,
    _boundary_flags,
    _half_plane,
    _label,
    complement_disk_stats,
    compute_confinement,
    omega_probe,
)
from torusdyn.maps import LiftedTorusMap, OrbitEscapeError, area_residual, on_copies

SMALL = dict(window=((-1.0, 1.0), (-1.0, 1.0)), grid_step=1.0 / 16.0)


def _point_set(cloud):
    return set(map(tuple, np.round(cloud.points, 9)))


@pytest.mark.parametrize("horizon", [1, 50])
def test_k0_south_cloud_is_lower_half(horizon):
    m = td.make_standard_map(0.0)
    cloud = compute_confinement(m, "south", horizon=horizon, **SMALL)
    expect = {
        (round(x, 9), round(y, 9))
        for x in np.arange(-1.0, 1.0 + 1 / 32, 1 / 16)
        for y in np.arange(-1.0, 1.0 + 1 / 32, 1 / 16)
        if y <= 0
    }
    assert _point_set(cloud) == expect


def test_translation_drift_survivors():
    m = td.make_translation_map(0.0, 1.0)
    cloud = compute_confinement(
        m, "south", window=((-0.5, 0.5), (-6.0, 0.0)), grid_step=0.5, horizon=3
    )
    # y + n <= 0 for all n <= 3 means y <= -3 exactly
    assert np.all(cloud.points[:, 1] <= -3.0)
    assert np.min(cloud.points[:, 1]) == -6.0
    assert np.max(cloud.points[:, 1]) == -3.0


def test_theta_mode_halfplane():
    m = td.make_translation_map(-1.0, 0.0)
    cloud = compute_confinement(
        m, "theta", theta=0.0, window=((-4.0, 4.0), (-0.5, 0.5)), grid_step=0.5, horizon=4
    )
    # <f^n(z), (1,0)> = x - n >= 0 for n <= 4 means x >= 4
    assert np.all(cloud.points[:, 0] >= 4.0)
    assert len(cloud.points) > 0


def test_horizon_monotonicity():
    m = td.make_standard_map(0.3)
    c1 = compute_confinement(m, "south", horizon=10, **SMALL)
    c2 = compute_confinement(m, "south", horizon=50, **SMALL)
    assert _point_set(c2) <= _point_set(c1)


def test_components_partition_points():
    m = td.make_standard_map(0.3)
    cloud = compute_confinement(m, "south", horizon=20, **SMALL)
    assert len(cloud.labels) == len(cloud.points)
    assert set(np.unique(cloud.labels)) == set(range(1, cloud.n_components + 1))


def _grid_index(cloud):
    """(row, col) of each cloud point on its window's grid axes; every point
    must be a grid point exactly."""
    xs, ys = _axes(cloud.window, cloud.grid_step)
    rows = np.searchsorted(xs, cloud.points[:, 0])
    cols = np.searchsorted(ys, cloud.points[:, 1])
    np.testing.assert_array_equal(cloud.points, np.stack([xs[rows], ys[cols]], axis=-1))
    return np.stack([rows, cols], axis=-1)


def _grid_mask(cloud):
    mask = np.zeros(cloud.grid_shape, dtype=bool)
    mask[tuple(_grid_index(cloud).T)] = True
    return mask


def _per_component_flags(cloud):
    """Reference boundary test: one pass over the survivors per component,
    a flag per component id with id 0 (no component) False."""
    nx, ny = cloud.grid_shape
    index = _grid_index(cloud)
    flags = [False]
    for cid in np.unique(cloud.labels):
        rows = index[cloud.labels == cid]
        flags.append(
            bool(
                np.any(rows[:, 0] == 0)
                or np.any(rows[:, 0] == nx - 1)
                or np.any(rows[:, 1] == 0)
                or np.any(rows[:, 1] == ny - 1)
            )
        )
    return flags


@pytest.mark.parametrize("mode", ["south", "north"])
def test_unbounded_flags_match_per_component_loop(mode):
    m = td.make_standard_map(1.0)
    cloud = compute_confinement(m, mode, horizon=20, **SMALL)
    flags = _per_component_flags(cloud)
    assert cloud.unbounded.tolist() == flags
    assert any(flags) and not all(flags[1:])


def _reflect_vertical(m: LiftedTorusMap) -> LiftedTorusMap:
    """Conjugate by (x, y) -> (x, -y); swaps the south/north half planes."""
    T = np.array([1.0, -1.0])

    def conjugate(kernel):
        def apply(x, y):
            np.negative(y, out=y)
            kernel(x, y)
            np.negative(y, out=y)

        return apply

    def jac(z):
        J = m.jacobian(np.asarray(z, dtype=float) * T).copy()
        J[..., 0, 1] *= -1.0
        J[..., 1, 0] *= -1.0
        return J

    A = m.homotopy.copy()
    A[0, 1] *= -1
    A[1, 0] *= -1
    return LiftedTorusMap(
        name=m.name + "_vreflect",
        params=dict(m.params),
        homotopy=A,
        forward=on_copies(conjugate(m.step)),
        inverse=on_copies(conjugate(m.unstep)),
        jacobian=jac,
    )


def test_reflect_vertical_is_involution_and_conjugate(std_k2):
    r = _reflect_vertical(std_k2)
    rr = _reflect_vertical(r)
    rng = np.random.default_rng(4)
    z = rng.uniform(-1, 1, size=(50, 2))
    assert np.allclose(rr.forward(z), std_k2.forward(z), atol=1e-14)
    # conjugacy: r.forward = R o f o R with R = diag(1, -1)
    R = np.array([1.0, -1.0])
    assert np.allclose(r.forward(z), std_k2.forward(z * R) * R, atol=1e-14)
    assert np.array_equal(r.homotopy, [[1, -1], [0, 1]])
    assert area_residual(r, z) < 1e-12


def test_south_equals_north_of_reflected_map():
    m = td.make_standard_map(0.3)
    south = compute_confinement(m, "south", horizon=30, **SMALL)
    north = compute_confinement(_reflect_vertical(m), "north", horizon=30, **SMALL)
    reflected = {(x, -y) for x, y in _point_set(north)}
    assert reflected == _point_set(south)


def _axes(window, grid_step):
    (x0, x1), (y0, y1) = window
    return (
        np.arange(x0, x1 + grid_step / 2, grid_step),
        np.arange(y0, y1 + grid_step / 2, grid_step),
    )


def _all_columns_mask(m, mode, xs, ys, horizon, theta=None):
    """Reference survivor mask: every grid column iterated at its own x."""
    _, ok = _half_plane(mode, theta)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([X.ravel(), Y.ravel()], axis=-1)
    flat = np.flatnonzero(ok(grid[:, 0], grid[:, 1]))
    Z = grid[flat]
    for _ in range(horizon):
        if len(Z) == 0:
            break
        Z = m.forward(Z)
        alive = ok(Z[:, 0], Z[:, 1])
        flat, Z = flat[alive], Z[alive]
    mask = np.zeros(X.shape, dtype=bool)
    mask.flat[flat] = True
    return mask


def _cloud_from_mask(mask, xs, ys, mode, window, grid_step, horizon, theta=None):
    """Reference cloud fields of a survivor mask, built from the full grid."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([X.ravel(), Y.ravel()], axis=-1)
    flat = np.flatnonzero(mask)
    lab, n = ndimage.label(mask)
    return ConfinementCloud(
        mode=mode,
        theta=theta,
        horizon=horizon,
        window=window,
        grid_step=grid_step,
        points=grid[flat],
        labels=lab.flat[flat],
        unbounded=_boundary_flags(lab, n),
        grid_shape=mask.shape,
    )


def _reference_cloud(m, mode, window, grid_step, horizon, theta=None):
    xs, ys = _axes(window, grid_step)
    mask = _all_columns_mask(m, mode, xs, ys, horizon, theta)
    return _cloud_from_mask(mask, xs, ys, mode, window, grid_step, horizon, theta)


def _assert_same_cloud(got, want):
    for f in dataclasses.fields(ConfinementCloud):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


DECK = dict(window=((-2.0, 2.0), (-2.0, 1.5)), grid_step=1.0 / 16.0, horizon=60)


@pytest.mark.parametrize("mode", ["south", "north"])
@pytest.mark.parametrize("k, epsilon", [(2.0, 0.0), (0.3, 0.01)])
def test_lift_cloud_is_unit_strip_copied_to_deck_columns(mode, k, epsilon):
    m = td.make_standard_map(k, epsilon)
    xs, ys = _axes(DECK["window"], DECK["grid_step"])
    in_strip = (xs >= 0.0) & (xs < 1.0)
    strip_mask = _all_columns_mask(m, mode, xs[in_strip], ys, DECK["horizon"])
    # each column takes the strip column with the same x mod 1
    j = np.searchsorted(xs[in_strip], xs - np.floor(xs))
    np.testing.assert_array_equal(xs[in_strip][j], xs - np.floor(xs))
    want = _cloud_from_mask(strip_mask[j], xs, ys, mode, **DECK)
    got = compute_confinement(m, mode, **DECK)
    _assert_same_cloud(got, want)
    assert got.n_components > 0 and len(got.points) < len(xs) * len(ys) // 2


def test_theta_mode_matches_all_columns_reference():
    # theta = pi/2 asks for y >= 0, the north predicate, yet theta mode keys
    # every column by itself
    m = td.make_standard_map(2.0)
    kw = dict(DECK, theta=np.pi / 2)
    _assert_same_cloud(
        compute_confinement(m, "theta", **kw), _reference_cloud(m, "theta", **kw)
    )


def test_grid_without_shared_classes_matches_all_columns_reference():
    m = td.make_standard_map(2.0)
    kw = dict(DECK, window=((0.0, 0.9), (-2.0, 1.5)))
    _assert_same_cloud(
        compute_confinement(m, "south", **kw), _reference_cloud(m, "south", **kw)
    )


@pytest.mark.parametrize("mode, theta", [("south", None), ("north", None), ("theta", 0.3)])
def test_k2_cloud_on_one_strip_matches_plane_loop_reference(std_k2, mode, theta):
    # every column in [0, 1) is its own class, so the cloud is iterated
    # column by column like the reference
    kw = dict(DECK, window=((0.0, 0.9), (-2.0, 1.5)), theta=theta)
    _assert_same_cloud(
        compute_confinement(std_k2, mode, **kw), _reference_cloud(std_k2, mode, **kw)
    )


def _assert_same_labels(mask):
    lab, n = _label(mask)
    ref, ref_n = ndimage.label(mask)
    assert n == ref_n
    assert lab.dtype == ref.dtype == np.int32
    np.testing.assert_array_equal(lab, ref)


mask_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
)


@given(arrays(bool, mask_shapes))
@settings(max_examples=200, deadline=None)
def test_label_matches_ndimage_on_random_masks(mask):
    _assert_same_labels(mask)


def _serpentine(n):
    """Full columns joined at alternate ends into one path of n columns."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True
    mask[-1, 1::4] = True
    mask[0, 3::4] = True
    return mask


@pytest.mark.parametrize(
    "mask",
    [
        np.zeros((6, 9), dtype=bool),
        np.ones((6, 9), dtype=bool),
        np.indices((9, 8)).sum(axis=0) % 2 == 0,  # diagonal cells stay apart
        _serpentine(257),
        _serpentine(257).T,
    ],
    ids=["empty", "full", "checkerboard", "serpentine", "serpentine_rows"],
)
def test_label_matches_ndimage_on_fixed_masks(mask):
    _assert_same_labels(mask)


def test_label_matches_ndimage_on_default_south_cloud(std_k2):
    cloud = compute_confinement(std_k2, "south")
    mask = _grid_mask(cloud)
    assert len(cloud.points) == 26166
    _assert_same_labels(mask)


def _reference_omega_probe(cloud, m, extra_iterations):
    """Reference probe: tests every iterate against the half plane and the
    window."""
    pts = cloud.points[cloud.unbounded[cloud.labels]]
    d, ok = _half_plane(cloud.mode, cloud.theta)
    (x0, x1), (y0, y1) = cloud.window
    alive = np.ones(len(pts), dtype=bool)
    inside = np.ones(len(pts), dtype=bool)
    Z = pts.copy()
    for _ in range(extra_iterations):
        Z = m.forward(Z)
        alive &= ok(Z[:, 0], Z[:, 1])
        inside &= (Z[:, 0] >= x0) & (Z[:, 0] <= x1) & (Z[:, 1] >= y0) & (Z[:, 1] <= y1)
    if not np.isfinite(Z).all():
        raise FloatingPointError("non-finite image")
    drifts = (Z[alive] - pts[alive]) @ d / extra_iterations
    if np.any(alive & inside):
        verdict = "persistent"
    elif len(drifts) == 0 or np.mean(drifts > 1e-3) >= 0.99:
        verdict = "escaping"
    else:
        verdict = "persistent"
    return verdict, drifts


@pytest.mark.parametrize(
    "mode, theta", [("south", None), ("north", None), ("theta", 0.3), ("theta", 2.0)]
)
@pytest.mark.parametrize("k, epsilon", [(2.0, 0.0), (0.3, 0.01)])
def test_omega_probe_matches_per_step_reference(mode, theta, k, epsilon):
    m = td.make_standard_map(k, epsilon)
    cloud = compute_confinement(m, mode, theta=theta, **DECK)
    assert np.count_nonzero(cloud.unbounded[cloud.labels]) <= 2000  # no subsampling
    verdict, drifts = omega_probe(cloud, m, 1000)
    ref_verdict, ref_drifts = _reference_omega_probe(cloud, m, 1000)
    assert verdict == ref_verdict
    assert drifts.tobytes() == ref_drifts.tobytes()


@pytest.mark.parametrize("mode, theta", [("south", None), ("theta", 0.3)])
def test_omega_probe_non_finite_image_raises(std_k2, mode, theta):
    # at k = 1e308 the first image already passes the escape bound
    cloud = compute_confinement(std_k2, mode, theta=theta, **DECK)
    assert np.count_nonzero(cloud.unbounded[cloud.labels]) > 0
    with np.errstate(all="ignore"), pytest.raises(
        OrbitEscapeError, match="^orbit escaped the coordinate bound after 1 steps$"
    ):
        omega_probe(cloud, td.make_standard_map(1e308), 50)


@pytest.mark.parametrize("mode, theta", [("south", None), ("north", None), ("theta", 0.3)])
def test_planted_nan_is_never_dropped_silently(std_k2, mode, theta):
    # half the survivors turn NaN at step 3; a half-plane test that a NaN
    # fails would drop them and return a cloud without them, while the
    # negated predicates keep them to the escape check at the last step
    calls = []

    def planted(x, y):
        std_k2.step(x, y)
        calls.append(1)
        if len(calls) == 3:
            y[::2] = np.nan

    m = dataclasses.replace(std_k2, forward=on_copies(planted))
    with np.errstate(invalid="ignore"), pytest.raises(
        OrbitEscapeError, match="^orbit escaped the coordinate bound after 20 steps$"
    ):
        compute_confinement(m, mode, theta=theta, **dict(DECK, horizon=20))


def test_omega_probe_k0_persistent():
    m = td.make_standard_map(0.0)
    cloud = compute_confinement(m, "south", horizon=20, **SMALL)
    verdict, drifts = omega_probe(cloud, m, extra_iterations=200)
    assert verdict == "persistent"
    assert np.max(np.abs(drifts)) < 1e-12  # vertical coordinate is invariant


def test_confinement_input_validation():
    m = td.make_standard_map(0.0)
    with pytest.raises(ValueError):
        compute_confinement(m, "south", horizon=0, **SMALL)
    with pytest.raises(ValueError):
        compute_confinement(m, "theta", horizon=5, **SMALL)  # theta missing
    for mode in ("south", "north"):
        with pytest.raises(ValueError, match="only theta mode"):
            compute_confinement(m, mode, horizon=5, theta=0.0, **SMALL)  # an angle that plays no part
    with pytest.raises(ValueError):
        compute_confinement(m, "west", horizon=5, **SMALL)
    with pytest.raises(ValueError):
        compute_confinement(m, "south", window=((0, -1), (0, 1)), grid_step=0.5, horizon=5)


def test_disk_stats_unit_squares():
    # obstacle = integer grid lines: components are unit squares, diam sqrt(2)
    t = np.linspace(0.0, 3.0, 301)
    lines = []
    for c in range(4):
        lines.append(np.stack([t, np.full_like(t, c)], axis=-1))
        lines.append(np.stack([np.full_like(t, c), t], axis=-1))
    obstacle = np.vstack(lines)
    step = 0.05
    report = complement_disk_stats(obstacle, ((0.0, 3.0), (0.0, 3.0)), step)
    interior = [d for _, d, touching in report.disks if not touching]
    assert len(interior) == 9
    # cell centers sit 1.5 steps inside each square, shrinking the diagonal
    for d in interior:
        assert abs(d - np.sqrt(2.0)) < 5 * step
    assert report.max_diameter == max(interior)


def test_disk_stats_dense_obstacle_no_disks():
    g = td.seed_grid(50, 50)  # spacing 0.02 < grid_step below
    report = complement_disk_stats(g, ((0.2, 0.8), (0.2, 0.8)), 0.05)
    assert report.disks == []
    assert report.max_diameter == 0.0


def test_disk_stats_validation():
    with pytest.raises(ValueError):
        complement_disk_stats(np.empty((0, 2)), ((0, 1), (0, 1)), 0.1)
    with pytest.raises(ValueError):
        complement_disk_stats(np.array([[0.5, 0.5]]), ((0, 0.01), (0, 0.01)), 0.1)


def _per_component_disks(obstacle, region, grid_step):
    """Reference disk list: one pass over the whole label grid per component."""
    from scipy import ndimage
    from scipy.spatial import cKDTree

    from torusdyn.confinement import _diameter

    (x0, x1), (y0, y1) = region
    xs = np.arange(x0 + grid_step / 2, x1, grid_step)
    ys = np.arange(y0 + grid_step / 2, y1, grid_step)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    dist, _ = cKDTree(obstacle).query(np.stack([X.ravel(), Y.ravel()], axis=-1))
    lab, n = ndimage.label((dist > grid_step).reshape(len(xs), len(ys)))
    disks = []
    for cid in range(1, n + 1):
        rows, cols = np.nonzero(lab == cid)
        touches = bool(
            np.any(rows == 0)
            or np.any(rows == len(xs) - 1)
            or np.any(cols == 0)
            or np.any(cols == len(ys) - 1)
        )
        disks.append((cid, _diameter(np.stack([xs[rows], ys[cols]], axis=-1)), touches))
    return disks


@pytest.mark.parametrize("region", [((0.0, 2.0), (0.0, 2.0)), ((0.3, 1.7), (-1.0, 0.9))])
def test_disk_stats_match_per_component_loop(fp_origin, std_k2, region):
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", 60.0, 1e-3, 1e-6)
    report = complement_disk_stats(wu.vertices, region, 0.02)
    expect = _per_component_disks(wu.vertices, region, 0.02)
    assert report.disks == expect
    assert any(t for _, _, t in expect) and not all(t for _, _, t in expect)
    assert report.max_diameter == max(d for _, d, t in expect if not t)
