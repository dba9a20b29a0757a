import numpy as np
import pytest

import torusdyn as td
from torusdyn.confinement import complement_disk_stats, compute_confinement, omega_probe
from torusdyn.maps import reflect_vertical

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
    assert set(cloud.unbounded_flags) == set(np.unique(cloud.labels))


def _per_component_flags(cloud):
    """Reference boundary test: one pass over the survivors per component."""
    nx, ny = cloud.grid_shape
    flags = {}
    for cid in np.unique(cloud.labels):
        rows = cloud.index[cloud.labels == cid]
        flags[int(cid)] = bool(
            np.any(rows[:, 0] == 0)
            or np.any(rows[:, 0] == nx - 1)
            or np.any(rows[:, 1] == 0)
            or np.any(rows[:, 1] == ny - 1)
        )
    return flags


@pytest.mark.parametrize("mode", ["south", "north"])
def test_unbounded_flags_match_per_component_loop(mode):
    m = td.make_standard_map(1.0)
    cloud = compute_confinement(m, mode, horizon=20, **SMALL)
    axis = np.arange(-1.0, 1.0 + 1 / 32, 1 / 16)
    np.testing.assert_array_equal(cloud.points, axis[cloud.index])
    flags = _per_component_flags(cloud)
    assert cloud.unbounded_flags == flags
    assert any(flags.values()) and not all(flags.values())


def test_south_equals_north_of_reflected_map():
    m = td.make_standard_map(0.3)
    south = compute_confinement(m, "south", horizon=30, **SMALL)
    north = compute_confinement(reflect_vertical(m), "north", horizon=30, **SMALL)
    reflected = {(x, -y) for x, y in _point_set(north)}
    assert reflected == _point_set(south)


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
