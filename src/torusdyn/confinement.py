"""Half-plane confinement clouds and complement-disk statistics.

A confinement cloud collects the grid points of a window whose first
``horizon`` forward iterates all satisfy a half-plane inequality: in theta
mode <f^n(z), (cos t, sin t)> >= 0, in south (north) mode the vertical
coordinate of f^n(z) stays <= 0 (>= 0).  Components touching the window
boundary are the finite proxy for unbounded components.

South and north clouds of a lift are computed on one grid column per class
of x mod 1 and copied to the other columns of the class, so they are
exactly 1-periodic in x.  Theta mode and non-lift maps iterate every column.

Components are 4-connected and numbered from 1 in raster order of their
first cell, by a numpy-only run-length labelling (`_label`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CellIndex, convex_hull
from .maps import LiftedTorusMap, require_finite

MODES = ("theta", "south", "north")
DEFAULT_WINDOW = ((-4.0, 4.0), (-4.0, 4.0))
DEFAULT_GRID_STEP = 1.0 / 128.0
DEFAULT_HORIZON = 1000
DEFAULT_EXTRA_ITERATIONS = 10000
MAX_OMEGA_SAMPLES = 2000
DRIFT_THRESHOLD = 1e-3
ESCAPING_FRACTION = 0.99


@dataclass(frozen=True)
class ConfinementCloud:
    mode: str              # "theta" | "south" | "north"
    theta: float | None
    horizon: int
    window: tuple
    grid_step: float
    points: np.ndarray     # surviving grid points, (n, 2)
    labels: np.ndarray     # component id per point, same length
    unbounded_flags: dict  # component id -> touches window boundary
    grid_shape: tuple

    @property
    def n_components(self) -> int:
        return len(self.unbounded_flags)

    def candidate_unbounded_points(self) -> np.ndarray:
        keep = np.array([self.unbounded_flags[c] for c in self.labels])
        return self.points[keep] if len(self.points) else self.points


@dataclass(frozen=True)
class DiskReport:
    region: tuple
    grid_step: float
    disks: list          # (component id, diameter, boundary_touching)
    max_diameter: float  # max over non-boundary-touching components


def _project(x, y, d) -> np.ndarray:
    """<(x, y), d> per point, rounded as the (n, 2) @ d product rounds it."""
    return np.stack([x, y], axis=-1) @ d


def _half_plane(mode: str, theta: float | None):
    """Direction d of the mode's half plane <z, d> >= 0 and its predicate
    ok(x, y), one bool per point of split coordinate arrays."""
    if mode == "theta":
        d = np.array([np.cos(theta), np.sin(theta)])
        return d, lambda x, y: _project(x, y, d) >= 0.0
    if mode == "south":
        return np.array([0.0, -1.0]), lambda x, y: y <= 0.0
    if mode == "north":
        return np.array([0.0, 1.0]), lambda x, y: y >= 0.0
    raise ValueError("mode must be one of %s" % ", ".join(MODES))


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D boolean mask: an int32 array with 0
    off the mask and 1..n on it, numbered in raster order of each
    component's first cell, and n.

    The cells of each row fall into runs, numbered in raster order by one
    cumsum.  Runs of adjacent rows that share a column are joined by hooking
    the larger of two distinct roots onto the smaller and pointer jumping,
    repeated until no edge joins two roots (Shiloach & Vishkin, J.
    Algorithms 3, 1982).  Every root is then the first run of its component.
    The work is on the list of cells, not the grid, since confinement masks
    are sparse.
    """
    mask = np.asarray(mask, dtype=bool)
    ncol = mask.shape[1]
    cells = np.flatnonzero(mask)
    # a cell starts a run unless its left neighbour in the row is a cell
    starts = np.ones(len(cells), dtype=bool)
    starts[1:] = (np.diff(cells) != 1) | (cells[1:] % ncol == 0)
    run = np.cumsum(starts, dtype=np.int32)
    n_runs = int(starts.sum())

    # one edge from a run to the run below per stretch of columns where the
    # two overlap: the run ids stay the same along it
    below = np.searchsorted(cells, cells + ncol)
    below[below == len(cells)] = 0
    edge = cells[below] == cells + ncol
    edge[1:] &= starts[1:] | ~edge[:-1]
    a, b = run[edge], run[below[edge]]

    parent = np.arange(n_runs + 1, dtype=np.int32)
    while True:
        ra, rb = parent[a], parent[b]
        join = ra != rb
        if not join.any():
            break
        a, b, ra, rb = a[join], b[join], ra[join], rb[join]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up

    is_root = parent == np.arange(n_runs + 1)
    is_root[0] = False
    number = np.cumsum(is_root, dtype=np.int32)
    lab = np.zeros(mask.shape, dtype=np.int32)
    lab.flat[cells] = number[parent[run]]
    return lab, int(number[-1])


def _boundary_flags(lab: np.ndarray, n: int) -> np.ndarray:
    """One scan of the edge rows and columns of a `_label` array:
    entry cid is True when component cid has a cell on the grid boundary."""
    on_boundary = np.zeros(n + 1, dtype=bool)
    on_boundary[lab[[0, -1], :]] = True
    on_boundary[lab[:, [0, -1]]] = True
    return on_boundary


def compute_confinement(
    m: LiftedTorusMap,
    mode: str,
    window: tuple = DEFAULT_WINDOW,
    grid_step: float = DEFAULT_GRID_STEP,
    horizon: int = DEFAULT_HORIZON,
    theta: float | None = None,
) -> ConfinementCloud:
    """Grid points whose first `horizon` iterates obey the inequality.

    In theta mode the inequality is on the inner product of the iterate with
    the direction vector; in south/north mode it is on the sign of the
    vertical coordinate.  Requires the matching homotopy class.  A
    non-finite image raises NonFiniteImageError.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "theta" and theta is None:
        raise ValueError("theta mode needs an angle")
    _, ok = _half_plane(mode, theta)

    (x0, x1), (y0, y1) = window
    xs = np.arange(x0, x1 + grid_step / 2, grid_step)
    ys = np.arange(y0, y1 + grid_step / 2, grid_step)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("empty grid")

    # a lift moves z + (1, 0) to f(z) + (1, 0), so south/north survival
    # depends on x only through x mod 1, which floating point gets exactly;
    # iterate one column per class
    key = xs - np.floor(xs) if mode != "theta" and m.is_lift else xs
    reps, col = np.unique(key, return_inverse=True)
    X, Y = np.meshgrid(reps, ys, indexing="ij")

    # survivors are carried as flat indices of the class grid next to their
    # iterates
    gx, gy = X.ravel(), Y.ravel()
    flat = np.flatnonzero(ok(gx, gy))
    x, y = gx[flat], gy[flat]
    for _ in range(horizon):
        if len(flat) == 0:
            break
        m.step(x, y)
        require_finite(x, y)
        alive = ok(x, y)
        flat, x, y = flat[alive], x[alive], y[alive]

    rep_mask = np.zeros(X.shape, dtype=bool)
    rep_mask.flat[flat] = True
    mask = rep_mask[col]
    lab, n = _label(mask)
    on_boundary = _boundary_flags(lab, n)
    rows, cols = np.nonzero(mask)
    return ConfinementCloud(
        mode=mode,
        theta=theta,
        horizon=horizon,
        window=window,
        grid_step=grid_step,
        points=np.stack([xs[rows], ys[cols]], axis=-1),
        labels=lab[mask],
        unbounded_flags={cid: bool(on_boundary[cid]) for cid in range(1, n + 1)},
        grid_shape=mask.shape,
    )


def omega_probe(
    cloud: ConfinementCloud,
    m: LiftedTorusMap,
    extra_iterations: int = DEFAULT_EXTRA_ITERATIONS,
):
    """Drift verdict for the candidate-unbounded part of a cloud.

    "escaping" when at least 99% of sampled points drift past the 1e-3
    threshold with the sign an empty omega-limit would force (consistency
    check only, not a proof); otherwise "persistent".  Returns
    (verdict, drifts) with the per-point projected Birkhoff means; a cloud
    with no candidate points, or none that stays in the half plane, gives
    no drifts and "escaping".  A non-finite image raises NonFiniteImageError.
    """
    pts = cloud.candidate_unbounded_points()
    if len(pts) > MAX_OMEGA_SAMPLES:
        stride = int(np.ceil(len(pts) / MAX_OMEGA_SAMPLES))
        pts = pts[::stride]
    d, ok = _half_plane(cloud.mode, cloud.theta)
    (x0, x1), (y0, y1) = cloud.window

    # running extremes over steps 1..extra_iterations: per coordinate, and of
    # <z, d> in theta mode
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    lo_x, lo_y = np.full(len(pts), np.inf), np.full(len(pts), np.inf)
    hi_x, hi_y = np.full(len(pts), -np.inf), np.full(len(pts), -np.inf)
    low_dot = np.full(len(pts), np.inf) if cloud.mode == "theta" else None
    for _ in range(extra_iterations):
        m.step(x, y)
        np.minimum(lo_x, x, out=lo_x)
        np.minimum(lo_y, y, out=lo_y)
        np.maximum(hi_x, x, out=hi_x)
        np.maximum(hi_y, y, out=hi_y)
        if low_dot is not None:
            np.minimum(low_dot, _project(x, y, d), out=low_dot)
    # the map rules carry a non-finite coordinate on to every later image,
    # so checking the last iterate catches one from any step
    require_finite(x, y)
    # points whose later iterates break the inequality were finite-horizon
    # artifacts, not members of the confinement set; drop them from the stats.
    # South and north test one coordinate, so its two extremes decide.
    alive = low_dot >= 0.0 if low_dot is not None else ok(lo_x, lo_y) & ok(hi_x, hi_y)
    inside = (lo_x >= x0) & (hi_x <= x1) & (lo_y >= y0) & (hi_y <= y1)
    Z = np.stack([x, y], axis=-1)
    drifts = (Z[alive] - pts[alive]) @ d / extra_iterations
    if np.any(alive & inside):
        verdict = "persistent"  # some orbit never left the window
    elif len(drifts) == 0 or np.mean(drifts > DRIFT_THRESHOLD) >= ESCAPING_FRACTION:
        verdict = "escaping"
    else:
        verdict = "persistent"
    return verdict, drifts


def complement_disk_stats(
    obstacle: np.ndarray,
    region: tuple,
    grid_step: float,
) -> DiskReport:
    """Diameters of grid components of the region minus an obstacle cloud.

    Cells within grid_step of an obstacle point are removed; remaining
    cells are grouped by 4-adjacency.  max_diameter is taken over the
    components that do not touch the region boundary (the finite proxy
    for a genuine complement disk).
    """
    obstacle = np.asarray(obstacle, dtype=float).reshape(-1, 2)
    if len(obstacle) == 0:
        raise ValueError("obstacle must be nonempty")
    (x0, x1), (y0, y1) = region
    xs = np.arange(x0 + grid_step / 2, x1, grid_step)
    ys = np.arange(y0 + grid_step / 2, y1, grid_step)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("region smaller than one cell")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([X.ravel(), Y.ravel()], axis=-1)
    free = np.ones(X.shape, dtype=bool)
    free.flat[CellIndex(obstacle, grid_step).pairs(centers, grid_step)[0]] = False
    lab, n = _label(free)
    on_boundary = _boundary_flags(lab, n)
    # flat cell indices of each component in raster order: a stable sort by
    # label, split where the label changes
    flat = lab.ravel()
    order = np.argsort(flat, kind="stable")
    cells = np.split(order, np.cumsum(np.bincount(flat, minlength=n + 1))[:-1])
    disks = []
    max_d = 0.0
    for cid in range(1, n + 1):
        touches = bool(on_boundary[cid])
        diam = _diameter(centers[cells[cid]])
        disks.append((cid, diam, touches))
        if not touches:
            max_d = max(max_d, diam)
    return DiskReport(region=region, grid_step=grid_step, disks=disks, max_diameter=max_d)


def _diameter(pts: np.ndarray) -> float:
    """Max pairwise distance via the convex hull of the point set."""
    if len(pts) == 1:
        return 0.0
    hull = convex_hull(pts)
    best = 0.0
    for i in range(len(hull)):
        d = np.linalg.norm(hull[i + 1 :] - hull[i], axis=1)
        if len(d):
            best = max(best, float(d.max()))
    return best
