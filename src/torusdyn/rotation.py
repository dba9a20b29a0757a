"""Rotation set estimation from Birkhoff averages of displacement.

Estimates are inner approximations: convex hulls of finite-horizon means
over a seed grid.  The limit structure is reported through a two-horizon
Hausdorff gap diagnostic, never as a certificate.

Orbits are iterated by `maps.iterate` on (x mod 1, y), one call per
horizon, with the integer part of x carried in an offset, so seeds that
differ by (a, 0) follow bit-identical reduced orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import convex_hull, hausdorff_gap, interior_margin
from . import maps
from .maps import LiftedTorusMap, OrbitEscapeError

DEFAULT_HORIZONS = (1000, 10000)


class WrongHomotopyClassError(ValueError):
    pass


@dataclass(frozen=True)
class RotationPolygon:
    """Convex estimate of the rotation set of an identity-class lift."""

    hull: np.ndarray              # vertices at the larger horizon, CCW
    hull_coarse: np.ndarray       # vertices at the smaller horizon
    sample_means: list            # (seed, mean at n2, n2) per seed
    horizons: tuple
    hausdorff_gap: float

    def margin(self, p=(0.0, 0.0)) -> float:
        """Signed distance of p to the hull boundary (heuristic)."""
        return interior_margin(p, self.hull)


@dataclass(frozen=True)
class RotationInterval:
    """Vertical rotation interval estimate for a Dehn-class lift."""

    lo: float
    hi: float
    lo_coarse: float
    hi_coarse: float
    sample_means: list
    horizons: tuple
    hausdorff_gap: float

    def margin(self, x: float = 0.0) -> float:
        return min(x - self.lo, self.hi - x)


def seed_grid(nx: int, ny: int) -> np.ndarray:
    """Uniform (nx*ny, 2) grid of seeds on [0,1)^2."""
    xs = np.arange(nx) / nx
    ys = np.arange(ny) / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def _two_horizon_means(m: LiftedTorusMap, z, horizons: tuple):
    """Birkhoff means of a batch at n1 and n2, continuing the n1 iterates on
    to n2."""
    n1, n2 = horizons
    if not (0 < n1 < n2):
        raise ValueError("horizons must satisfy 0 < n1 < n2")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty seed grid")
    x, y = z[:, 0].copy(), z[:, 1].copy()
    # x mod 1 is iterated; offset holds the integer parts taken off
    offset = np.floor(x)
    x -= offset
    done, means = 0, []
    for n in horizons:
        try:
            maps.iterate(m.step, x, y, n - done, offset)
        except OrbitEscapeError as exc:
            raise OrbitEscapeError(done + exc.steps) from None
        done = n
        means.append(np.stack([offset + x - z[:, 0], y - z[:, 1]], axis=-1) / n)
    return means


def estimate_rotation_set(
    m: LiftedTorusMap,
    seeds: np.ndarray,
    horizons: tuple = DEFAULT_HORIZONS,
) -> RotationPolygon:
    """Hull of Birkhoff means over seeds, with a two-horizon gap diagnostic."""
    if m.homotopy_class != "identity":
        raise WrongHomotopyClassError("rotation set needs an identity-class lift")
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    means1, means2 = _two_horizon_means(m, seeds, horizons)
    n1, n2 = horizons
    hull1 = convex_hull(means1)
    hull2 = convex_hull(means2)
    return RotationPolygon(
        hull=hull2,
        hull_coarse=hull1,
        sample_means=[(seeds[i], means2[i], n2) for i in range(len(seeds))],
        horizons=(n1, n2),
        hausdorff_gap=hausdorff_gap(hull1, hull2),
    )


def estimate_vertical_rotation_set(
    m: LiftedTorusMap,
    seeds: np.ndarray,
    horizons: tuple = DEFAULT_HORIZONS,
) -> RotationInterval:
    """[min, max] of vertical Birkhoff means at the larger horizon."""
    if m.homotopy_class != "dehn":
        raise WrongHomotopyClassError("vertical rotation set needs a Dehn-class lift")
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    means1, means2 = _two_horizon_means(m, seeds, horizons)
    n1, n2 = horizons
    v1, v2 = means1[:, 1], means2[:, 1]
    lo1, hi1 = float(v1.min()), float(v1.max())
    lo2, hi2 = float(v2.min()), float(v2.max())
    gap = max(abs(lo1 - lo2), abs(hi1 - hi2))
    return RotationInterval(
        lo=lo2,
        hi=hi2,
        lo_coarse=lo1,
        hi_coarse=hi1,
        sample_means=[(seeds[i], v2[i], n2) for i in range(len(seeds))],
        horizons=(n1, n2),
        hausdorff_gap=gap,
    )
