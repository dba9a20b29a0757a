"""Rotation set estimation from Birkhoff averages of displacement.

Estimates are inner approximations: convex hulls of finite-horizon means
over a seed grid.  The limit structure is reported through a two-horizon
Hausdorff gap diagnostic, never as a certificate.

Orbits are iterated on (x mod 1, y), with the integer part of x carried
in a separate offset.  Both admitted homotopy classes fix (a, 0), so
f(z + (a, 0)) = f(z) + (a, 0): the reduction keeps every orbit a lift
orbit, the sine never sees a large argument, and seeds that differ by
(a, 0) follow bit-identical reduced orbits.  An orbit escapes when |y|
passes ESCAPE_BOUND or the offset is no longer finite; the plane x,
offset + x, is not bounded, since a Dehn twist shears it to order n^2 in
n steps while the vertical means never read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import convex_hull, hausdorff_gap, interior_margin
from .maps import LiftedTorusMap, OrbitEscapeError

DEFAULT_HORIZONS = (1000, 10000)
ESCAPE_BOUND = 1e9


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
    to n2.  Each segment checks the escape bound on what is not reduced, y
    and the carried offset of x, every 256 steps from its first step on, and
    at its last step."""
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
    whole = np.empty_like(x)
    done, means = 0, []
    for n in horizons:
        last = n - done - 1
        for i in range(n - done):
            m.step(x, y)
            np.floor(x, out=whole)
            x -= whole
            offset += whole
            if i % 256 == 0 or i == last:
                if not (np.all(np.abs(y) <= ESCAPE_BOUND) and np.all(np.isfinite(offset))):
                    raise OrbitEscapeError(done + i + 1)
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
