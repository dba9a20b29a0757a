"""Shared fixtures, and helpers the library itself has no use for: the
linear saddle, the inverse of a map as a map, the growth map of a periodic
point and its inverse on stacked (..., 2) points, and the pullback-rate fit
of a grown curve."""

import numpy as np
import pytest

import torusdyn as td
from torusdyn import manifolds
from torusdyn.maps import _split_jacobian, on_copies


@pytest.fixture(scope="session")
def std_k2():
    return td.make_standard_map(2.0)


@pytest.fixture(scope="session")
def fp_origin(std_k2):
    pp = td.newton_periodic(std_k2, 1, (0, 0), (0.1, 0.1))
    assert pp is not None
    assert np.linalg.norm(pp.point) < 1e-10
    return pp


def make_linear_saddle(lam: float = 2.0):
    """(x, y) -> (lam x, y / lam): a plane map, not a torus lift, with a
    hyperbolic fixed point at the origin whose manifolds are the axes.
    Newton and manifold growth need no lift, so the tests run them on it."""
    lam = float(lam)

    def step(x, y):
        x *= lam
        y /= lam

    def unstep(x, y):
        x /= lam
        y *= lam

    return td.LiftedTorusMap(
        name="linear_saddle",
        params={"lam": lam},
        forward=on_copies(step),
        inverse=on_copies(unstep),
        jacobian=_split_jacobian(lambda x, y: (lam, 0.0, 0.0, 1.0 / lam)),
    )


def inverted(m):
    """The inverse map of m as a LiftedTorusMap (rules swapped)."""
    fwd, inv, jac = m.forward, m.inverse, m.jacobian

    def jac_inv(z):
        J = jac(inv(np.asarray(z, dtype=float)))
        return np.linalg.inv(J)

    A = np.rint(np.linalg.inv(m.homotopy)).astype(int)
    return td.LiftedTorusMap(
        name=m.name + "^-1",
        params=dict(m.params),
        homotopy=A,
        forward=inv,
        inverse=fwd,
        jacobian=jac_inv,
    )


def growth_maps(m, pp):
    """g(z) = f^q(z) - (p, r) and its inverse, on (..., 2) points through the
    map's forward and inverse rules: the reference for `grow_manifold`'s
    in-place step and unstep loops."""
    q = pp.period
    pr = np.asarray(pp.translation, dtype=float)

    def g(z):
        z = np.asarray(z, dtype=float)
        for _ in range(q):
            z = m.forward(z)
        return z - pr

    def g_inv(w):
        w = np.asarray(w, dtype=float) + pr
        for _ in range(q):
            w = m.inverse(w)
        return w

    return g, g_inv


def pullback_rate_fit(m, curve, max_steps: int = 400):
    """Fit the geometric convergence rate of curve vertices pulled back to Q.

    Returns (slope, expected) where expected = -log(expanding eigenvalue);
    the fit uses log distance per backward (resp. forward, for stable
    curves) iteration inside a clean linear window.
    """
    g, g_inv = growth_maps(m, curve.owner)
    back = g_inv if curve.kind == "unstable" else g
    u_dir, s_dir, (lam_u, lam_s) = manifolds.eigen_frame(curve.owner)
    lam = lam_u if curve.kind == "unstable" else 1.0 / lam_s
    Q = curve.owner.point
    z = curve.vertices[3 * len(curve.vertices) // 4]
    dists = []
    for _ in range(max_steps):
        d = float(np.linalg.norm(z - Q))
        dists.append(d)
        # stop once rounding error starts re-expanding the pullback
        if len(dists) > 2 and d > 2.0 * dists[-2] and dists[-2] < 1e-4:
            break
        z = back(z)
    dists = np.asarray(dists)
    imin = int(np.argmin(dists))
    idx = np.array([i for i in range(imin + 1) if dists[i] < 0.5])
    if len(idx) < 3:
        raise manifolds.GrowthError("not enough points in the linear convergence window")
    slope = np.polyfit(idx, np.log(dists[idx]), 1)[0]
    return float(slope), float(-np.log(lam))
