"""Periodic points of f^q(.) - (p, r) via Newton's method.

Hyperbolicity classification follows the convention that a hyperbolic point
with negative eigenvalues is replaced by its doubled-period iterate, whose
eigenvalues are positive and whose manifold branches are invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .maps import LiftedTorusMap

NEWTON_STEP_TOL = 1e-12
RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITER = 50
DEDUP_RADIUS = 1e-8
PARABOLIC_BAND = 1e-9


class SingularNewtonError(RuntimeError):
    """Newton matrix is (numerically) singular, e.g. at a parabolic point."""


@dataclass(frozen=True)
class PeriodicPoint:
    point: np.ndarray          # Q in the plane
    period: int                # q >= 1
    translation: tuple         # integer (p, r)
    jacobian: np.ndarray       # Df^q(Q)
    eigenvalues: np.ndarray    # pair, real or complex conjugate
    classification: str        # hyperbolic_positive | hyperbolic_negative | elliptic | parabolic
    residual: float            # || f^q(Q) - Q - (p, r) ||

    def doubled(self, m: LiftedTorusMap) -> "PeriodicPoint":
        """Same point as a (2q, 2(p,r)) periodic point; used to pass from
        negative to positive eigenvalues."""
        pr2 = (2 * self.translation[0], 2 * self.translation[1])
        return _periodic_point(m, self.point.copy(), 2 * self.period, pr2)


def _periodic_point(m: LiftedTorusMap, z: np.ndarray, q: int, pr) -> PeriodicPoint:
    """z as a (q, (p, r)) periodic point: orbit Jacobian, residual
    || f^q(z) - z - (p, r) ||, eigenvalues and class."""
    fz, J = _orbit_jacobian(m, z, q)
    return PeriodicPoint(
        point=z,
        period=q,
        translation=(int(round(pr[0])), int(round(pr[1]))),
        jacobian=J,
        eigenvalues=_eigvals(J),
        classification=classify_jacobian(J),
        residual=float(np.linalg.norm(fz - z - np.asarray(pr, dtype=float))),
    )


def _orbit_jacobian(m: LiftedTorusMap, z, q: int):
    """(f^q(z), D f^q(z)) by the chain rule along the orbit."""
    z = np.asarray(z, dtype=float)
    J = np.eye(2)
    for _ in range(q):
        J = m.jacobian(z) @ J
        z = m.forward(z)
    return z, J


def _eigvals(J: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(J)
    if np.all(np.abs(ev.imag) < 1e-12):
        ev = np.sort(ev.real)[::-1].astype(complex)
    return ev


def classify_jacobian(J: np.ndarray) -> str:
    """Trace/determinant test for an area-preserving 2x2 Jacobian."""
    tr = float(np.trace(J))
    if abs(abs(tr) - 2.0) < PARABOLIC_BAND:
        return "parabolic"
    if tr > 2.0:
        return "hyperbolic_positive"
    if tr < -2.0:
        return "hyperbolic_negative"
    return "elliptic"


def classify(pp: PeriodicPoint) -> str:
    return classify_jacobian(pp.jacobian)


def newton_periodic(
    m: LiftedTorusMap,
    q: int,
    pr: tuple,
    seed,
    tol: float = RESIDUAL_TOL,
    max_iter: int = NEWTON_MAX_ITER,
):
    """Solve F(z) = f^q(z) - z - (p, r) = 0 by Newton from a seed.

    Returns a PeriodicPoint on convergence, None on divergence; raises
    SingularNewtonError when the Newton matrix degenerates (parabolic or
    non-isolated solutions).
    """
    if q < 1:
        raise ValueError("period must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    pr_vec = np.asarray(pr, dtype=float)
    z = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        fz, J = _orbit_jacobian(m, z, q)
        F = fz - z - pr_vec
        DF = J - np.eye(2)
        det = np.linalg.det(DF)
        if abs(det) < 1e-14 * max(1.0, np.abs(DF).max() ** 2):
            raise SingularNewtonError("Newton matrix is singular at %s" % z)
        step = np.linalg.solve(DF, -F)
        z = z + step
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > 1e12:
            return None
        if np.linalg.norm(step) < NEWTON_STEP_TOL:
            break
    pp = _periodic_point(m, z, q, pr)
    return None if pp.residual >= tol else pp


def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def _mod1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two plane points modulo integer translations."""
    d = _frac(a - b)
    d = np.minimum(d, 1.0 - d)
    return float(np.linalg.norm(d))


def _same_orbit(m: LiftedTorusMap, a: PeriodicPoint, b: PeriodicPoint) -> bool:
    """True when b lies on the projected q-orbit of a (mod 1), or coincides."""
    if a.period != b.period:
        return False
    z = a.point
    for _ in range(a.period):
        if _mod1_distance(z, b.point) < 1e-6:
            return True
        z = m.forward(z)
    return False


def _normalize_representative(m: LiftedTorusMap, pp: PeriodicPoint) -> PeriodicPoint:
    """Shift the point by a lattice vector fixed by A^q, into [0, 1) where
    possible.  Such shifts keep the same (q, (p, r)) family exactly."""
    if not m.is_lift:
        return pp
    z = pp.point
    if m.homotopy_class == "identity":
        v = np.floor(z + 1e-9)
    else:
        v = np.array([np.floor(z[0] + 1e-9), 0.0])
    if not np.any(v):
        return pp
    return replace(pp, point=z - v)


def sweep_periodic(
    m: LiftedTorusMap,
    q: int,
    pr: tuple,
    seeds,
    tol: float = RESIDUAL_TOL,
) -> list:
    """Newton from every seed, deduplicated to one representative per orbit.

    Deduplication: distance modulo integer translates below 10 * DEDUP_RADIUS
    (which covers plane distance below DEDUP_RADIUS), and cyclic shifts along
    the same q-orbit.  Singular seeds are skipped (a fully degenerate family
    reports as an empty list).
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    if len(seeds) == 0:
        raise ValueError("empty seed grid")
    found: list[PeriodicPoint] = []
    for seed in seeds:
        try:
            pp = newton_periodic(m, q, pr, seed, tol=tol)
        except SingularNewtonError:
            continue
        if pp is None:
            continue
        pp = _normalize_representative(m, pp)
        if not any(
            _mod1_distance(pp.point, other.point) < DEDUP_RADIUS * 10
            or _same_orbit(m, other, pp)
            for other in found
        ):
            found.append(pp)
    return found
