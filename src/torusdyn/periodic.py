"""Periodic points of f^q(.) - (p, r) via Newton's method.

Hyperbolicity classification follows the convention that a hyperbolic point
with negative eigenvalues is replaced by its doubled-period iterate, whose
eigenvalues are positive and whose manifold branches are invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import row_dot
from .maps import LiftedTorusMap, NumericalAbort, require_finite

NEWTON_STEP_TOL = 1e-12
RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITER = 50
DEDUP_RADIUS = 1e-8
PARABOLIC_BAND = 1e-9


class SingularNewtonError(NumericalAbort):
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
    J, residual = _jacobian_residual(m, z, q, pr)
    return _make_point(z, q, pr, J, residual)


def _make_point(z, q: int, pr, J: np.ndarray, residual) -> PeriodicPoint:
    require_finite(J)
    return PeriodicPoint(
        point=z,
        period=q,
        translation=(int(round(pr[0])), int(round(pr[1]))),
        jacobian=J,
        eigenvalues=_eigvals(J),
        classification=classify_jacobian(J),
        residual=float(residual),
    )


def _orbit_jacobian(m: LiftedTorusMap, z, q: int):
    """(f^q(z), D f^q(z)) by the chain rule along the orbit, for a point or
    an (n, 2) batch."""
    z = np.asarray(z, dtype=float)
    J = np.eye(2)
    for _ in range(q):
        J = m.jacobian(z) @ J
        z = m.forward(z)
    return z, J


def _jacobian_residual(m: LiftedTorusMap, z, q: int, pr):
    """(D f^q(z), || f^q(z) - z - (p, r) ||) for a point or an (n, 2) batch."""
    fz, J = _orbit_jacobian(m, z, q)
    return J, _norm(fz - z - np.asarray(pr, dtype=float))


def _norm(v: np.ndarray):
    """Euclidean norm over the last axis of (..., 2), bitwise equal to
    np.linalg.norm of each row: both take the BLAS dot of the row with
    itself."""
    return np.sqrt(row_dot(v, v))


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


# Per-seed state of the batched Newton solve.
RUNNING, STEP_CONVERGED, DIVERGED, SINGULAR = 0, 1, 2, 3


def _check_newton_args(q: int, tol: float) -> None:
    if q < 1:
        raise ValueError("period must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")


def _newton_batch(m: LiftedTorusMap, q: int, pr, seeds, max_iter: int):
    """Newton on F(z) = f^q(z) - z - (p, r) from every row of an (n, 2)
    seed array at once.

    Each iteration stacks the orbit Jacobians of the running rows, flags the
    rows whose Newton matrix is singular, and takes one solve over the rest.
    A row then stops as diverged (non-finite or |z| > 1e12) or, when its
    step is below NEWTON_STEP_TOL, as step-converged; rows still running
    after max_iter keep their last iterate.  Returns (z, status): the last
    iterate of each row (the iterate at which it was found singular) and
    its state.
    """
    pr_vec = np.asarray(pr, dtype=float)
    z = np.array(seeds, dtype=float).reshape(-1, 2)
    status = np.full(len(z), RUNNING, dtype=np.int8)
    rows = np.arange(len(z))
    for _ in range(max_iter):
        if not len(rows):
            break
        zr = z[rows]
        fz, J = _orbit_jacobian(m, zr, q)
        F = fz - zr - pr_vec
        DF = J - np.eye(2)
        scale = np.abs(DF).max(axis=(1, 2)) ** 2
        singular = np.abs(np.linalg.det(DF)) < 1e-14 * np.where(scale > 1.0, scale, 1.0)
        status[rows[singular]] = SINGULAR
        keep = ~singular
        rows, zr = rows[keep], zr[keep]
        step = np.linalg.solve(DF[keep], -F[keep][:, :, None])[:, :, 0]
        zr = zr + step
        z[rows] = zr
        diverged = ~np.all(np.isfinite(zr), axis=1) | (_norm(zr) > 1e12)
        converged = ~diverged & (_norm(step) < NEWTON_STEP_TOL)
        status[rows[diverged]] = DIVERGED
        status[rows[converged]] = STEP_CONVERGED
        rows = rows[~(diverged | converged)]
    return z, status


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
    non-isolated solutions), NonFiniteImageError when D f^q overflows.
    """
    _check_newton_args(q, tol)
    z, status = _newton_batch(m, q, pr, [seed], max_iter)
    if status[0] == SINGULAR:
        raise SingularNewtonError("Newton matrix is singular at %s" % z[0])
    if status[0] == DIVERGED:
        return None
    pp = _periodic_point(m, z[0], q, pr)
    return None if pp.residual >= tol else pp


def _mod1_distance(a: np.ndarray, b: np.ndarray):
    """Distance between plane points modulo integer translations, row-wise
    over (..., 2) arrays."""
    d = a - b
    d = d - np.floor(d)
    return _norm(np.minimum(d, 1.0 - d))


def _representatives(m: LiftedTorusMap, z: np.ndarray) -> np.ndarray:
    """Shift each row by a lattice vector fixed by A^q, into [0, 1) where
    possible.  Such shifts keep the same (q, (p, r)) family exactly."""
    v = np.floor(z + 1e-9)
    if m.homotopy_class != "identity":
        v[:, 1] = 0.0
    return z - v


def sweep_periodic(
    m: LiftedTorusMap,
    q: int,
    pr: tuple,
    seeds,
    tol: float = RESIDUAL_TOL,
) -> list:
    """Newton from every seed, deduplicated to one representative per orbit.

    The seeds are solved as one batch, and the result equals running
    `newton_periodic` from each seed in turn and keeping, in seed order,
    each point that is not a duplicate of one kept before it.
    Deduplication: distance modulo integer translates below 10 * DEDUP_RADIUS
    (which covers plane distance below DEDUP_RADIUS), and cyclic shifts along
    the same q-orbit.  Singular seeds are skipped (a fully degenerate family
    reports as an empty list); a kept point whose D f^q overflows raises
    NonFiniteImageError.
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    if len(seeds) == 0:
        raise ValueError("empty seed grid")
    _check_newton_args(q, tol)
    z, status = _newton_batch(m, q, pr, seeds, NEWTON_MAX_ITER)
    z = z[status <= STEP_CONVERGED]
    J, residual = _jacobian_residual(m, z, q, pr)
    ok = residual < tol
    z, J, residual = _representatives(m, z[ok]), J[ok], residual[ok]
    # Each pass keeps the first seed left and drops every later seed that
    # duplicates it; any seed left then duplicates none of the kept ones.
    found: list[PeriodicPoint] = []
    left = np.ones(len(z), dtype=bool)
    while left.any():
        i = int(np.argmax(left))
        found.append(_make_point(z[i], q, pr, J[i], residual[i]))
        dup = _mod1_distance(z, z[i]) < DEDUP_RADIUS * 10
        w = z[i]
        for _ in range(q):
            dup |= _mod1_distance(w, z) < 1e-6
            w = m.forward(w)
        left &= ~dup
        left[i] = False
    return found
