"""Lifted torus maps as explicit plane maps with homotopy data.

A lift satisfies f(z + v) = f(z) + A @ v for every integer vector v, where A
is either the identity or a Dehn-twist matrix [[1, k], [0, 1]].  Every map
is such a lift: rotation, confinement and the periodic sweep shift points
by lattice vectors and rely on that identity, which a test checks for every
``BUILTIN_MAPS`` entry.

A map direction has one rule, stated once as an in-place kernel
``step(x, y)``: x and y are float64 arrays of one shape, owned by the
caller, and after the call they hold the image.  ``on_copies(step)`` is the
(..., 2) -> (..., 2) rule that runs the kernel on copies and carries it as
``rule.in_place``, so the stacked ``forward`` and ``inverse`` and the
in-place ``step`` and ``unstep`` that orbit loops and manifold growth run
are one computation and agree bit for bit.  Each factory states its two
kernels and its Jacobian entries (x, y) -> (a, b, c, d), which
``_split_jacobian`` lays out as [[a, b], [c, d]].  A new map is one factory
and one ``BUILTIN_MAPS`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi
ESCAPE_BOUND = 1e9


class NumericalAbort(RuntimeError):
    """A probe has no answer at this input or budget: an orbit escaped, an
    image overflowed, a Newton matrix is singular, a search ran out of
    budget.  The CLI exits 3; a gated check-all row reads inconclusive."""


class NonFiniteImageError(NumericalAbort, FloatingPointError):
    """`require_finite`'s abort, also a FloatingPointError."""


class OrbitEscapeError(NumericalAbort):
    """Raised when an orbit leaves the coordinate bound, with the number of
    map steps from the seed to the check that caught it."""

    def __init__(self, steps: int):
        super().__init__("orbit escaped the coordinate bound after %d steps" % steps)
        self.steps = steps


def validate_homotopy(entries) -> np.ndarray:
    """Check that a 2x2 integer matrix is an admitted homotopy matrix.

    Admitted forms: the identity, or [[1, k], [0, 1]] with k a nonzero
    integer (Dehn-twist exponent).  Returns the matrix as an int array.
    """
    A = np.asarray(entries, dtype=int)
    if A.shape != (2, 2):
        raise ValueError("homotopy matrix must be 2x2")
    if round(np.linalg.det(A)) != 1:
        raise ValueError("homotopy matrix must have determinant 1")
    if np.array_equal(A, np.eye(2, dtype=int)):
        return A
    if A[0, 0] == 1 and A[1, 1] == 1 and A[1, 0] == 0 and A[0, 1] != 0:
        return A
    raise ValueError("homotopy matrix must be the identity or [[1,k],[0,1]], k != 0")


def homotopy_class(A: np.ndarray) -> str:
    """'identity' or 'dehn' for an admitted homotopy matrix."""
    return "identity" if A[0, 1] == 0 else "dehn"


@dataclass(frozen=True)
class LiftedTorusMap:
    """A plane map covering a torus map, with closed-form rules.

    ``forward`` and ``inverse`` map arrays of shape (..., 2) to the same
    shape and must each carry an in-place kernel as ``in_place`` (build
    them with ``on_copies``; a wrapper made with ``functools.wraps`` keeps
    it); ``jacobian`` maps them to shape (..., 2, 2).  ``step`` and
    ``unstep`` are those kernels, read from the rules on construction, so
    ``dataclasses.replace`` with a new rule also replaces its kernel.
    """

    name: str
    params: dict = field(default_factory=dict)
    homotopy: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=int))
    forward: Callable[[np.ndarray], np.ndarray] = None
    inverse: Callable[[np.ndarray], np.ndarray] = None
    jacobian: Callable[[np.ndarray], np.ndarray] = None
    step: Callable[[np.ndarray, np.ndarray], None] = field(init=False, repr=False)
    unstep: Callable[[np.ndarray, np.ndarray], None] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "homotopy", validate_homotopy(self.homotopy))
        for kernel, rule in (("step", "forward"), ("unstep", "inverse")):
            in_place = getattr(getattr(self, rule), "in_place", None)
            if in_place is None:
                raise TypeError("%s rule has no in-place kernel; build it with maps.on_copies" % rule)
            object.__setattr__(self, kernel, in_place)

    @property
    def homotopy_class(self) -> str:
        return homotopy_class(self.homotopy)


def on_copies(step):
    """The (..., 2) -> (..., 2) rule that runs the in-place kernel
    step(x, y) on copies of the split coordinates, with the kernel attached
    as ``rule.in_place``."""

    def rule(z):
        z = np.asarray(z, dtype=float)
        x, y = z[..., 0].copy(), z[..., 1].copy()
        step(x, y)
        return np.stack([x, y], axis=-1)

    rule.in_place = step
    return rule


def _split_jacobian(entries):
    """The (..., 2) -> (..., 2, 2) Jacobian [[a, b], [c, d]] of a formula
    (x, y) -> (a, b, c, d); an entry may be a scalar."""

    def apply(z):
        z = np.asarray(z, dtype=float)
        J = np.empty(z.shape[:-1] + (2, 2))
        J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1] = entries(z[..., 0], z[..., 1])
        return J

    return apply


def make_standard_map(k: float, epsilon: float = 0.0) -> LiftedTorusMap:
    """Lift of the Chirikov standard map family, with vertical perturbation.

    S(x, y) = (x + y + k sin(2 pi x), y + k sin(2 pi x) + epsilon),
    homotopy matrix [[1, 1], [0, 1]].  epsilon = 0 gives the unperturbed map.
    """
    k = float(k)
    epsilon = float(epsilon)

    def step(x, y):
        # rounds as the closed form: s = k sin(2 pi x), then (x + y) + s and
        # (y + s) + epsilon
        s = np.empty_like(x)
        np.multiply(TWO_PI, x, out=s)
        np.sin(s, out=s)
        s *= k
        x += y
        x += s
        y += s
        y += epsilon

    def unstep(x, y):
        # rounds as the closed form: x = (X - Y) + epsilon, s = k sin(2 pi x),
        # then (Y - s) - epsilon
        x -= y
        x += epsilon
        s = np.empty_like(x)
        np.multiply(TWO_PI, x, out=s)
        np.sin(s, out=s)
        s *= k
        y -= s
        y -= epsilon

    def jac(x, y):
        c = TWO_PI * k * np.cos(TWO_PI * x)
        return 1.0 + c, 1.0, c, 1.0

    return LiftedTorusMap(
        name="standard",
        params={"k": k, "epsilon": epsilon},
        homotopy=np.array([[1, 1], [0, 1]]),
        forward=on_copies(step),
        inverse=on_copies(unstep),
        jacobian=_split_jacobian(jac),
    )


def make_translation_map(a: float, b: float) -> LiftedTorusMap:
    """z -> z + (a, b), identity homotopy."""
    a, b = float(a), float(b)

    def step(x, y):
        x += a
        y += b

    def unstep(x, y):
        x -= a
        y -= b

    return LiftedTorusMap(
        name="translation",
        params={"a": a, "b": b},
        forward=on_copies(step),
        inverse=on_copies(unstep),
        jacobian=_split_jacobian(lambda x, y: (1.0, 0.0, 0.0, 1.0)),
    )


def make_identity_map() -> LiftedTorusMap:
    return replace(make_translation_map(0.0, 0.0), name="identity")


def make_drift_shear(d: float) -> LiftedTorusMap:
    """(x, y) -> (x + d sin^2(pi y), y); identity homotopy.

    Every orbit keeps y fixed and drifts horizontally by c(y) = d sin^2(pi y)
    per step, so the Birkhoff mean at (x, y) is exactly (c(y), 0).  The
    extreme means over [0, 1) are (0, 0) at y = 0 and (d, 0) at y = 1/2,
    which makes the true rotation set known by construction.
    """
    d = float(d)

    def step(x, y):
        x += d * np.sin(np.pi * y) ** 2

    def unstep(x, y):
        x -= d * np.sin(np.pi * y) ** 2

    return LiftedTorusMap(
        name="drift_shear",
        params={"d": d},
        forward=on_copies(step),
        inverse=on_copies(unstep),
        jacobian=_split_jacobian(lambda x, y: (1.0, d * np.pi * np.sin(TWO_PI * y), 0.0, 1.0)),
    )


# Config `map` name -> factory; its parameter names are the map's [map] keys.
# The lambdas look the factories up by module name at call time, so a
# factory replaced on this module (e.g. by a tracer) is the one called.
BUILTIN_MAPS = {
    "standard": lambda k, epsilon: make_standard_map(k, epsilon),
    "translation": lambda a, b: make_translation_map(a, b),
    "identity": lambda: make_identity_map(),
    "drift_shear": lambda d: make_drift_shear(d),
}


def require_finite(*arrays):
    """Raise NonFiniteImageError unless every entry of every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteImageError("non-finite image (parameter overflow?)")


def iterate(kernel, x, y, n: int, offset=None, observe=None) -> None:
    """The one orbit driver: n steps of an in-place kernel, a map's `step`
    or `unstep`, on the orbits in x and y.

    With `offset`, x is reduced mod 1 after each step and its integer part
    added to `offset`; both homotopy classes fix (a, 0), so the orbit stays
    a lift orbit.  `observe(i, x, y)` then sees image i; a boolean mask it
    returns keeps only those orbits (used without an offset; the caller's
    arrays stay at that step).  At step 1, every 256 steps after it and at
    step n, |y| must be at most ESCAPE_BOUND and x, or the offset, finite,
    else OrbitEscapeError(i); the kernels carry a NaN on to every later
    image.  The plane x is not bounded: a Dehn twist shears it to order n^2.
    """
    whole = None if offset is None else np.empty_like(x)
    for i in range(1, n + 1):
        if x.size == 0:
            return
        kernel(x, y)
        if whole is not None:
            np.floor(x, out=whole)
            x -= whole
            offset += whole
        keep = None if observe is None else observe(i, x, y)
        if keep is not None:
            x, y = x[keep], y[keep]
        if i % 256 == 1 or i == n:
            if not (np.all(np.abs(y) <= ESCAPE_BOUND) and np.all(np.isfinite(x if offset is None else offset))):
                raise OrbitEscapeError(i)


def deck_residual(m: LiftedTorusMap, z, v) -> float:
    """|| f(z + v) - f(z) - A v || for an integer vector v, pointwise or max
    over a batch of points."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    r = m.forward(z + v) - m.forward(z) - m.homotopy @ v
    return float(np.max(np.linalg.norm(r, axis=-1)))


def inverse_residual(m: LiftedTorusMap, z) -> float:
    """|| f^-1(f(z)) - z ||, pointwise or max over a batch of points."""
    z = np.asarray(z, dtype=float)
    return float(np.max(np.linalg.norm(m.inverse(m.forward(z)) - z, axis=-1)))


def area_residual(m: LiftedTorusMap, z) -> float:
    """| |det Df(z)| - 1 |, pointwise or max over a batch of points."""
    J = m.jacobian(np.asarray(z, dtype=float))
    return float(np.max(np.abs(np.abs(np.linalg.det(J)) - 1.0)))
