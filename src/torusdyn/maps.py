"""Lifted torus maps as explicit plane maps with homotopy data.

A lift satisfies f(z + v) = f(z) + A @ v for every integer vector v, where A
is either the identity or a Dehn-twist matrix [[1, k], [0, 1]].  Each
factory states only its closed-form formulas on split coordinates: the
forward and inverse rules (x, y) -> (X, Y) and the Jacobian entries
(x, y) -> (a, b, c, d).  ``_split_rule`` and ``_split_jacobian`` own the
rest: float coercion, the (..., 2) stacking and the (..., 2, 2) layout
[[a, b], [c, d]].  A new map is one factory and one ``BUILTIN_MAPS`` entry.

Orbit loops advance their points with the map's in-place rule
``step(x, y)``: x and y are float64 arrays of one shape, owned by the loop,
and after the call they hold the image under ``forward``, bit for bit.  The
standard map supplies a fused step, and its ``forward`` is that step on a
copy; any other map gets a step that stacks (x, y), calls ``forward`` and
writes the image back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


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

    ``forward``, ``inverse`` map arrays of shape (..., 2) to the same shape;
    ``jacobian`` maps them to shape (..., 2, 2); the factories build all
    three from split-coordinate formulas.  ``step(x, y)`` overwrites split
    x and y arrays with their ``forward`` image; left out, it is derived
    from ``forward`` (``dataclasses.replace`` keeps the step it was given).
    ``is_lift`` is False for test maps (e.g. the linear saddle) that do not
    satisfy the deck equivariance contract; such maps are excluded from
    lift validation.
    """

    name: str
    params: dict = field(default_factory=dict)
    homotopy: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=int))
    forward: Callable[[np.ndarray], np.ndarray] = None
    inverse: Callable[[np.ndarray], np.ndarray] = None
    jacobian: Callable[[np.ndarray], np.ndarray] = None
    is_lift: bool = True
    step: Callable[[np.ndarray, np.ndarray], None] = None

    def __post_init__(self):
        object.__setattr__(self, "homotopy", validate_homotopy(self.homotopy))
        if self.step is None:
            object.__setattr__(self, "step", _step_from_forward(self.forward))

    @property
    def homotopy_class(self) -> str:
        return homotopy_class(self.homotopy)


def _step_from_forward(forward):
    """In-place step(x, y) that writes back forward's image of (x, y)."""

    def step(x, y):
        w = forward(np.stack([x, y], axis=-1))
        x[...] = w[..., 0]
        y[...] = w[..., 1]

    return step


def _split_rule(rule):
    """The (..., 2) -> (..., 2) map of a formula (x, y) -> (X, Y)."""

    def apply(z):
        z = np.asarray(z, dtype=float)
        return np.stack(rule(z[..., 0], z[..., 1]), axis=-1)

    return apply


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

    def fwd(x, y):
        x, y = x.copy(), y.copy()
        step(x, y)
        return x, y

    def inv(X, Y):
        x = X - Y + epsilon
        return x, Y - k * np.sin(TWO_PI * x) - epsilon

    def jac(x, y):
        c = TWO_PI * k * np.cos(TWO_PI * x)
        return 1.0 + c, 1.0, c, 1.0

    return LiftedTorusMap(
        name="standard",
        params={"k": k, "epsilon": epsilon},
        homotopy=np.array([[1, 1], [0, 1]]),
        forward=_split_rule(fwd),
        inverse=_split_rule(inv),
        jacobian=_split_jacobian(jac),
        step=step,
    )


def make_translation_map(a: float, b: float) -> LiftedTorusMap:
    """z -> z + (a, b), identity homotopy."""
    a, b = float(a), float(b)
    return LiftedTorusMap(
        name="translation",
        params={"a": a, "b": b},
        forward=_split_rule(lambda x, y: (x + a, y + b)),
        inverse=_split_rule(lambda X, Y: (X - a, Y - b)),
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

    def c(y):
        return d * np.sin(np.pi * y) ** 2

    return LiftedTorusMap(
        name="drift_shear",
        params={"d": d},
        forward=_split_rule(lambda x, y: (x + c(y), y)),
        inverse=_split_rule(lambda X, Y: (X - c(Y), Y)),
        jacobian=_split_jacobian(lambda x, y: (1.0, d * np.pi * np.sin(TWO_PI * y), 0.0, 1.0)),
    )


def make_linear_saddle(lam: float = 2.0) -> LiftedTorusMap:
    """(x, y) -> (lam x, y/lam).  Plane test map, not a torus lift."""
    lam = float(lam)
    return LiftedTorusMap(
        name="linear_saddle",
        params={"lam": lam},
        forward=_split_rule(lambda x, y: (lam * x, y / lam)),
        inverse=_split_rule(lambda X, Y: (X / lam, lam * Y)),
        jacobian=_split_jacobian(lambda x, y: (lam, 0.0, 0.0, 1.0 / lam)),
        is_lift=False,
    )


# Config `map` name -> factory reading its keys from the resolved [map] block.
# The lambdas look the factories up by module name at call time, so a
# factory replaced on this module (e.g. by a tracer) is the one called.
BUILTIN_MAPS = {
    "standard": lambda kv: make_standard_map(kv["k"], kv["epsilon"]),
    "translation": lambda kv: make_translation_map(kv["a"], kv["b"]),
    "identity": lambda kv: make_identity_map(),
    "drift_shear": lambda kv: make_drift_shear(kv["d"]),
    "linear_saddle": lambda kv: make_linear_saddle(kv["lam"]),
}


def require_finite(*arrays):
    """Raise NonFiniteImageError unless every entry of every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteImageError("non-finite image (parameter overflow?)")


def deck_residual(m: LiftedTorusMap, z, v) -> float:
    """|| f(z + v) - f(z) - A v || for an integer vector v, pointwise or max
    over a batch of points."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    r = m.forward(z + v) - m.forward(z) - m.homotopy @ v
    return float(np.max(np.linalg.norm(r, axis=-1)))


def area_residual(m: LiftedTorusMap, z) -> float:
    """| |det Df(z)| - 1 |, pointwise or max over a batch of points."""
    J = m.jacobian(np.asarray(z, dtype=float))
    return float(np.max(np.abs(np.abs(np.linalg.det(J)) - 1.0)))
