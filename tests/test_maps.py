import ast
import functools
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import torusdyn as td
from torusdyn.maps import (
    OrbitEscapeError,
    area_residual,
    require_finite,
    validate_homotopy,
)

from conftest import inverted, make_linear_saddle

TWO_PI = 2.0 * np.pi


def test_standard_map_forward_value():
    m = td.make_standard_map(2.0)
    # sin(pi/2) = 1, so (0.25, 0) -> (0.25 + 0 + 2, 0 + 2)
    w = m.forward(np.array([0.25, 0.0]))
    assert np.allclose(w, [2.25, 2.0], atol=1e-14)


def test_standard_map_epsilon_shifts_vertical():
    m0 = td.make_standard_map(0.5, 0.0)
    m1 = td.make_standard_map(0.5, 0.01)
    z = np.array([0.3, 0.7])
    d = m1.forward(z) - m0.forward(z)
    assert np.allclose(d, [0.0, 0.01], atol=1e-15)


@pytest.mark.parametrize("k,eps", [(0.0, 0.0), (0.5, 0.0), (2.0, 0.01)])
def test_standard_map_inverse_roundtrip(k, eps):
    m = td.make_standard_map(k, eps)
    rng = np.random.default_rng(1)
    z = rng.uniform(-2, 2, size=(100, 2))
    assert np.max(np.abs(m.inverse(m.forward(z)) - z)) < 1e-12
    assert np.max(np.abs(m.forward(m.inverse(z)) - z)) < 1e-12


def test_translation_deck_residual_zero():
    m = td.make_translation_map(0.3, 0.4)
    assert td.deck_residual(m, (0.17, 0.52), (5, -7)) == 0.0


@pytest.mark.parametrize("m", [td.make_standard_map(2.0, 0.01), td.make_drift_shear(0.5)])
@pytest.mark.parametrize("v", [(1, 0), (-1, 1), (3, -2)])
def test_deck_residual_of_batch_is_max_over_points(m, v):
    z = np.random.default_rng(2).uniform(-3, 3, size=(200, 2))
    per_point = [td.deck_residual(m, p, v) for p in z]
    assert max(per_point) > 0.0
    assert td.deck_residual(m, z, v) == max(per_point)


def test_validate_homotopy_accepts_dehn_and_identity():
    validate_homotopy([[1, 0], [0, 1]])
    validate_homotopy([[1, 3], [0, 1]])
    validate_homotopy([[1, -1], [0, 1]])


@pytest.mark.parametrize(
    "A",
    [
        [[2, 0], [0, 1]],          # det 2
        [[1, 0], [1, 1]],          # lower triangular twist, not admitted
        [[0, -1], [1, 0]],         # rotation
        [[1, 0, 0], [0, 1, 0]],    # wrong shape
    ],
)
def test_validate_homotopy_rejects(A):
    with pytest.raises(ValueError):
        validate_homotopy(A)


def test_homotopy_class_labels():
    assert td.make_standard_map(1.0).homotopy_class == "dehn"
    assert td.make_translation_map(0.1, 0.2).homotopy_class == "identity"


@pytest.mark.parametrize(
    "m",
    [
        td.make_standard_map(0.0),
        td.make_standard_map(0.5),
        td.make_standard_map(2.0, 0.01),
        td.make_translation_map(0.3, 0.4),
        td.make_identity_map(),
        td.make_drift_shear(0.5),
        make_linear_saddle(2.0),
    ],
    ids=lambda m: m.name + str(m.params),
)
def test_area_preserved_everywhere(m):
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, size=(10000, 2))
    assert area_residual(m, z) < 1e-12


def _registry_maps():
    """Every BUILTIN_MAPS entry, each parameter set to a generic value; the
    standard map at three k, with k as the id."""
    for name, factory in sorted(td.maps.BUILTIN_MAPS.items()):
        if name == "standard":
            yield from (pytest.param(factory(k, 0.01), id=str(k)) for k in (0.0, 0.5, 2.0))
        else:
            yield pytest.param(factory(*[0.37] * len(inspect.signature(factory).parameters)), id=name)


# every registry map is a lift: the library declares no other kind
@pytest.mark.parametrize("m", _registry_maps())
def test_deck_equivariance_lattice(m):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(200, 2))
    for a in range(-2, 3):
        for b in range(-2, 3):
            r = m.forward(pts + (a, b)) - m.forward(pts) - m.homotopy @ np.array([a, b], float)
            assert np.max(np.linalg.norm(r, axis=1)) < 1e-12


def test_jacobian_matches_finite_differences(std_k2):
    z = np.array([0.37, 0.81])
    h = 1e-7
    J = std_k2.jacobian(z)
    for col, e in enumerate(np.eye(2)):
        fd = (std_k2.forward(z + h * e) - std_k2.forward(z - h * e)) / (2 * h)
        assert np.allclose(J[:, col], fd, atol=1e-6)


def test_require_finite_rejects_nonfinite_image():
    m = td.make_translation_map(float("inf"), 0.0)
    with pytest.raises(FloatingPointError):
        require_finite(m.forward(np.array([0.0, 0.0])))
    require_finite(np.zeros(2), np.ones((3, 2)))


def test_inverted_map_swaps_rules(std_k2):
    inv = inverted(std_k2)
    z = np.array([0.2, 0.6])
    assert np.allclose(inv.forward(z), std_k2.inverse(z))
    assert np.allclose(inv.inverse(z), std_k2.forward(z))
    assert np.array_equal(inv.homotopy, [[1, -1], [0, 1]])
    # Jacobian of the inverse at f(z) is the inverse Jacobian at z
    w = std_k2.forward(z)
    assert np.allclose(inv.jacobian(w), np.linalg.inv(std_k2.jacobian(z)), atol=1e-10)


def _pair(shape):
    coord = st.floats(-1e8, 1e8, allow_subnormal=False) | st.sampled_from([0.0, -0.0])
    return st.tuples(arrays(np.float64, shape, elements=coord), arrays(np.float64, shape, elements=coord))


_BATCHES = st.sampled_from([(), (1,), (4096,)]).flatmap(_pair)
_NONZERO = st.floats(-1.0, 1.0).filter(lambda e: e != 0.0)


@given(xy=_BATCHES, k=st.floats(-3.0, 3.0), eps=_NONZERO)
@settings(max_examples=60, deadline=None)
def test_standard_step_matches_forward_bit_for_bit(xy, k, eps):
    x, y = xy
    m = td.make_standard_map(k, eps)
    want = m.forward(np.stack([x, y], axis=-1))
    # the closed form, written out once more
    s = k * np.sin(TWO_PI * x)
    formula = np.stack([x + y + s, y + s + eps], axis=-1)
    assert want.tobytes() == formula.tobytes()
    sx, sy = x.copy(), y.copy()
    m.step(sx, sy)
    assert sx.tobytes() == want[..., 0].tobytes()
    assert sy.tobytes() == want[..., 1].tobytes()


@given(xy=_BATCHES, k=st.floats(-3.0, 3.0), eps=_NONZERO)
@settings(max_examples=60, deadline=None)
def test_standard_unstep_matches_inverse_bit_for_bit(xy, k, eps):
    X, Y = xy
    m = td.make_standard_map(k, eps)
    want = m.inverse(np.stack([X, Y], axis=-1))
    # the closed form, written out once more
    x = X - Y + eps
    formula = np.stack([x, Y - k * np.sin(TWO_PI * x) - eps], axis=-1)
    assert want.tobytes() == formula.tobytes()
    sx, sy = X.copy(), Y.copy()
    m.unstep(sx, sy)
    assert sx.tobytes() == want[..., 0].tobytes()
    assert sy.tobytes() == want[..., 1].tobytes()


def test_replace_keeps_the_given_step_and_unstep(std_k2):
    # rules wrapped with functools.wraps (as a tracer does) keep the fused kernels
    traced = replace(
        std_k2,
        forward=functools.wraps(std_k2.forward)(lambda z: std_k2.forward(z)),
        inverse=functools.wraps(std_k2.inverse)(lambda w: std_k2.inverse(w)),
    )
    assert traced.step is std_k2.step and traced.unstep is std_k2.unstep


def test_replaced_inverse_is_the_unstep_run():
    # a replaced rule brings its kernel along: growth runs the inverse the
    # lift row checks, however close the old one is
    d = 0.4
    planted = td.make_drift_shear(d * (1 + 1e-6))
    m = replace(td.make_drift_shear(d), inverse=planted.inverse)
    z = np.random.default_rng(5).uniform(-3, 3, size=(64, 2))
    x, y = z[:, 0].copy(), z[:, 1].copy()
    m.unstep(x, y)
    want = planted.inverse(z)
    assert x.tobytes() == want[:, 0].tobytes() and y.tobytes() == want[:, 1].tobytes()


@pytest.mark.parametrize("rule", ["forward", "inverse"])
def test_a_rule_without_a_kernel_is_refused(std_k2, rule):
    plain = getattr(std_k2, rule)
    with pytest.raises(TypeError, match="%s rule has no in-place kernel" % rule):
        replace(std_k2, **{rule: lambda z: plain(z)})
    rules = {"forward": std_k2.forward, "inverse": std_k2.inverse, rule: lambda z: plain(z)}
    with pytest.raises(TypeError, match="%s rule has no in-place kernel" % rule):
        td.LiftedTorusMap(name="plain", jacobian=std_k2.jacobian, **rules)


@pytest.mark.parametrize("m", _registry_maps())
def test_every_builtin_rule_carries_its_kernel(m):
    assert m.forward.in_place is m.step and m.inverse.in_place is m.unstep


@given(xy=_BATCHES, k=st.floats(-3.0, 3.0), eps=_NONZERO)
@settings(max_examples=30, deadline=None)
def test_inverted_step_matches_inverse(xy, k, eps):
    x, y = xy
    m = td.make_standard_map(k, eps)
    want = m.inverse(np.stack([x, y], axis=-1))
    inverted(m).step(x, y)
    assert x.tobytes() == want[..., 0].tobytes()
    assert y.tobytes() == want[..., 1].tobytes()


_DERIVED = pytest.mark.parametrize(
    "m",
    [td.make_translation_map(0.3, -0.1), td.make_drift_shear(0.4), make_linear_saddle(2.0)],
    ids=lambda m: m.name,
)


@_DERIVED
def test_derived_step_writes_forward_image(m):
    z = np.random.default_rng(3).uniform(-5, 5, size=(64, 2))
    x, y = z[:, 0].copy(), z[:, 1].copy()
    m.step(x, y)
    np.testing.assert_array_equal(np.stack([x, y], axis=-1), m.forward(z))


@_DERIVED
def test_derived_unstep_writes_inverse_image(m):
    z = np.random.default_rng(4).uniform(-5, 5, size=(64, 2))
    x, y = z[:, 0].copy(), z[:, 1].copy()
    m.unstep(x, y)
    np.testing.assert_array_equal(np.stack([x, y], axis=-1), m.inverse(z))


# Every builtin map's rules, written out once more as numpy closed forms.
# Each returns (X, Y) for forward and inverse, and [[a, b], [c, d]] for the
# Jacobian; scalar entries are broadcast to the input's shape.
def _standard_forms(k, eps):
    def fwd(x, y):
        s = k * np.sin(TWO_PI * x)
        return x + y + s, y + s + eps

    def inv(X, Y):
        x = X - Y + eps
        return x, Y - k * np.sin(TWO_PI * x) - eps

    def jac(x, y):
        c = TWO_PI * k * np.cos(TWO_PI * x)
        return 1.0 + c, 1.0, c, 1.0

    return td.make_standard_map(k, eps), fwd, inv, jac


def _translation_forms(a, b):
    return (
        td.make_translation_map(a, b),
        lambda x, y: (x + a, y + b),
        lambda X, Y: (X - a, Y - b),
        lambda x, y: (1.0, 0.0, 0.0, 1.0),
    )


def _identity_forms(_p, _q):
    return (
        td.make_identity_map(),
        lambda x, y: (x + 0.0, y + 0.0),
        lambda X, Y: (X - 0.0, Y - 0.0),
        lambda x, y: (1.0, 0.0, 0.0, 1.0),
    )


def _drift_shear_forms(d, _q):
    return (
        td.make_drift_shear(d),
        lambda x, y: (x + d * np.sin(np.pi * y) ** 2, y),
        lambda X, Y: (X - d * np.sin(np.pi * Y) ** 2, Y),
        lambda x, y: (1.0, d * np.pi * np.sin(TWO_PI * y), 0.0, 1.0),
    )


_FORMS = {
    "standard": _standard_forms,
    "translation": _translation_forms,
    "identity": _identity_forms,
    "drift_shear": _drift_shear_forms,
}


def _pinned_points():
    coord = st.floats(-1e8, 1e8, allow_subnormal=False) | st.sampled_from([0.0, -0.0, 0.5, 0.25])
    shapes = st.sampled_from([(2,), (7, 2), (3, 5, 2)])
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=coord))


def _stacked(x, pair):
    return np.stack([np.broadcast_to(v, x.shape) for v in pair], axis=-1)


def test_builtin_forms_cover_the_registry():
    assert set(_FORMS) == set(td.maps.BUILTIN_MAPS)


@pytest.mark.parametrize("name", sorted(_FORMS))
@given(
    z=_pinned_points(),
    p=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-6),
    q=st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0]),
)
@settings(max_examples=40, deadline=None)
def test_builtin_map_rules_match_closed_forms_bit_for_bit(name, z, p, q):
    m, fwd, inv, jac = _FORMS[name](p, q)
    x, y = z[..., 0], z[..., 1]
    want = _stacked(x, fwd(x, y))
    got = m.forward(z)
    assert got.shape == z.shape and got.tobytes() == want.tobytes()
    want_inv = _stacked(x, inv(x, y))
    assert m.inverse(z).tobytes() == want_inv.tobytes()
    a, b, c, d = jac(x, y)
    J = np.stack([_stacked(x, (a, b)), _stacked(x, (c, d))], axis=-2)
    got_J = m.jacobian(z)
    assert got_J.shape == z.shape + (2,) and got_J.tobytes() == J.tobytes()
    sx, sy = x.copy(), y.copy()
    m.step(sx, sy)
    assert sx.tobytes() == want[..., 0].tobytes()
    assert sy.tobytes() == want[..., 1].tobytes()
    sx, sy = x.copy(), y.copy()
    m.unstep(sx, sy)
    assert sx.tobytes() == want_inv[..., 0].tobytes()
    assert sy.tobytes() == want_inv[..., 1].tobytes()


@pytest.mark.parametrize(
    "probe",
    [
        pytest.param(lambda m: td.estimate_rotation_set(m, [(0.0, 0.0)], (300, 600)), id="rotation"),
        pytest.param(lambda m: td.compute_confinement(m, "north", ((-1, 1), (-1, 1)), 0.25, 300), id="confinement"),
        pytest.param(
            lambda m: td.omega_probe(td.compute_confinement(m, "north", ((-1, 1), (-1, 1)), 0.25, 5), m, 300),
            id="omega",
        ),
        pytest.param(lambda m: td.mixing_probe(m, ((0, 0), 0.5), ((0, 0), 0.5), n_max=300), id="mixing"),
    ],
)
def test_one_escape_step_under_every_caller(probe):
    # |y| passes the 1e9 bound at step 10; every orbit loop runs maps.iterate,
    # whose first check after step 1 is at step 257
    with pytest.raises(OrbitEscapeError, match="^orbit escaped the coordinate bound after 257 steps$"):
        probe(td.make_translation_map(0.0, 1.1e8))


def test_only_the_driver_steps_a_map():
    # every orbit loop passes a map's step or unstep to maps.iterate; a call
    # such as m.step(x, y) anywhere in the package or its scripts is a second
    # loop, with its own escape policy or none
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*(root / "src" / "torusdyn").rglob("*.py"), *(root / "scripts").rglob("*.py")])
    assert len(paths) > 10
    calls = [
        "%s:%d" % (path.relative_to(root), node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("step", "unstep")
    ]
    assert calls == []
