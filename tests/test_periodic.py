from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusdyn as td
from torusdyn import periodic
from torusdyn.periodic import (
    DEDUP_RADIUS,
    NEWTON_MAX_ITER,
    NEWTON_STEP_TOL,
    RESIDUAL_TOL,
    PeriodicPoint,
    SingularNewtonError,
    classify_jacobian,
    sweep_periodic,
)

FOUR_PI = 4.0 * np.pi


# Reference: the one-seed-at-a-time Newton and sweep that the batched solver
# replaces, kept verbatim as the oracle for the batch.
def _ref_orbit_jacobian(m, z, q):
    z = np.asarray(z, dtype=float)
    J = np.eye(2)
    for _ in range(q):
        J = m.jacobian(z) @ J
        z = m.forward(z)
    return z, J


def _ref_eigvals(J):
    ev = np.linalg.eigvals(J)
    if np.all(np.abs(ev.imag) < 1e-12):
        ev = np.sort(ev.real)[::-1].astype(complex)
    return ev


def _ref_periodic_point(m, z, q, pr):
    fz, J = _ref_orbit_jacobian(m, z, q)
    return PeriodicPoint(
        point=z,
        period=q,
        translation=(int(round(pr[0])), int(round(pr[1]))),
        jacobian=J,
        eigenvalues=_ref_eigvals(J),
        classification=classify_jacobian(J),
        residual=float(np.linalg.norm(fz - z - np.asarray(pr, dtype=float))),
    )


def ref_newton(m, q, pr, seed, tol=RESIDUAL_TOL, max_iter=NEWTON_MAX_ITER):
    if q < 1:
        raise ValueError("period must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    pr_vec = np.asarray(pr, dtype=float)
    z = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        fz, J = _ref_orbit_jacobian(m, z, q)
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
    pp = _ref_periodic_point(m, z, q, pr)
    return None if pp.residual >= tol else pp


def _ref_mod1_distance(a, b):
    d = a - b
    d = d - np.floor(d)
    d = np.minimum(d, 1.0 - d)
    return float(np.linalg.norm(d))


def _ref_same_orbit(m, a, b):
    if a.period != b.period:
        return False
    z = a.point
    for _ in range(a.period):
        if _ref_mod1_distance(z, b.point) < 1e-6:
            return True
        z = m.forward(z)
    return False


def _ref_normalize(m, pp):
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


def ref_sweep(m, q, pr, seeds, tol=RESIDUAL_TOL):
    found = []
    for seed in np.asarray(seeds, dtype=float).reshape(-1, 2):
        try:
            pp = ref_newton(m, q, pr, seed, tol=tol)
        except SingularNewtonError:
            continue
        if pp is None:
            continue
        pp = _ref_normalize(m, pp)
        if not any(
            _ref_mod1_distance(pp.point, other.point) < DEDUP_RADIUS * 10
            or _ref_same_orbit(m, other, pp)
            for other in found
        ):
            found.append(pp)
    return found


def _fields(pp):
    """Every field of a PeriodicPoint as bytes or exact values."""
    if pp is None:
        return None
    return (
        pp.point.tobytes(),
        pp.period,
        pp.translation,
        pp.jacobian.tobytes(),
        np.asarray(pp.eigenvalues, dtype=complex).tobytes(),
        pp.classification,
        np.float64(pp.residual).tobytes(),
    )


def assert_same_orbits(got, want):
    assert [_fields(p) for p in got] == [_fields(p) for p in want]


def _ref_outcomes(m, q, pr, seeds):
    """Per seed: "singular", None, or (point, Jacobian, residual) bytes."""
    out = []
    for seed in seeds:
        try:
            pp = ref_newton(m, q, pr, seed)
        except SingularNewtonError:
            out.append("singular")
            continue
        if pp is None:
            out.append(None)
        else:
            out.append((pp.point.tobytes(), pp.jacobian.tobytes(), np.float64(pp.residual).tobytes()))
    return out


def _batch_outcomes(m, q, pr, seeds):
    """The same per-seed outcomes, read off one stacked Newton solve and one
    stacked residual pass."""
    z, status = periodic._newton_batch(m, q, pr, seeds, NEWTON_MAX_ITER)
    J, residual = periodic._jacobian_residual(m, z, q, pr)
    out = []
    for i, state in enumerate(status):
        if state == periodic.SINGULAR:
            out.append("singular")
        elif state == periodic.DIVERGED or residual[i] >= RESIDUAL_TOL:
            out.append(None)
        else:
            out.append((z[i].tobytes(), J[i].tobytes(), residual[i].tobytes()))
    return out


def test_newton_converges_to_origin(std_k2):
    pp = td.newton_periodic(std_k2, 1, (0, 0), (0.1, 0.1))
    assert pp is not None
    assert np.linalg.norm(pp.point) < 1e-10
    assert pp.residual < 1e-10
    assert pp.classification == "hyperbolic_positive"
    assert np.trace(pp.jacobian) == pytest.approx(2.0 + FOUR_PI, abs=1e-9)


def test_newton_converges_to_half(std_k2):
    pp = td.newton_periodic(std_k2, 1, (0, 0), (0.45, 0.05))
    assert pp is not None
    assert np.linalg.norm(pp.point - [0.5, 0.0]) < 1e-10
    assert pp.classification == "hyperbolic_negative"
    assert np.trace(pp.jacobian) == pytest.approx(2.0 - FOUR_PI, abs=1e-9)


def test_identity_map_is_singular():
    m = td.make_identity_map()
    with pytest.raises(SingularNewtonError):
        td.newton_periodic(m, 1, (0, 0), (0.3, 0.4))


def test_k0_sweep_reports_degenerate_family_empty():
    # every (x, 0) is fixed, so the Newton matrix is singular everywhere
    m = td.make_standard_map(0.0)
    assert sweep_periodic(m, 1, (0, 0), td.seed_grid(8, 8)) == []


def test_sweep_non_finite_orbit_jacobian_raises():
    # (0, 0) is fixed at every k, and at k = 1e200 its D f^2, about
    # (2 pi k)^2, overflows to inf
    with np.errstate(all="ignore"), pytest.raises(td.maps.NonFiniteImageError, match="non-finite image"):
        sweep_periodic(td.make_standard_map(1e200), 2, (0, 0), td.seed_grid(16, 16))


@pytest.mark.parametrize("g", [8, 16])
def test_k2_sweep_exactly_two_orbits(std_k2, g):
    orbits = sweep_periodic(std_k2, 1, (0, 0), td.seed_grid(g, g))
    assert len(orbits) == 2
    pts = sorted(tuple(np.round(o.point, 8)) for o in orbits)
    assert pts == [(0.0, 0.0), (0.5, 0.0)]
    for o in orbits:
        assert o.residual < 1e-10
        assert abs(np.linalg.det(o.jacobian) - 1.0) < 1e-8


def test_k2_vertical_translation_fixed_points(std_k2):
    # closed form: k sin(2 pi x) = 1 and y = -1, so x in {1/12, 5/12}
    orbits = sweep_periodic(std_k2, 1, (0, 1), td.seed_grid(12, 12))
    pts = np.array(sorted(map(tuple, (o.point for o in orbits))))
    assert np.allclose(pts, [[1 / 12, -1.0], [5 / 12, -1.0]], atol=1e-9)
    for o in orbits:
        assert o.residual < 1e-10
    # no solutions inside the fundamental square itself
    g = td.seed_grid(200, 200)
    res = np.linalg.norm(std_k2.forward(g) - g - np.array([0.0, 1.0]), axis=1)
    assert res.min() > 0.05


def test_classify_trace_bands():
    assert classify_jacobian(np.array([[3.0, 0], [0, 1 / 3]])) == "hyperbolic_positive"
    assert classify_jacobian(np.array([[-3.0, 0], [0, -1 / 3]])) == "hyperbolic_negative"
    assert classify_jacobian(np.array([[0.0, 1], [-1, 0]])) == "elliptic"
    assert classify_jacobian(np.array([[1.0, 1], [0, 1]])) == "parabolic"


def test_small_k_half_point_elliptic():
    m = td.make_standard_map(0.05)
    pp = td.newton_periodic(m, 1, (0, 0), (0.49, 0.01))
    assert pp is not None
    assert pp.classification == "elliptic"
    assert np.trace(pp.jacobian) == pytest.approx(2.0 - 0.1 * np.pi, abs=1e-9)


@given(
    a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2), d=st.floats(-2, 2)
)
@settings(max_examples=40, deadline=None)
def test_classify_conjugation_invariant(fp_origin, a, b, c, d):
    M = np.array([[a, b], [c, d]])
    if abs(np.linalg.det(M)) < 1e-3:
        return
    J = fp_origin.jacobian
    assert classify_jacobian(M @ J @ np.linalg.inv(M)) == classify_jacobian(J)


@given(vx=st.integers(-2, 2), vy=st.integers(-2, 2))
@settings(max_examples=25, deadline=None)
def test_translation_covariance(std_k2, fp_origin, vx, vy):
    v = np.array([vx, vy], dtype=float)
    A = std_k2.homotopy.astype(float)  # q = 1
    pr = np.array(fp_origin.translation, dtype=float)
    Q = fp_origin.point
    res = std_k2.forward(Q + v) - (Q + v) - pr - (A - np.eye(2)) @ v
    assert np.linalg.norm(res) < 1e-9


def test_doubled_period_turns_negative_positive(std_k2):
    pp = td.newton_periodic(std_k2, 1, (0, 0), (0.45, 0.05))
    d = pp.doubled(std_k2)
    assert d.period == 2
    assert d.translation == (0, 0)
    assert d.classification == "hyperbolic_positive"
    assert np.all(d.eigenvalues.real > 0)
    assert d.residual < 1e-9


def test_newton_input_validation(std_k2):
    with pytest.raises(ValueError):
        td.newton_periodic(std_k2, 0, (0, 0), (0.1, 0.1))
    with pytest.raises(ValueError):
        td.newton_periodic(std_k2, 1, (0, 0), (0.1, 0.1), tol=0.0)
    with pytest.raises(ValueError):
        sweep_periodic(std_k2, 1, (0, 0), np.empty((0, 2)))


def _jittered_grid(g, jitter_seed):
    rng = np.random.default_rng(jitter_seed)
    return td.seed_grid(g, g) + rng.uniform(0, 1.0 / g, size=(g * g, 2))


@given(
    k=st.sampled_from([0.3, 1.0, 2.0, 3.7]),
    q=st.integers(1, 3),
    pr=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    g=st.integers(1, 6),
    jitter_seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_batched_sweep_matches_per_seed_reference(k, q, pr, g, jitter_seed):
    m = td.make_standard_map(k)
    seeds = _jittered_grid(g, jitter_seed)
    assert_same_orbits(sweep_periodic(m, q, pr, seeds), ref_sweep(m, q, pr, seeds))
    with np.errstate(all="ignore"):
        assert _batch_outcomes(m, q, pr, seeds) == _ref_outcomes(m, q, pr, seeds)


@pytest.mark.parametrize(
    "q, pr, g", [(1, (0, 0), 16), (3, (0, 0), 16), (1, (0, 1), 12), (2, (1, 0), 8)]
)
def test_batched_sweep_matches_reference_on_shipped_grids(std_k2, q, pr, g):
    seeds = _jittered_grid(g, 401)
    got = sweep_periodic(std_k2, q, pr, seeds)
    assert got
    assert_same_orbits(got, ref_sweep(std_k2, q, pr, seeds))
    assert _batch_outcomes(std_k2, q, pr, seeds) == _ref_outcomes(std_k2, q, pr, seeds)


# On the k = 2 standard map with q = 1, the Newton matrix [[c, 1], [c, 0]]
# has determinant -c, c = 4 pi cos(2 pi x): singular at x = 1/4, and so
# nearly singular just beside it that the first step lands beyond 1e12.
MIXED_SEEDS = [
    (0.1, 0.1),          # converges to the origin
    (0.25, 0.3),         # singular
    (0.25 + 1e-14, 0.3), # diverges, |z| > 1e12
    (np.nan, 0.2),       # NaN
    (0.45, 0.05),        # converges to (1/2, 0)
    (np.inf, 0.0),       # non-finite
    (0.1 + 1.0, 0.1),    # a translate of the first seed
]


def test_mixed_batch_matches_reference_without_raising(std_k2):
    with np.errstate(all="ignore"):
        with pytest.raises(SingularNewtonError):
            ref_newton(std_k2, 1, (0, 0), MIXED_SEEDS[1])
        assert ref_newton(std_k2, 1, (0, 0), MIXED_SEEDS[2]) is None
        assert ref_newton(std_k2, 1, (0, 0), MIXED_SEEDS[3]) is None
        got = sweep_periodic(std_k2, 1, (0, 0), MIXED_SEEDS)
        want = ref_sweep(std_k2, 1, (0, 0), MIXED_SEEDS)
    assert len(got) == 2
    assert_same_orbits(got, want)


def test_translation_map_sweep_is_empty():
    m = td.make_translation_map(0.3, 0.2)
    assert sweep_periodic(m, 1, (0, 0), td.seed_grid(8, 8)) == []


def test_linear_saddle_sweep_finds_its_fixed_point():
    m = td.make_linear_saddle(2.0)
    seeds = _jittered_grid(4, 3) - 0.5
    got = sweep_periodic(m, 1, (0, 0), seeds)
    assert len(got) == 1
    assert np.linalg.norm(got[0].point) < 1e-12
    assert got[0].classification == "hyperbolic_positive"
    assert_same_orbits(got, ref_sweep(m, 1, (0, 0), seeds))


@pytest.mark.parametrize("seed", [(0.1, 0.1), (0.45, 0.05), (0.3, 0.7), (0.25 + 1e-14, 0.3)])
@pytest.mark.parametrize("max_iter", [0, 1, 2, NEWTON_MAX_ITER])
def test_newton_periodic_matches_reference(std_k2, seed, max_iter):
    got = td.newton_periodic(std_k2, 2, (0, 0), seed, max_iter=max_iter)
    want = ref_newton(std_k2, 2, (0, 0), seed, max_iter=max_iter)
    assert _fields(got) == _fields(want)


def test_newton_periodic_singular_message_matches_reference(std_k2):
    with pytest.raises(SingularNewtonError) as want:
        ref_newton(std_k2, 1, (0, 0), (0.25, 0.3))
    with pytest.raises(SingularNewtonError) as got:
        td.newton_periodic(std_k2, 1, (0, 0), (0.25, 0.3))
    assert str(got.value) == str(want.value)
