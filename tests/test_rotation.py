import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusdyn as td
from torusdyn.geometry import interior_margin
from torusdyn.maps import OrbitEscapeError
from torusdyn.rotation import WrongHomotopyClassError, _two_horizon_means


def test_translation_map_singleton_hull():
    m = td.make_translation_map(0.3, -0.7)
    poly = td.estimate_rotation_set(m, td.seed_grid(8, 8), (10, 100))
    assert poly.hull.shape == (1, 2)
    assert np.allclose(poly.hull[0], [0.3, -0.7], atol=1e-12)
    assert poly.hausdorff_gap < 1e-12


def test_drift_shear_hull_is_horizontal_segment():
    m = td.make_drift_shear(0.5)
    poly = td.estimate_rotation_set(m, td.seed_grid(8, 8), (10, 20))
    # orbits keep y fixed, so means are exactly (0.5 sin^2(pi y), 0)
    assert np.max(np.abs(poly.hull[:, 1])) < 1e-12
    assert interior_margin((0.0, 0.0), poly.hull) > -1e-12
    assert interior_margin((0.5, 0.0), poly.hull) > -1e-12
    assert poly.hausdorff_gap < 1e-12


def test_homotopy_class_gates():
    dehn = td.make_standard_map(1.0)
    ident = td.make_identity_map()
    with pytest.raises(WrongHomotopyClassError):
        td.estimate_rotation_set(dehn, td.seed_grid(4, 4), (5, 10))
    with pytest.raises(WrongHomotopyClassError):
        td.estimate_vertical_rotation_set(ident, td.seed_grid(4, 4), (5, 10))


def test_k0_vertical_interval_is_zero():
    m = td.make_standard_map(0.0)
    iv = td.estimate_vertical_rotation_set(m, td.seed_grid(16, 16), (100, 1000))
    assert abs(iv.lo) < 1e-12 and abs(iv.hi) < 1e-12
    assert iv.lo <= iv.hi
    assert iv.hausdorff_gap < 1e-12


def test_k2_vertical_interval_regression():
    # accelerator modes at (0.25, y) give the extreme vertical means +-2
    m = td.make_standard_map(2.0)
    iv = td.estimate_vertical_rotation_set(m, td.seed_grid(16, 16), (100, 1000))
    assert iv.lo == pytest.approx(-2.0, abs=1e-9)
    assert iv.hi == pytest.approx(2.0, abs=1e-9)
    assert iv.margin(0.0) == pytest.approx(2.0, abs=1e-9)


@given(a=st.integers(-2, 2), b=st.integers(-2, 2))
@settings(max_examples=15, deadline=None)
def test_deck_invariance_of_estimates(a, b):
    seeds = td.seed_grid(6, 6)
    m = td.make_drift_shear(0.4)
    p0 = td.estimate_rotation_set(m, seeds, (5, 10))
    p1 = td.estimate_rotation_set(m, seeds + (a, b), (5, 10))
    assert np.max(np.abs(p0.hull - p1.hull)) < 1e-9

    s = td.make_standard_map(0.3)
    i0 = td.estimate_vertical_rotation_set(s, seeds, (5, 10))
    i1 = td.estimate_vertical_rotation_set(s, seeds + (a, b), (5, 10))
    assert abs(i0.lo - i1.lo) < 1e-9 and abs(i0.hi - i1.hi) < 1e-9


def test_hull_monotone_in_seed_set():
    m = td.make_drift_shear(0.7)
    small = td.seed_grid(4, 4)
    big = np.vstack([small, td.seed_grid(9, 9)])
    ph = td.estimate_rotation_set(m, small, (5, 10)).hull
    pb = td.estimate_rotation_set(m, big, (5, 10)).hull
    for p in ph:
        assert interior_margin(p, pb) > -1e-9


def test_input_validation():
    m = td.make_identity_map()
    with pytest.raises(ValueError):
        td.estimate_rotation_set(m, np.empty((0, 2)), (5, 10))
    with pytest.raises(ValueError):
        td.estimate_rotation_set(m, td.seed_grid(2, 2), (10, 5))


def test_escape_step_counts_across_both_horizons():
    # |y| first exceeds the 1e9 bound at step 1001, the second segment's
    # first check
    m = td.make_translation_map(0.0, 1e6)
    with pytest.raises(OrbitEscapeError, match="after 1001 steps"):
        td.estimate_rotation_set(m, [(0.0, 0.0)], (1000, 2000))


def test_escape_in_a_segments_last_steps_is_reported():
    # |y| = 1.1e9 first at step 10, the last step of the second segment and
    # no multiple of 256 steps past a segment start
    m = td.make_translation_map(0.0, 1.1e8)
    with pytest.raises(OrbitEscapeError, match="after 10 steps"):
        td.estimate_rotation_set(m, [(0.0, 0.0)], (5, 10))
    with pytest.raises(OrbitEscapeError, match="after 262 steps"):
        td.estimate_rotation_set(m, [(0.0, 0.0)], (5, 1000))


def test_escape_reads_y_and_a_finite_offset_not_plane_x():
    # x is reduced mod 1, so only its integer offset can leave the floats
    poly = td.estimate_rotation_set(td.make_translation_map(1.1e8, 0.0), [(0.0, 0.0)], (5, 1000))
    assert poly.hull.tolist() == [[1.1e8, 0.0]]
    with np.errstate(over="ignore"), pytest.raises(OrbitEscapeError, match="after 2 steps"):
        td.estimate_rotation_set(td.make_translation_map(1e308, 0.0), [(0.0, 0.0)], (1, 2))


def _plane_means(m, z, horizons):
    """Reference: Birkhoff means of the orbits iterated in plane coordinates."""
    z = np.asarray(z, dtype=float)
    Z, done, means = z, 0, []
    for n in horizons:
        for _ in range(n - done):
            Z = m.forward(Z)
        done = n
        means.append((Z - z) / n)
    return means


DYADIC = td.seed_grid(16, 16)


@given(a=st.integers(-(2**20), 2**20))
@settings(max_examples=8, deadline=None)
def test_vertical_means_are_deck_invariant_bit_for_bit(std_k2, a):
    want = _two_horizon_means(std_k2, DYADIC, (100, 1000))
    got = _two_horizon_means(std_k2, DYADIC + (a, 0), (100, 1000))
    for w, g in zip(want, got):
        assert g[:, 1].tobytes() == w[:, 1].tobytes()


def test_plane_loop_is_not_deck_invariant(std_k2):
    # the sine of a large unreduced x rounds differently, and the chaos
    # amplifies it; the reduced loop above does not see the shift
    want = _plane_means(std_k2, DYADIC, (100, 1000))[1][:, 1]
    shifted = _plane_means(std_k2, DYADIC + (2**20, 0), (100, 1000))[1][:, 1]
    assert not np.array_equal(shifted, want)
