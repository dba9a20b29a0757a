"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (visible with `pytest -s`
or in the captured output); a failed assertion is the FAIL signal.
"""

import json
import math
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import torusdyn as td
from torusdyn import cli
from torusdyn.maps import area_residual
from torusdyn.sft import (
    bounded_deviation_orbit,
    cycle_rotation_hull,
    two_loop_example,
    verify_deviation,
)

from conftest import inverted, make_linear_saddle, pullback_rate_fit


def _report(name, detail):
    print("PASS %s: %s" % (name, detail), file=sys.stderr)


def test_criterion_1_deck_equivariance_and_area():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(10000, 2))
    vs = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    worst_deck = 0.0
    worst_area = 0.0
    for k in (0.0, 0.5, 2.0):
        for eps in (0.0, 0.01):
            m = td.make_standard_map(k, eps)
            base = m.forward(pts)
            for v in vs:
                r = m.forward(pts + v) - base - m.homotopy @ np.asarray(v, float)
                worst_deck = max(worst_deck, float(np.max(np.linalg.norm(r, axis=1))))
            worst_area = max(worst_area, area_residual(m, pts))
    elapsed = time.perf_counter() - t0
    assert worst_deck < 1e-12
    assert worst_area < 1e-12
    assert elapsed < 1.0
    _report(
        "criterion 1 (deck equivariance and area)",
        "deck %.2e, area %.2e, %.2fs" % (worst_deck, worst_area, elapsed),
    )


def test_criterion_2_rotation_calculus():
    t0 = time.perf_counter()
    # dyadic translation over a dyadic seed grid keeps the means exact
    tr = td.make_translation_map(0.25, -0.5)
    poly = td.estimate_rotation_set(tr, td.seed_grid(8, 8), (100, 1000))
    assert poly.hull.shape == (1, 2)
    assert np.array_equal(poly.hull[0], [0.25, -0.5])

    k0 = td.make_standard_map(0.0)
    iv = td.estimate_vertical_rotation_set(k0, td.seed_grid(16, 16), (1000, 10000))
    assert abs(iv.lo) < 1e-9 and abs(iv.hi) < 1e-9

    eps = 0.01
    se = td.make_standard_map(0.3, eps)
    g = td.seed_grid(1000, 1000)
    v = np.mean(se.forward(g) - g, axis=0)
    assert abs(v[1] - eps) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "criterion 2 (rotation calculus)",
        "singleton hull, k=0 interval [%.1e, %.1e], mean vertical step %.8f, %.2fs"
        % (iv.lo, iv.hi, v[1], elapsed),
    )


def test_criterion_3_periodic_orbits(std_k2):
    t0 = time.perf_counter()
    orbits = td.sweep_periodic(std_k2, 1, (0, 0), td.seed_grid(16, 16))
    elapsed = time.perf_counter() - t0
    assert len(orbits) == 2
    by_point = {tuple(np.round(o.point, 8)): o for o in orbits}
    assert set(by_point) == {(0.0, 0.0), (0.5, 0.0)}
    o0 = by_point[(0.0, 0.0)]
    o5 = by_point[(0.5, 0.0)]
    assert o0.residual < 1e-10 and o5.residual < 1e-10
    assert o0.classification == "hyperbolic_positive"
    assert o5.classification == "hyperbolic_negative"
    assert abs(np.trace(o0.jacobian) - (2 + 4 * np.pi)) < 1e-9
    assert abs(np.trace(o5.jacobian) - (2 - 4 * np.pi)) < 1e-9
    assert elapsed < 1.0
    _report(
        "criterion 3 (periodic orbits)",
        "2 orbits, traces 2+-4pi within 1e-9, %.2fs" % elapsed,
    )


def test_criterion_4_manifold_correctness(std_k2, fp_origin):
    saddle = make_linear_saddle(2.0)
    pp = td.newton_periodic(saddle, 1, (0, 0), (0.01, 0.01))
    wu = td.grow_manifold(saddle, pp, "unstable", "+", arclength_budget=5.0)
    ws = td.grow_manifold(saddle, pp, "stable", "+", arclength_budget=5.0)
    axis_err = max(np.max(np.abs(wu.vertices[:, 1])), np.max(np.abs(ws.vertices[:, 0])))
    assert axis_err < 1e-12

    curve = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=50.0)
    slope, expected = pullback_rate_fit(std_k2, curve)
    assert abs(slope - expected) < 0.1 * abs(expected)

    stable = td.grow_manifold(std_k2, fp_origin, "stable", "+", arclength_budget=10.0)
    inv = inverted(std_k2)
    pp_inv = td.newton_periodic(inv, 1, (0, 0), (0.01, 0.01))
    oracle = td.grow_manifold(inv, pp_inv, "unstable", "+", arclength_budget=10.0)
    n = min(len(stable.vertices), len(oracle.vertices))
    inv_err = float(np.max(np.abs(stable.vertices[:n] - oracle.vertices[:n])))
    assert inv_err < 1e-8
    _report(
        "criterion 4 (manifold correctness)",
        "axis error %.1e, pullback slope %.3f vs %.3f, inverse oracle %.1e"
        % (axis_err, slope, expected, inv_err),
    )


def _oracle_count(P, T):
    """Brute-force strict segment-crossing count over all pairs."""

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    n = 0
    for i in range(len(P) - 1):
        for j in range(len(T) - 1):
            s1 = cross(P[i], P[i + 1], T[j])
            s2 = cross(P[i], P[i + 1], T[j + 1])
            s3 = cross(T[j], T[j + 1], P[i])
            s4 = cross(T[j], T[j + 1], P[i + 1])
            if s1 * s2 < 0 and s3 * s4 < 0:
                n += 1
    return n


def test_criterion_5_transversality_oracle_equivalence():
    lam = td.polyline_curve(
        np.stack([np.linspace(-1, 1, 21), np.zeros(21)], axis=-1), h_max=1e-3
    )
    rng = np.random.default_rng(7)
    cases = 0
    for _ in range(90):
        nv = int(rng.integers(4, 10))
        K = np.stack(
            [rng.uniform(-1.2, 1.2, size=nv), rng.uniform(-1.0, 1.0, size=nv)],
            axis=-1,
        )
        wits = td.detect_crossings(lam, td.polyline_curve(K))
        assert len(wits) == _oracle_count(lam.vertices, K)
        cases += 1
    # constructed tangencies: shifted parabolas touching the segment from above
    xs = np.linspace(-0.6, 0.6, 25)
    for a in np.linspace(-0.5, 0.5, 10):
        K = np.stack([xs + a, xs**2], axis=-1)
        wits = td.detect_crossings(lam, td.polyline_curve(K))
        assert wits == []
        assert _oracle_count(lam.vertices, K) == 0
        cases += 1
    assert cases == 100
    _report(
        "criterion 5 (transversality oracle equivalence)",
        "100/100 polyline pairs agree, 10 tangencies rejected",
    )


def test_criterion_6_translate_scan(std_k2, fp_origin):
    t0 = time.perf_counter()
    wu = td.grow_manifold(std_k2, fp_origin, "unstable", "+", arclength_budget=200.0)
    ws = td.grow_manifold(std_k2, fp_origin, "stable", "+", arclength_budget=200.0)
    table = td.translate_scan(wu, ws, half_range=1, max_witnesses=1)
    elapsed = time.perf_counter() - t0
    assert table[(0, 0)], "homoclinic witness missing"
    for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert table[v], "witness missing at %s" % (v,)
    # regression baseline: the full 3x3 box has witnesses at this budget
    misses = sorted(k for k, wits in table.items() if not wits)
    assert misses == []
    assert elapsed < 60.0
    _report(
        "criterion 6 (translate scan)",
        "witnesses on full 3x3 box, %.1fs" % elapsed,
    )


def _probe(m, mode):
    cloud = td.compute_confinement(
        m,
        mode,
        window=((-2.0, 2.0), (-2.0, 2.0)),
        grid_step=1.0 / 32.0,
        horizon=300,
    )
    return td.omega_probe(cloud, m, extra_iterations=2000)


def test_criterion_7_omega_probes(std_k2):
    t0 = time.perf_counter()
    for mode, sign in (("south", -1.0), ("north", 1.0)):
        verdict, drifts = _probe(std_k2, mode)
        assert verdict == "escaping", "%s cloud of k=2 should escape" % mode
        # drift is projected on the mode direction, so predicted sign is +
        frac = float(np.mean(drifts > 1e-3))
        assert frac >= 0.99

    se = td.make_standard_map(0.3, 0.01)
    for mode in ("south", "north"):
        verdict, _ = _probe(se, mode)
        assert verdict == "persistent", "S^eps %s cloud should persist" % mode
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "criterion 7 (omega probes)",
        "k=2 escaping (both modes, >=99%% drift), S^eps persistent, %.1fs" % elapsed,
    )


def test_criterion_8_two_loop_subshift():
    s = two_loop_example()
    hull = cycle_rotation_hull(s)
    assert hull == [(F(0), F(1)), (F(1), F(0))]

    o_half = bounded_deviation_orbit(s, (F(1, 2), F(1, 2)), 10000)
    assert o_half.max_deviation_sq == F(1, 2)
    assert math.isclose(math.sqrt(float(verify_deviation(o_half, 10000))), math.sqrt(2) / 2)
    assert o_half.max_deviation_sq <= o_half.deviation_bound_sq
    assert o_half.verified_horizon == 10000

    o_third = bounded_deviation_orbit(s, (F(1, 3), F(2, 3)), 10000)
    assert o_third.max_deviation_sq <= o_third.deviation_bound_sq
    assert o_third.verified_horizon == 10000
    _report(
        "criterion 8 (two-loop subshift)",
        "hull segment exact, max deviation sqrt(2)/2 exact, bounds hold to n=10^4",
    )


REPO = Path(__file__).resolve().parents[1]


def test_criterion_9_determinism(tmp_path):
    cfg = REPO / "configs" / "check_all_k2.cfg"
    outs = []
    for run in (1, 2):
        out = tmp_path / ("out_%d" % run)
        code = cli.main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in files and "check_all.json" in files
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    rows = json.loads((outs[0] / "check_all.json").read_text())["rows"]
    assert all(r["status"] in ("pass", "inconclusive") for r in rows)
    assert any(r["status"] == "pass" for r in rows)
    # README prints this table as the sample output of the shipped config
    readme = (REPO / "README.md").read_text()
    sample = readme.split("which prints one row per structural check, e.g.\n\n```\n")[1].split("```")[0]
    assert (outs[0] / "check_all.txt").read_text() == sample
    _report(
        "criterion 9 (determinism)",
        "byte-identical outputs across two runs (%d files)" % len(files),
    )
