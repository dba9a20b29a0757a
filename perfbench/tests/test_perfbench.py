"""Tests of the benchmark itself: every checker rejects a corrupted result,
and a reduced-size run of every workload completes with no failed
operation.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import torusdyn as td  # noqa: E402
import workloads  # noqa: E402
from torusdyn import sft  # noqa: E402


def test_witness_moved_off_its_segment_is_rejected():
    h = 1e-3
    xs = np.arange(-0.05, 0.05 + h / 2, h / 2)
    piece = td.polyline_curve(np.stack([xs, np.zeros_like(xs)], axis=-1), h_max=h)
    target = td.polyline_curve(np.stack([np.full_like(xs, 3e-4), xs + 1e-4], axis=-1), h_max=h, kind="stable")
    (wit,) = td.detect_crossings(piece, target)
    checks.check_witness(piece.vertices, target.vertices, wit, h)
    moved = td.CrossingWitness(**{**wit.__dict__, "location": wit.location + np.array([0.0, 1e-4])})
    with pytest.raises(checks.CheckFailed, match="off its"):
        checks.check_witness(piece.vertices, target.vertices, moved, h)
    flipped = td.CrossingWitness(**{**wit.__dict__, "sides_hit": {"left": "end", "right": "end"}})
    with pytest.raises(checks.CheckFailed, match="exit sides"):
        checks.check_witness(piece.vertices, target.vertices, flipped, h)


def _small_graph():
    n = 4
    weights = workloads.base_graph(0, n)
    s = sft.make_sft(n, [(i, j, wx, wy) for (i, j), (wx, wy) in weights.items()])
    return n, weights, s


def test_hull_with_a_vertex_dropped_is_rejected():
    n, weights, s = _small_graph()
    hull = sft.cycle_rotation_hull(s)
    checks.check_sft_hull(n, weights, hull)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_sft_hull(n, weights, hull[1:])


def test_orbit_word_with_one_edge_changed_is_rejected():
    n, weights, s = _small_graph()
    hull = checks.exact_hull(checks.cycle_means_by_permutation(n, weights))
    rho = (sum(v[0] for v in hull) / len(hull), sum(v[1] for v in hull) / len(hull))
    orbit = sft.bounded_deviation_orbit(s, rho)
    record = {
        "rho": [str(rho[0]), str(rho[1])],
        "word_edges": list(orbit.word),
        "period": orbit.period,
        "deviation_bound": orbit.deviation_bound,
        "max_deviation": float(orbit.max_deviation_sq) ** 0.5,
    }
    edges = list(s.edges)
    checks.check_sft_orbit(edges, rho, record)
    word = list(orbit.word)
    tail, head = edges[word[0]][0], edges[word[0]][1]
    # another edge with the same endpoints does not exist, so any change
    # breaks the walk or the mean
    word[0] = next(e for e, (i, j, _) in enumerate(edges) if i == tail and j != head)
    with pytest.raises(checks.CheckFailed):
        checks.check_sft_orbit(edges, rho, {**record, "word_edges": word})
    with pytest.raises(checks.CheckFailed, match="bound"):
        checks.check_sft_orbit(edges, rho, {**record, "deviation_bound": record["max_deviation"] / 2})


def test_vertical_mean_above_k_is_rejected():
    summary = {"lo": -2.0, "hi": 2.0}
    checks.check_vertical_interval(2.0, summary, [-2.0, 0.5, 2.0])
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_vertical_interval(2.0, summary, [-2.0, 2.1, 2.0])
    with pytest.raises(checks.CheckFailed, match="interval"):
        checks.check_vertical_interval(2.0, {"lo": -1.9, "hi": 2.0}, [0.0])


def test_periodic_orbit_with_wrong_class_or_duplicate_is_rejected():
    m = td.make_standard_map(2.0)
    pp = td.newton_periodic(m, 1, (0, 0), (0.1, 0.1))
    orbit = {
        "point": pp.point.tolist(),
        "period": 1,
        "translation": [0, 0],
        "eigenvalues": [[float(e.real), float(e.imag)] for e in pp.eigenvalues],
        "classification": pp.classification,
        "residual": pp.residual,
    }
    record = {"q": 1, "pr": [0, 0], "count": 1, "orbits": [orbit]}
    checks.check_periodic_orbits(2.0, record)
    with pytest.raises(checks.CheckFailed, match="trace"):
        checks.check_periodic_orbits(2.0, {**record, "orbits": [{**orbit, "classification": "elliptic"}]})
    shifted = {**orbit, "point": [orbit["point"][0] + 1.0, orbit["point"][1]]}
    with pytest.raises(checks.CheckFailed, match="coincide"):
        checks.check_periodic_orbits(2.0, {**record, "count": 2, "orbits": [orbit, shifted]})


def test_manifest_with_a_changed_file_is_rejected(tmp_path):
    (tmp_path / "a.json").write_text("{}\n")
    digest = hashlib.sha256(b"{}\n").hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": {"a.json": digest}}))
    checks.check_manifest(tmp_path)
    (tmp_path / "a.json").write_text("[]\n")
    with pytest.raises(checks.CheckFailed, match="hash"):
        checks.check_manifest(tmp_path)


def test_check_all_row_that_is_not_pass_is_rejected():
    rows = [{"check": c, "status": "pass", "detail": ""} for c in checks.CHECK_ALL_ROWS]
    checks.check_check_all_rows(rows)
    rows[-2]["status"] = "inconclusive"  # mixing-probe may be inconclusive
    checks.check_check_all_rows(rows)
    rows[3]["status"] = "inconclusive"
    with pytest.raises(checks.CheckFailed, match="translate-scan"):
        checks.check_check_all_rows(rows)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failed_operation(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = _run("check_all", 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("cli.runner_s", "maps.forward_points", "rotation.seed_steps", "periodic.newton_calls",
                 "manifolds.witnesses", "confinement.grid_points", "sft.cycles", "report.bytes"):
        assert result["metrics"][name]["value"] > 0, name


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
