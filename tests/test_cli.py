import json

import numpy as np
import pytest

from torusdyn import cli, maps
from torusdyn.config import ConfigError, build_map, parse_config
from torusdyn.report import sha256_file

# dyadic translation and grid keep every Birkhoff mean exact in binary
MINIMAL_ROTSET = """
[map]
map = translation
a = 0.25
b = -0.5

[run]
command = rotset
rng_seed = 7

[rotset]
grid = 8
n1 = 5
n2 = 20
"""


def test_parse_minimal_defaults():
    cfg = parse_config("[map]\nmap = standard\nk = 2\n[run]\ncommand = rotset\n")
    assert cfg.command == "rotset"
    assert cfg.get("map", "k") == 2.0
    assert cfg.get("rotset", "grid") == 64
    assert cfg.get("rotset", "n1") == 1000 and cfg.get("rotset", "n2") == 10000
    assert cfg.rng_seed == 0 and cfg.warnings == []
    assert build_map(cfg).name == "standard"


def test_parse_rejects_unknown_key_with_line():
    text = "[map]\nmap = standard\nwibble = 3\n[run]\ncommand = rotset\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "line 3" in str(exc.value) and "wibble" in str(exc.value)


def test_parse_rejects_unknown_section_and_bad_value():
    with pytest.raises(ConfigError) as exc:
        parse_config("[wrong]\nx = 1\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("[map]\nmap = standard\nk = abc\n[run]\ncommand = rotset\n")
    assert "line 3" in str(exc.value)


def test_parse_requires_command_and_map():
    with pytest.raises(ConfigError):
        parse_config("[map]\nmap = standard\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\ncommand = rotset\n")
    # sft commands do not need a map block
    cfg = parse_config("[run]\ncommand = sft-hull\n")
    assert cfg.command == "sft-hull"


def test_parse_duplicate_key_last_wins_with_warning():
    cfg = parse_config(
        "[map]\nmap = standard\nk = 1\nk = 3\n[run]\ncommand = rotset\n"
    )
    assert cfg.get("map", "k") == 3.0
    assert len(cfg.warnings) == 1 and "duplicate" in cfg.warnings[0]


def test_parse_rho_and_comments():
    cfg = parse_config(
        "# comment\n[run]\ncommand = sft-orbit\n[sft]\nrho = 1/2, 1/2  # inline\n"
    )
    from fractions import Fraction

    assert cfg.get("sft", "rho") == (Fraction(1, 2), Fraction(1, 2))


def _run(tmp_path, text, name="run.cfg", args=()):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / ("out_" + name)
    return cli.main(["run", str(cfg), "--out", str(out), *args]), out


def test_end_to_end_rotset(tmp_path):
    code, out = _run(tmp_path, MINIMAL_ROTSET)
    assert code == 0
    for f in ("rotset.json", "rotset.csv", "rotset.svg", "manifest.json"):
        assert (out / f).is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["command"] == "rotset"
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest
    data = json.loads((out / "rotset.json").read_text())
    assert data["hull"] == [[0.25, -0.5]]


def test_end_to_end_sft_orbit(tmp_path):
    code, out = _run(
        tmp_path, "[run]\ncommand = sft-orbit\n[sft]\nrho = 1/2,1/2\n"
    )
    assert code == 0
    data = json.loads((out / "sft_orbit.json").read_text())
    assert data["period"] == 2
    assert data["max_deviation"] == pytest.approx(0.5**0.5)


def test_bad_config_exits_2(tmp_path):
    code, out = _run(tmp_path, "[map]\nmap = nosuch\n[run]\ncommand = rotset\n")
    assert code == 2
    assert not out.exists()  # no partial outputs


@pytest.mark.parametrize(
    "block",
    [
        "[map]\nmap = custom",
        "[grow]\nkind = x",
        "[run]\nthreads = 4",
        "[confinement]\nmode = sideways",
    ],
)
def test_removed_and_bad_choice_keys_exit_2(tmp_path, capsys, block):
    text = "[map]\nmap = standard\n[run]\ncommand = confinement\n" + block + "\n"
    code, out = _run(tmp_path, text)
    assert code == 2
    assert "line 6" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_is_a_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_ROTSET)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg), "--threads", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", sorted(maps.BUILTIN_MAPS))
def test_every_builtin_map_builds_from_config(name):
    cfg = parse_config("[map]\nmap = %s\n[run]\ncommand = rotset\n" % name)
    assert build_map(cfg).name == name


@pytest.mark.parametrize(
    "grow",
    ["k = 0", "k = 2\n[grow]\nbudget = 1e-9", "k = 0.1\n[grow]\nseed_x = 0.5\nseed_y = 0.0"],
)
def test_numerical_abort_exits_3(tmp_path, grow):
    # k = 0: the fixed-point Newton matrix is singular; a budget below the
    # first fundamental-domain step stops manifold growth; at k = 0.1 the
    # seed (0.5, 0) converges to an elliptic fixed point
    code, _ = _run(tmp_path, "[run]\ncommand = grow\n[map]\nmap = standard\n" + grow + "\n")
    assert code == 3


def test_omega_probe_narrow_drift_range(tmp_path):
    # every drift is 500 * 0.1 up to rounding: too narrow a range for 20
    # distinct histogram edges
    text = """
[map]
map = translation
a = 0.3
b = 0.1

[run]
command = omega-probe

[confinement]
mode = theta
theta = 1.0
window = 2
step = 0.03125
horizon = 200

[omega]
extra = 500
"""
    code, out = _run(tmp_path, text)
    assert code == 0
    assert (out / "manifest.json").is_file()
    data = json.loads((out / "omega.json").read_text())
    assert sum(data["drift_histogram"]["counts"]) == data["samples"]


@pytest.mark.parametrize(
    "values",
    [np.linspace(-1.0, 3.0, 101), np.full(7, 0.25), np.array([0.25, 0.25, 0.75])],
)
def test_histogram_matches_numpy_off_degenerate_ranges(values):
    counts, edges = cli._histogram(values, 20)
    ref_counts, ref_edges = np.histogram(values, bins=20)
    assert np.array_equal(counts, ref_counts) and np.array_equal(edges, ref_edges)


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_seed_override_recorded(tmp_path):
    code, out = _run(tmp_path, MINIMAL_ROTSET, args=["--seed", "99"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["rng_seed"] == 99


def test_repeat_run_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, MINIMAL_ROTSET, name="a.cfg")
    _, out2 = _run(tmp_path, MINIMAL_ROTSET, name="b.cfg")
    for f in ("rotset.json", "rotset.csv", "rotset.svg", "manifest.json"):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_check_all_k0_skips_gated_rows(tmp_path):
    text = """
[map]
map = standard
k = 0

[run]
command = check-all
"""
    code, out = _run(tmp_path, text)
    assert code == 0
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert rows["vertical-rotation-interval"]["status"] == "pass"
    for name in ("periodic-orbits", "translate-scan", "omega-probe", "mixing-probe"):
        assert rows[name]["status"] == "skipped"
        assert rows[name]["detail"] == "hypothesis not met, skipped"
    assert rows["sft-two-loop"]["status"] == "pass"
    assert (out / "check_all.txt").is_file()


def test_check_all_reports_bad_seed_point_as_inconclusive(tmp_path, monkeypatch):
    def no_hyperbolic_point(m, cfg):
        raise cli.SeedPointError("seed point is elliptic, not hyperbolic")

    monkeypatch.setattr(cli, "_hyperbolic_seed_point", no_hyperbolic_point)
    code, out = _run(tmp_path, "[map]\nmap = standard\nk = 2\n[run]\ncommand = check-all\n")
    assert code == 0
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert rows["translate-scan"] == {
        "check": "translate-scan",
        "status": "inconclusive",
        "detail": "seed point is elliptic, not hyperbolic",
    }
