import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn import cli, confinement, manifolds, maps, periodic, rotation, sft
from torusdyn.config import CHOSEN, COMMANDS, MAP_KEYS, SCHEMA, ConfigError, build_map, parse_config
from torusdyn.report import json_default, sha256_file
from torusdyn.svg import widen_range

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
    for key in ("wibble", "lam"):
        text = "[map]\nmap = standard\n%s = 3\n[run]\ncommand = rotset\n" % key
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "line 3" in str(exc.value) and key in str(exc.value)


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


def test_parse_rho_echo_round_trips():
    cfg = parse_config("[run]\ncommand = sft-orbit\n[sft]\nrho = 2/4, -1/3\n")
    echo = cfg.resolved()["sft"]["rho"]
    assert echo == "1/2,-1/3"
    again = parse_config("[run]\ncommand = sft-orbit\n[sft]\nrho = %s\n" % echo)
    assert again.get("sft", "rho") == cfg.get("sft", "rho")


def test_map_key_may_precede_map_line():
    cfg = parse_config("[map]\nk = 2\nmap = standard\n[run]\ncommand = vrotset\n")
    assert cfg.values["map"] == {"map": "standard", "k": 2.0, "epsilon": 0.0}


def test_last_map_line_picks_the_keys():
    text = "[map]\nmap = translation\na = 0.5\nmap = standard\nk = 3\n[run]\ncommand = vrotset\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == "line 3: key 'a' in [map]: map standard does not take it"
    cfg = parse_config(text.replace("a = 0.5\n", ""))
    assert cfg.values["map"] == {"map": "standard", "k": 3.0, "epsilon": 0.0}
    assert cfg.warnings == ["line 3: duplicate key 'map' in [map]; last value wins"]


def test_readme_map_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.+?) +\|$", readme, re.M)
    table = {name: tuple(re.findall(r"`(\w+)`", keys)) for name, keys in rows if name != "map"}
    assert table == MAP_KEYS


def test_map_defaults_are_declared_once_by_the_registry():
    # every factory parameter has a default, and a key two maps share has
    # one, so [map] takes each key's default from the registry
    defaults = {}
    for name, factory in maps.BUILTIN_MAPS.items():
        for key, p in inspect.signature(factory).parameters.items():
            assert p.default is not inspect.Parameter.empty, (name, key)
            defaults.setdefault(key, set()).add(p.default)
    assert all(len(d) == 1 for d in defaults.values())
    assert {k: d for k, (_, d) in SCHEMA["map"].items() if k != "map"} == {k: d.pop() for k, d in defaults.items()}


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
        # the linear saddle and its key: a plane map, not a torus lift
        "[map]\nmap = linear_saddle",
        "[map]\nlam = 2",
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


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("confinement", "confinement", "horizon", "0"),
        ("confinement", "confinement", "step", "0"),
        ("confinement", "confinement", "step", "-0.01"),
        ("confinement", "confinement", "window", "-1"),
        ("omega-probe", "omega", "extra", "0"),
        ("rotset", "rotset", "grid", "0"),
        ("rotset", "rotset", "n1", "-1"),
        ("vrotset", "vrotset", "grid", "-2"),
        ("vrotset", "vrotset", "n1", "0"),
        ("find-periodic", "periodic", "q", "0"),
        ("find-periodic", "periodic", "grid", "0"),
        ("grow", "grow", "budget", "0"),
        ("grow", "grow", "h_max", "-1e-3"),
        ("disks", "disks", "step", "0"),
        ("mixing", "mixing", "radius", "0"),
        ("mixing", "mixing", "radius", "nan"),
        ("scan-translates", "translates", "range", "-1"),
        # sizes, counts and tolerances the library rejects after the parse
        ("vrotset", "vrotset", "n2", "0"),
        ("find-periodic", "periodic", "tol", "0"),
        ("grow", "grow", "q", "0"),
        ("grow", "grow", "delta", "0"),
        ("grow", "grow", "budget", "inf"),
        ("disks", "disks", "region", "0"),
        ("mixing", "mixing", "n_max", "0"),
        ("scan-translates", "translates", "max_witnesses", "0"),
        # map parameters, seed points, angles and ball centres must be finite
        ("find-periodic", "map", "k", "nan"),
        ("find-periodic", "map", "epsilon", "inf"),
        ("find-periodic", "map", "a", "nan"),
        ("find-periodic", "map", "b", "-inf"),
        ("find-periodic", "map", "d", "inf"),
        ("grow", "grow", "seed_x", "nan"),
        ("grow", "grow", "seed_y", "-inf"),
        ("confinement", "confinement", "theta", "inf"),
        ("mixing", "mixing", "ux", "nan"),
        ("mixing", "mixing", "uy", "inf"),
        ("mixing", "mixing", "vx", "-inf"),
        ("mixing", "mixing", "vy", "nan"),
    ],
)
def test_non_positive_sizes_exit_2(tmp_path, capsys, command, section, key, value):
    # each [map] key is set on a map that takes it
    map_of = {"a": "translation", "b": "translation", "d": "drift_shear"}
    text = "[map]\nmap = %s\n[run]\ncommand = %s\n[%s]\n%s = %s\n"
    code, out = _run(tmp_path, text % (map_of.get(key, "standard"), command, section, key, value))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 6" in err and "%s.%s" % (section, key) in err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_key_in_unread_section_exits_2(tmp_path, capsys, command):
    # the key comes before the command, so it is checked after the parse loop
    section, key = ("mixing", "n_max") if "confinement" in COMMANDS[command] else ("confinement", "window")
    map_block = "[map]\nmap = standard\n" if "map" in COMMANDS[command] else ""
    code, out = _run(tmp_path, "[%s]\n%s = 1\n[run]\ncommand = %s\n%s" % (section, key, command, map_block))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2: key %r in [%s]: %s does not read [%s]" % (key, section, command, section) in err
    assert not out.exists()


def test_key_of_another_map_exits_2(tmp_path, capsys):
    code, out = _run(tmp_path, "[map]\nmap = translation\nk = 7\n[run]\ncommand = find-periodic\n")
    assert code == 2
    assert "line 3: key 'k' in [map]: map translation does not take it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_echoes_only_the_sections_read(tmp_path, monkeypatch, command):
    monkeypatch.setitem(cli.RUNNERS, command, lambda run, outdir: 0)
    map_block = "[map]\nmap = standard\n" if "map" in COMMANDS[command] else ""
    rho_block = "[sft]\nrho = 1/2,1/2\n" if command == "sft-orbit" else ""
    code, out = _run(tmp_path, "%s[run]\ncommand = %s\n%s" % (map_block, command, rho_block))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    echo = manifest["config"]
    assert set(echo) == {"run", *COMMANDS[command]}
    if map_block:
        assert echo["map"] == {"map": "standard", "k": 2.0, "epsilon": 0.0}
    # check-all's budgets that no key sets are echoed beside its config
    fixed = json.loads(json.dumps(cli.CHECK_FIXED, default=json_default))
    assert manifest.get("fixed") == (fixed if command == "check-all" else None)


class _LookedUp(dict):
    """A parsed config section that records the keys a run looks up."""

    def __init__(self, kv, keys):
        super().__init__(kv)
        self.keys_looked_up = keys

    def __getitem__(self, key):
        self.keys_looked_up.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __iter__(self):  # so that dict(section) copies through __getitem__
        return super().__iter__()


# a real run of each command at small budgets
SMALL_RUNS = {
    "rotset": "[map]\nmap = translation\n[rotset]\ngrid = 2\nn1 = 2\nn2 = 4\n",
    "vrotset": "[map]\nmap = standard\n[vrotset]\ngrid = 2\nn1 = 2\nn2 = 4\n",
    "find-periodic": "[map]\nmap = standard\n[periodic]\ngrid = 2\n",
    "grow": "[map]\nmap = standard\n[grow]\nbudget = 2\n",
    "scan-translates": "[map]\nmap = standard\n[grow]\nbudget = 2\n",
    "confinement": "[map]\nmap = standard\n[confinement]\nmode = {mode}\nwindow = 1\nstep = 0.25\nhorizon = 5\n",
    "omega-probe": "[map]\nmap = standard\n[confinement]\nmode = {mode}\nhorizon = 5\n[omega]\nextra = 5\n",
    "disks": "[map]\nmap = standard\n[grow]\nbudget = 2\n[disks]\nregion = 1\nstep = 0.1\n",
    "mixing": "[map]\nmap = standard\n[mixing]\nn_max = 5\n",
    "sft-hull": "[sft]\ngraph = {graph}\n",
    "sft-orbit": "[sft]\ngraph = {graph}\nrho = 1/2,1/2\n",
    "check-all": "[map]\nmap = standard\n[periodic]\ngrid = 2\n[grow]\nbudget = 2\n[mixing]\nn_max = 5\n",
}


@pytest.mark.parametrize(
    "command, mode",
    [(c, m) for c in COMMANDS for m in (confinement.MODES if "confinement" in COMMANDS[c] else (None,))],
)
def test_manifest_echoes_exactly_the_keys_the_run_reads(tmp_path, monkeypatch, command, mode):
    looked_up = {}

    def parse_recorded(text):
        cfg = parse_config(text)
        cfg.values = {sec: _LookedUp(kv, looked_up.setdefault(sec, set())) for sec, kv in cfg.values.items()}
        return cfg

    monkeypatch.setattr(cli, "parse_config", parse_recorded)
    graph = tmp_path / "two_loop.txt"
    graph.write_text("vertices 1\n0 0 1 0\n0 0 0 1\n")
    body = SMALL_RUNS[command].format(mode=mode, graph=graph)
    code, out = _run(tmp_path, "[run]\ncommand = %s\n%s" % (command, body))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # into an empty directory, every file there is one the run wrote
    assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    echo = manifest["config"]
    # [run] is echoed whole: rng_seed stays settable because --seed is taken
    # by every command, though only find-periodic and check-all draw from it
    assert {sec: set(kv) for sec, kv in echo.items() if sec != "run"} == {
        sec: keys for sec, keys in looked_up.items() if sec != "run"
    }


def test_manifest_lists_only_the_files_of_its_run(tmp_path):
    # vrotset, then omega-probe, into one directory: the second manifest
    # names omega.json alone, not the vrotset files left beside it
    out = tmp_path / "out"
    for command in ("vrotset", "omega-probe"):
        cfg = tmp_path / (command + ".cfg")
        cfg.write_text("[run]\ncommand = %s\n%s" % (command, SMALL_RUNS[command].format(mode="south")))
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == ["omega.json"]
    assert {"vrotset.csv", "vrotset.json"} <= {p.name for p in out.iterdir()}


def test_every_schema_key_is_read_by_some_choice():
    read = set()
    for command, name, mode in itertools.product(COMMANDS, MAP_KEYS, confinement.MODES):
        blocks = {"map": "map = " + name, "confinement": "mode = " + mode}
        blocks["sft"] = "rho = 1/2,1/2" if command == "sft-orbit" else ""
        text = "[run]\ncommand = %s\n" % command
        text += "".join("[%s]\n%s\n" % (sec, blocks.get(sec, "")) for sec in COMMANDS[command])
        read |= {(sec, key) for sec, kv in parse_config(text).values.items() for key in kv}
    assert read == {(sec, key) for sec, keys in SCHEMA.items() for key in keys}
    for sec, ((cs, ck), choices) in CHOSEN.items():
        for value, keys in choices.items():
            assert SCHEMA[cs][ck][0](value) == value
            assert set(keys) <= set(SCHEMA[sec]) - {ck}


@pytest.mark.parametrize("mode", ["south", "north"])
def test_theta_outside_theta_mode_exits_2(tmp_path, capsys, mode):
    text = "[map]\nmap = standard\n[run]\ncommand = confinement\n[confinement]\nmode = %s\ntheta = 1.0\n"
    code, out = _run(tmp_path, text % mode)
    assert code == 2
    assert "line 7: key 'theta' in [confinement]: mode %s does not take it" % mode in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("rho", "5,5"), ("horizon", "3")])
def test_sft_orbit_key_in_sft_hull_exits_2(tmp_path, capsys, key, value):
    code, out = _run(tmp_path, "[run]\ncommand = sft-hull\n[sft]\n%s = %s\n" % (key, value))
    assert code == 2
    assert "line 4: key %r in [sft]: command sft-hull does not take it" % key in capsys.readouterr().err
    assert not out.exists()


def test_sft_orbit_without_rho_exits_2(tmp_path, capsys):
    code, out = _run(tmp_path, "[run]\ncommand = sft-orbit\n[sft]\nhorizon = 5\n")
    assert code == 2
    assert capsys.readouterr().err == "config error: missing required key 'rho' in [sft]\n"
    assert not out.exists()


def test_south_confinement_records_no_angle(tmp_path):
    text = "[map]\nmap = standard\n[run]\ncommand = confinement\n[confinement]\nwindow = 1\nstep = 0.25\nhorizon = 5\n"
    code, out = _run(tmp_path, text)
    assert code == 0
    record = json.loads((out / "confinement.json").read_text())
    assert record["mode"] == "south" and record["theta"] is None


DISKS = "[map]\nmap = standard\n[run]\ncommand = disks\n[disks]\nregion = %s\nstep = 0.02\n"
# (0, 0) is fixed at every k; at k = 1e200 its D f^2 overflows to inf
HUGE_K = "[map]\nmap = standard\nk = 1e200\n[run]\ncommand = %s\n"
HUGE_K_SEED = HUGE_K + "[grow]\nq = 2\nseed_x = 0\nseed_y = 0\n"


@pytest.mark.parametrize(
    "text, code, message",
    [
        # a region of at most half a step holds no cell centre
        pytest.param(DISKS % "0.005", 2, "line 7: bad value for disks.region/step", id="disks-region-below-half-cell"),
        pytest.param(DISKS % "0.01", 2, "line 7: bad value for disks.region/step", id="disks-region-half-cell"),
        pytest.param(
            "[map]\nmap = identity\n[run]\ncommand = disks\n", 3, "numerical abort", id="disks-on-identity"
        ),
        pytest.param(
            "[map]\nmap = standard\n[run]\ncommand = grow\n[grow]\ndelta = 10\nbudget = 5\n",
            3,
            "numerical abort: budget exhausted",
            id="grow-delta-10",
        ),
        *(
            pytest.param(
                HUGE_K_SEED % command,
                3,
                "numerical abort: non-finite image",
                id=command + "-huge-k",
                marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
            )
            for command in ("grow", "disks", "scan-translates")
        ),
    ],
)
def test_exit_contract(tmp_path, capsys, text, code, message):
    # in process: an exception escaping main fails the test
    got, out = _run(tmp_path, text)
    assert got == code
    assert message in capsys.readouterr().err
    if code == 2:
        assert not out.exists()


@pytest.mark.parametrize(
    "command, code",
    [("grow", 3), ("disks", 3), ("scan-translates", 3), ("find-periodic", 0), ("mixing", 3), ("check-all", 3)],
)
def test_overflow_warnings_stay_off_stderr(tmp_path, command, code):
    # numpy warns of the overflow at k = 1e200; the exit code alone reports it.
    # mixing's first image already has |y| near 1e200, past the escape bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = _run(tmp_path, (HUGE_K_SEED if "grow" in COMMANDS[command] else HUGE_K) % command)
    assert got == code


def test_translate_range_zero_is_accepted():
    cfg = parse_config(
        "[map]\nmap = standard\n[run]\ncommand = scan-translates\n[translates]\nrange = 0\n"
    )
    assert cfg.get("translates", "range") == 0


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


@pytest.mark.parametrize(
    "command, sizes",
    # at k = 1e308 the first image of every sample has |y| far past the
    # escape bound, and step 1 is checked, so each command (omega-probe in
    # its one-step cloud) stops there
    [
        pytest.param("confinement", "[confinement]\nhorizon = 5\n", id="confinement"),
        pytest.param("omega-probe", "[confinement]\nhorizon = 1\n[omega]\nextra = 5\n", id="omega-probe"),
        pytest.param("mixing", "[mixing]\nn_max = 5\n", id="mixing"),
    ],
)
def test_non_finite_image_exits_3(tmp_path, capsys, command, sizes):
    text = "[map]\nmap = standard\nk = 1e308\n[run]\ncommand = %s\n%s"
    if "confinement" in COMMANDS[command]:
        text += "[confinement]\nwindow = 1\nstep = 0.25\n"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(tmp_path, text % (command, sizes))
    assert code == 3
    assert capsys.readouterr().err == "numerical abort: orbit escaped the coordinate bound after 1 steps\n"
    assert not (out / "manifest.json").exists()


def test_orbit_escape_names_the_step_count(tmp_path, capsys):
    # the seed (0.25, 0) is an accelerator mode: y gains k = 1e7 each step
    # and first passes the bound at step 101; the every-256-steps check
    # first sees it after step 257
    text = "[map]\nmap = standard\nk = 1e7\n[run]\ncommand = vrotset\n[vrotset]\ngrid = 8\n"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(tmp_path, text)
    assert code == 3
    assert "orbit escaped the coordinate bound after 257 steps" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, message):
    # a grid too large to hold fails in its first allocation; the test
    # raises that failure instead of asking for the memory
    def no_memory(nx, ny):
        raise MemoryError(message)

    monkeypatch.setattr(rotation, "seed_grid", no_memory)
    text = "[map]\nmap = standard\nk = 2\n[run]\ncommand = vrotset\n[vrotset]\ngrid = 8\n"
    code, out = _run(tmp_path, text)
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical abort: out of memory: %s\n" % (message or "allocation failed")
    assert not (out / "manifest.json").exists()


def test_vrotset_ignores_the_sheared_plane_x(tmp_path):
    # the Dehn twist shears the plane x of the accelerator modes to about
    # n^2, past 1e9 by step 31721; the vertical estimate reads only y,
    # which stays below 2n = 8e4
    text = "[map]\nmap = standard\nk = 2\n[run]\ncommand = vrotset\n[vrotset]\ngrid = 4\nn1 = 1000\nn2 = 40000\n"
    code, out = _run(tmp_path, text)
    assert code == 0
    record = json.loads((out / "vrotset.json").read_text())
    assert (record["lo"], record["hi"]) == (-2.0, 2.0)


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
    "horizon, omega",
    # horizon 50: the cloud has no candidate points; horizon 3: every
    # sample leaves the half plane during the extra iterations
    [("50", ""), ("3", "[omega]\nextra = 50\n")],
)
def test_omega_probe_without_drift_samples(tmp_path, horizon, omega):
    text = (
        "[map]\nmap = translation\na = 0\nb = -0.1\n[run]\ncommand = omega-probe\n"
        "[confinement]\nmode = north\nwindow = 1\nstep = 0.125\nhorizon = %s\n%s"
    )
    code, out = _run(tmp_path, text % (horizon, omega))
    assert code == 0
    assert (out / "manifest.json").is_file()
    data = json.loads((out / "omega.json").read_text())
    assert data["samples"] == 0
    assert data["drift_min"] is None and data["drift_max"] is None
    assert data["drift_histogram"] == {"counts": [], "edges": []}
    assert data["verdict"] == "escaping"


@pytest.mark.parametrize("command", ["rotset", "vrotset"])
@pytest.mark.parametrize(
    "keys, line",
    [("n1 = 10\nn2 = 5", 7), ("n2 = 5\nn1 = 5", 7), ("n1 = 20000", 6), ("n2 = 1000", 6)],
)
def test_horizons_out_of_order_exit_2(tmp_path, capsys, command, keys, line):
    text = "[map]\nmap = standard\n[run]\ncommand = %s\n[%s]\n%s\n"
    code, out = _run(tmp_path, text % (command, command, keys))
    assert code == 2
    err = capsys.readouterr().err
    assert "line %d" % line in err and "%s.n1/n2" % command in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, map_name",
    # the standard map is Dehn class, the translation identity class
    [("rotset", "standard"), ("vrotset", "translation")],
)
def test_wrong_homotopy_class_exits_2(tmp_path, capsys, command, map_name):
    code, _ = _run(tmp_path, "[map]\nmap = %s\n[run]\ncommand = %s\n" % (map_name, command))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("module", ["torusdyn", "torusdyn.cli"])
def test_import_loads_no_scipy(module):
    code = "import sys, %s; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])" % module
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def _histogram(values, bins):
    """omega-probe's drift histogram."""
    return np.histogram(values, bins, range=widen_range(float(values.min()), float(values.max()), bins))


def _ref_histogram(values, bins):
    lo, hi = float(values.min()), float(values.max())
    for w in (0.0, 0.5, 0.5 * max(abs(lo), abs(hi))):
        if np.all(np.diff(np.linspace(lo - w, hi + w, bins + 1)) > 0):
            break
    return np.histogram(values, bins=bins, range=(lo - w, hi + w))


# zero and signed zero, the smallest subnormal, 2^53, 1e16 and 1e300, where
# a 0.5 widening is lost to the float spacing, and random magnitudes
WIDENING_VALUES = [0.0, -0.0, 5e-324, 2.0**53, 1e16, -1e16, 1e300, -1e300, 0.25, 8.471982252702795e297]


@given(
    st.sampled_from(WIDENING_VALUES) | st.floats(-1e300, 1e300),
    st.sampled_from([0.0, 1.0, 2.0**-52, 1e-9, 3.0]),
    st.integers(1, 5),
    st.sampled_from([1, 2, 20]),
)
@settings(max_examples=300, deadline=None)
def test_histogram_widening_matches_reference(v, spread, n, bins):
    values = np.array([v] * n + [v + spread * abs(v)])
    counts, edges = _histogram(values, bins)
    ref_counts, ref_edges = _ref_histogram(values, bins)
    assert counts.tobytes() == ref_counts.tobytes() and edges.tobytes() == ref_edges.tobytes()


@pytest.mark.parametrize(
    "values",
    [np.linspace(-1.0, 3.0, 101), np.full(7, 0.25), np.array([0.25, 0.25, 0.75])],
)
def test_histogram_matches_numpy_off_degenerate_ranges(values):
    counts, edges = _histogram(values, 20)
    ref_counts, ref_edges = np.histogram(values, bins=20)
    assert np.array_equal(counts, ref_counts) and np.array_equal(edges, ref_edges)


@pytest.mark.parametrize(
    "values",
    # omega-probe drifts at k = 1e300: a 0.5 widening is below the spacing
    [np.full(103, 8.471982252702795e297), np.array([-1e300, np.nextafter(-1e300, 0.0)])],
)
def test_histogram_widens_by_magnitude_at_large_scale(values):
    counts, edges = _histogram(values, 20)
    assert np.isfinite(edges).all() and np.all(np.diff(edges) > 0)
    assert counts.sum() == len(values)


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("command", ["find-periodic", "check-all"])
def test_negative_rng_seed_exits_2(tmp_path, capsys, command):
    text = "[map]\nmap = standard\n[run]\ncommand = %s\nrng_seed = -1\n" % command
    code, out = _run(tmp_path, text)
    assert code == 2
    assert "line 5: bad value for run.rng_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", [MINIMAL_ROTSET, MINIMAL_ROTSET.replace("rotset\n", "check-all\n", 1)], ids=["rotset", "check-all"]
)
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, text, args=["--seed", "-5"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out_run.cfg").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("leaf", ["", "sub"])
def test_output_path_through_a_file_exits_2(tmp_path, capsys, via, leaf):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / leaf if leaf else taken
    cfg = tmp_path / "run.cfg"
    if via == "flag":
        cfg.write_text(MINIMAL_ROTSET)
        code = cli.main(["run", str(cfg), "--out", str(out)])
    else:
        cfg.write_text(MINIMAL_ROTSET.replace("rng_seed = 7", "rng_seed = 7\nout = %s" % out))
        code = cli.main(["run", str(cfg)])
    assert code == 2
    assert "config error: cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_seed_override_recorded(tmp_path):
    code, out = _run(tmp_path, MINIMAL_ROTSET, args=["--seed", "99"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["rng_seed"] == 99


def test_out_flag_drops_the_out_key_from_the_echo(tmp_path, monkeypatch):
    # under --out, [run] out is not read: the manifest is that of the config
    # without it, and its directory is not made
    monkeypatch.chdir(tmp_path)
    text = MINIMAL_ROTSET.replace("rng_seed = 7", "rng_seed = 7\nout = elsewhere")
    code, out = _run(tmp_path, text, name="a.cfg")
    assert code == 0 and not (tmp_path / "elsewhere").exists()
    manifest = (out / "manifest.json").read_bytes()
    assert "out" not in json.loads(manifest)["config"]["run"]
    _, plain = _run(tmp_path, MINIMAL_ROTSET, name="b.cfg")
    assert manifest == (plain / "manifest.json").read_bytes()
    # without --out the key names the directory, and is echoed
    assert cli.main(["run", str(tmp_path / "a.cfg")]) == 0
    assert json.loads((tmp_path / "elsewhere" / "manifest.json").read_text())["config"]["run"]["out"] == "elsewhere"


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
    def no_hyperbolic_point(run):
        raise cli.SeedPointError("seed point is elliptic, not hyperbolic")

    monkeypatch.setattr(cli.Run, "seed_point", property(no_hyperbolic_point))
    code, out = _run(tmp_path, "[map]\nmap = standard\nk = 2\n[run]\ncommand = check-all\n")
    assert code == 0
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert rows["translate-scan"] == {
        "check": "translate-scan",
        "status": "inconclusive",
        "detail": "seed point is elliptic, not hyperbolic",
    }


@pytest.mark.parametrize("command, growths", [("scan-translates", 2), ("check-all", 2), ("disks", 1)])
def test_run_builds_each_artifact_once(tmp_path, monkeypatch, command, growths):
    # the seed point feeds both manifolds, and check-all's translate scan
    # reads the same pair
    calls = Counter()
    for module, name in ((periodic, "newton_periodic"), (manifolds, "grow_manifold")):

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    text = "[map]\nmap = standard\nk = 2\n[run]\ncommand = %s\n[grow]\nbudget = 40\n" % command
    code, _ = _run(tmp_path, text)
    assert code == 0
    assert calls == {"newton_periodic": 1, "grow_manifold": growths}


def test_check_all_periodic_row_reads_find_periodic_sweep(tmp_path):
    # at k = 2 the period-3 sweep keeps 9 orbits from the plain 16 x 16
    # grid and 7 from the grid jittered by rng_seed = 3
    text = "[map]\nmap = standard\nk = 2\n[run]\ncommand = %s\nrng_seed = 3\n[periodic]\nq = 3\n"
    assert _run(tmp_path, text % "find-periodic", name="sweep.cfg")[0] == 0
    count = json.loads((tmp_path / "out_sweep.cfg" / "orbits.json").read_text())["count"]
    code, out = _run(tmp_path, text % "check-all" + "[grow]\nbudget = 40\n", name="check.cfg")
    assert code == 0
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert (count, rows["periodic-orbits"]["detail"]) == (7, "7 orbits")


@pytest.mark.parametrize(
    "cls",
    [
        maps.OrbitEscapeError,
        maps.NonFiniteImageError,
        periodic.SingularNewtonError,
        manifolds.GrowthError,
        cli.SeedPointError,
        sft.CycleCapExceeded,
        sft.NoCycleCombination,
    ],
)
def test_numerical_failures_are_aborts(cls):
    assert issubclass(cls, maps.NumericalAbort)


def test_any_numerical_abort_exits_3(tmp_path, capsys, monkeypatch):
    class PlantedAbort(maps.NumericalAbort):
        pass

    def planted(cfg, outdir):
        raise PlantedAbort("planted")

    monkeypatch.setitem(cli.RUNNERS, "rotset", planted)
    code, out = _run(tmp_path, MINIMAL_ROTSET)
    assert code == 3
    assert "numerical abort: planted" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_check_all_reports_gated_abort_as_inconclusive(tmp_path, monkeypatch):
    # with the gate open, a translation by 1e308 overflows x at step 2; the
    # escape schedule sees it at step 257 of the omega row's 300-step cloud
    # and at the last of the mixing probe's 200 steps.  The deck row fails,
    # as z + v + a rounds to z + a at this size
    monkeypatch.setattr(rotation, "estimate_rotation_set", _square_around_zero)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(tmp_path, "[map]\nmap = translation\na = 1e308\n[run]\ncommand = check-all\n")
    assert code == 1
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert rows["deck-equivariance-and-area"]["status"] == "fail"
    for name, steps in (("omega-probe", 257), ("mixing-probe", 200)):
        assert rows[name] == {
            "check": name,
            "status": "inconclusive",
            "detail": "orbit escaped the coordinate bound after %d steps" % steps,
        }


def test_check_all_lets_other_runtime_errors_through(tmp_path, monkeypatch):
    # only a numerical abort makes a row inconclusive; any other error in a
    # check is a bug and ends the run
    def broken_growth(*args, **kwargs):
        raise RuntimeError("not a numerical abort")

    monkeypatch.setattr(manifolds, "grow_manifold", broken_growth)
    with pytest.raises(RuntimeError, match="not a numerical abort"):
        _run(tmp_path, "[map]\nmap = standard\nk = 2\n[run]\ncommand = check-all\n")


def test_runners_match_commands():
    assert tuple(cli.RUNNERS) == tuple(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_a_runner(command):
    runner = cli.RUNNERS[command]
    assert runner.__module__ == "torusdyn.cli"
    assert runner.__name__ == "run_" + command.replace("-", "_")


def test_check_all_drift_shear_rows(tmp_path):
    # drift_shear is the identity-class map the CLI reaches; its rotation set
    # is a segment through 0, so the interiority gate stays shut
    code, out = _run(tmp_path, "[map]\nmap = drift_shear\n[run]\ncommand = check-all\n")
    assert code == 0
    lines = (out / "check_all.txt").read_text().splitlines()
    assert re.fullmatch(r"deck-equivariance-and-area +pass +deck \S+ area \S+ inverse \S+", lines[0])
    skipped = "skipped       hypothesis not met, skipped"
    assert lines[1:] == [
        "rotation-set-hull                pass          "
        "2 hull vertices, gap 0.00e+00, zero margin -0.0",
        "periodic-orbits                  " + skipped,
        "translate-scan                   " + skipped,
        "omega-probe                      " + skipped,
        "mixing-probe                     " + skipped,
        "sft-two-loop                     pass          hull True",
    ]


def _lift_row(tmp_path):
    """Exit code and lift-row residuals of check-all on the drift shear."""
    code, out = _run(tmp_path, "[map]\nmap = drift_shear\n[run]\ncommand = check-all\n")
    row = json.loads((out / "check_all.json").read_text())["rows"][0]
    assert row["check"] == "deck-equivariance-and-area" and row["status"] == "fail"
    residuals = re.fullmatch(r"deck (\S+) area (\S+) inverse (\S+)", row["detail"]).groups()
    return code, [float(v) for v in residuals]


def test_check_all_lift_row_fails_on_a_planted_inverse(tmp_path, monkeypatch):
    # an inverse whose d is off by 1e-6 (relative) leaves forward and Df as
    # they are, so only the inverse residual can turn the row to fail
    def planted(d):
        return replace(maps.make_drift_shear(d), inverse=maps.make_drift_shear(d * (1 + 1e-6)).inverse)

    monkeypatch.setitem(maps.BUILTIN_MAPS, "drift_shear", planted)
    code, (deck, area, inverse) = _lift_row(tmp_path)
    assert code == 1
    assert deck < 1e-12 and area < 1e-12 and 1e-8 < inverse < 1e-6


def test_check_all_lift_row_fails_on_a_planted_deck_fault(tmp_path, monkeypatch):
    # the shear followed by Y += 0.05 X is area-preserving with an exact
    # inverse and Df, but moves f(z + (1, 0)) - f(z) off (1, 0) by (0, 0.05)
    def planted(d):
        shear = maps.make_drift_shear(d)

        def step(x, y):
            shear.step(x, y)
            y += 0.05 * x

        def unstep(x, y):
            y -= 0.05 * x
            shear.unstep(x, y)

        def jacobian(z):
            J = shear.jacobian(z)
            J[..., 1, :] += 0.05 * J[..., 0, :]
            return J

        return maps.LiftedTorusMap(
            name="drift_shear", forward=maps.on_copies(step), inverse=maps.on_copies(unstep), jacobian=jacobian
        )

    monkeypatch.setitem(maps.BUILTIN_MAPS, "drift_shear", planted)
    code, (deck, area, inverse) = _lift_row(tmp_path)
    assert code == 1
    assert deck > 1e-12 and area < 1e-12 and inverse < 1e-12


def _square_around_zero(m, seeds, horizons):
    # a square rotation set around 0 opens the interiority gate
    hull = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return rotation.RotationPolygon(
        hull=hull, hull_coarse=hull, sample_means=np.empty((0, 2)), horizons=horizons, hausdorff_gap=0.0
    )


@pytest.mark.parametrize(
    "map_block, omega_row",
    [
        pytest.param(
            "map = translation\na = 0.3\nb = 0.1",
            {"status": "pass", "detail": "escaping"},
            id="translation",
        ),
        pytest.param(
            "map = drift_shear",
            {"status": "inconclusive", "detail": "persistent"},
            id="drift_shear",
        ),
    ],
)
def test_check_all_identity_class_omega_row(tmp_path, monkeypatch, map_block, omega_row):
    # with the gate open the theta-mode confinement and omega probe run as
    # they would for an interior zero
    monkeypatch.setattr(rotation, "estimate_rotation_set", _square_around_zero)
    code, out = _run(tmp_path, "[map]\n%s\n[run]\ncommand = check-all\n" % map_block)
    assert code == 0
    rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
    assert rows["rotation-set-hull"]["detail"] == "4 hull vertices, gap 0.00e+00, zero margin 1.0"
    assert rows["omega-probe"] == {"check": "omega-probe", **omega_row}


def test_check_all_reads_mixing_balls(tmp_path, monkeypatch):
    # the translation by (0.3, 0.1) carries the default u ball across the
    # default v ball, and never near a v ball moved to (5, -5)
    monkeypatch.setattr(rotation, "estimate_rotation_set", _square_around_zero)
    text = "[map]\nmap = translation\na = 0.3\nb = 0.1\n[run]\ncommand = check-all\n[mixing]\nn_max = 20\n"
    details = []
    for name, moved in (("default.cfg", ""), ("moved.cfg", "vx = 5\nvy = -5\n")):
        code, out = _run(tmp_path, text + moved, name=name)
        assert code == 0
        rows = {r["check"]: r for r in json.loads((out / "check_all.json").read_text())["rows"]}
        details.append(rows["mixing-probe"]["detail"])
    assert details == ["tail start None, 1/20 hits", "tail start None, 0/20 hits"]


SFT_GRAPH_CASES = {
    # vertices 0 and 1 carry disjoint cycles whose three means surround (1/4, 1/4)
    "disconnected": "vertices 2\n0 0 1 0\n0 0 0 0\n1 1 0 1\n",
    # strongly connected, but (12/11, 21/22) needs the loops at vertices 1
    # and 2, and linking those takes four cycles
    "strongly_connected": (
        "vertices 3\n2 2 3 1\n0 2 3 3\n0 1 3 0\n1 0 -3 3\n2 2 0 2\n1 1 -1 -2\n2 0 -2 3\n"
    ),
    "bad_edge": "vertices 2\n0 5 1 0\n",
    "no_count": "vertices\n0 0 1 0\n",
    "count_then_junk": "vertices 1 junk\n0 0 1 0\n",
    "glued_keyword": "verticesXYZ 1\n0 0 1 0\n",
    "zero_denominator": "vertices 1\n0 0 1/0 0\n",
    "million_vertices": "vertices 1000000\n0 0 1 0\n0 0 0 1\n",
}


@pytest.mark.parametrize(
    "sft_block, message",
    [
        pytest.param("graph = {missing}", "absent.txt", id="missing-graph"),
        pytest.param("graph = {bad_edge}", "edge (0, 5) out of range", id="bad-edge"),
        pytest.param("graph = {no_count}", "[sft] graph: malformed line 'vertices'", id="no-count"),
        pytest.param(
            "graph = {count_then_junk}", "[sft] graph: malformed line 'vertices 1 junk'", id="count-then-junk"
        ),
        pytest.param(
            "graph = {glued_keyword}", "[sft] graph: malformed line 'verticesXYZ 1'", id="glued-keyword"
        ),
        pytest.param(
            "graph = {zero_denominator}",
            "[sft] graph: malformed line '0 0 1/0 0'",
            id="zero-denominator",
        ),
        pytest.param("rho = 5,5", "strictly inside", id="rho-outside-hull"),
    ],
)
def test_sft_input_errors_exit_2(tmp_path, capsys, sft_block, message):
    command = "sft-orbit" if "rho" in sft_block else "sft-hull"
    code = _run_sft(tmp_path, command, sft_block)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize(
    "command, sft_block, message",
    [
        pytest.param("sft-hull", "cycle_cap = 1", "simple-cycle cap exceeded", id="cycle-cap"),
        # the cap bounds only the cycles counted, not the vertices: two
        # vertices, three cycles
        pytest.param(
            "sft-hull",
            "graph = {disconnected}\ncycle_cap = 1",
            "simple-cycle cap exceeded",
            id="cap-below-vertices",
        ),
        pytest.param(
            "sft-orbit",
            "graph = {disconnected}\nrho = 1/4,1/4\ncycle_cap = 1",
            "simple-cycle cap exceeded",
            id="orbit-cap-below-vertices",
        ),
        pytest.param(
            "sft-orbit",
            "graph = {disconnected}\nrho = 1/4,1/4",
            "no vertex-connected cycle combination",
            id="no-combination",
        ),
        pytest.param(
            "sft-orbit",
            "graph = {strongly_connected}\nrho = 12/11,21/22",
            "no vertex-connected cycle combination",
            id="no-combination-strongly-connected",
        ),
    ],
)
def test_sft_search_failures_exit_3(tmp_path, capsys, command, sft_block, message):
    assert _run_sft(tmp_path, command, sft_block) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: ") and message in err


def test_sft_hull_with_more_vertices_than_cycle_cap(tmp_path):
    # two cycles at the default cap of 10,000, on a million vertices
    assert _run_sft(tmp_path, "sft-hull", "graph = {million_vertices}") == 0
    hull = json.loads((tmp_path / "out_run.cfg" / "sft_hull.json").read_text())["hull"]
    assert hull == [["0", "1"], ["1", "0"]]


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_sft_horizon_below_one_exits_2(tmp_path, capsys, horizon):
    text = "[run]\ncommand = sft-orbit\n[sft]\nrho = 1/2,1/2\nhorizon = %s\n" % horizon
    code, out = _run(tmp_path, text)
    assert code == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "sft.horizon" in err and "at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_sft_cycle_cap_below_one_exits_2(tmp_path, capsys, cap):
    code, out = _run(tmp_path, "[run]\ncommand = sft-hull\n[sft]\ncycle_cap = %s\n" % cap)
    assert code == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "sft.cycle_cap" in err and "at least 1" in err
    assert not out.exists()


def _run_sft(tmp_path, command, sft_block):
    paths = {"missing": tmp_path / "absent.txt"}
    for name, text in SFT_GRAPH_CASES.items():
        paths[name] = tmp_path / (name + ".txt")
        paths[name].write_text(text)
    block = sft_block.format(**paths)
    code, _ = _run(tmp_path, "[run]\ncommand = %s\n[sft]\n%s\n" % (command, block))
    return code
