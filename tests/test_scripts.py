"""Tiny-budget smoke runs of the scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        pytest.param(
            "phase_portrait.py",
            ["--orbits", "4", "--iters", "10", "--out", "portrait.svg"],
            ["portrait.svg"],
            id="phase_portrait",
        ),
        pytest.param(
            "rotation_interval_scan.py",
            ["--steps", "2", "--grid", "4", "--n1", "5", "--n2", "10", "--out-prefix", "rotscan"],
            ["rotscan.csv", "rotscan.svg"],
            id="rotation_interval_scan",
        ),
        pytest.param(
            "rotation_interval_scan.py",
            ["--steps", "1", "--grid", "4", "--n1", "5", "--n2", "10", "--out-prefix", "rotscan"],
            ["rotscan.csv", "rotscan.svg"],
            id="rotation_interval_scan_one_step",
        ),
    ],
)
def test_script_smoke_run(tmp_path, script, args, outputs):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).is_file()
        if name.endswith(".svg"):
            assert "nan" not in (tmp_path / name).read_text()
