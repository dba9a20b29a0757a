"""Deterministic output helpers: JSON/CSV writers, the output directory and
its manifest, seeded RNG."""

from __future__ import annotations

import csv
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np


def json_default(obj):
    """numpy arrays and scalars as Python values, for `json.dump`'s `default`
    (np.float64, a float, never reaches it)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=json_default)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["%r" % v if isinstance(v, float) else v for v in row])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def child_rng(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible child generator derived from the run seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(name.encode())]))


class OutputDir:
    """A run's output directory: `out / name` is the path of a file the run
    writes, and its name is kept for the manifest."""

    def __init__(self, path):
        self.path = Path(path)
        self.names = set()

    def __truediv__(self, name) -> Path:
        self.names.add(name)
        return self.path / name


def write_manifest(out: OutputDir, config_echo, warnings, fixed=None) -> Path:
    """List each file the run wrote, the names `out` handed out, with a
    content hash, and `fixed` if given; written last."""
    outputs = {name: sha256_file(out.path / name) for name in sorted(out.names)}
    manifest = {"config": config_echo, "warnings": warnings, "outputs": outputs}
    if fixed is not None:
        manifest["fixed"] = fixed
    path = out.path / "manifest.json"
    write_json(path, manifest)
    return path
