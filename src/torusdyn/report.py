"""Deterministic output helpers: JSON/CSV writers, hashing, seeded RNG."""

from __future__ import annotations

import csv
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=2)
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


def write_manifest(outdir, config_echo, warnings, fixed=None) -> Path:
    """List every produced file with a content hash, and `fixed` if given; written last."""
    outdir = Path(outdir)
    outputs = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        outputs[p.name] = sha256_file(p)
    manifest = {"config": config_echo, "warnings": warnings, "outputs": outputs}
    if fixed is not None:
        manifest["fixed"] = fixed
    path = outdir / "manifest.json"
    write_json(path, manifest)
    return path
