"""Run configuration: `[section]` headers with `key = value` lines.

A config sets [run], the sections `COMMANDS[command]` and, in a `CHOSEN`
section, the keys its chooser picks (`[map] map`, `[confinement] mode`,
`[run] command`); the parsed values hold only these, each REQUIRED one
set.  Other keys and bad values (a size, count or tolerance that is not
positive, a non-finite map parameter, seed point, angle or ball centre,
rotation horizons with n1 >= n2, a [disks] region too small to hold a
cell) fail with their line number; duplicate keys are last-wins, with a
warning for the run manifest.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import confinement, manifolds, periodic, rotation, sft
from .maps import BUILTIN_MAPS

# command -> the sections its run reads besides [run]
COMMANDS = {
    "rotset": ("map", "rotset"),
    "vrotset": ("map", "vrotset"),
    "find-periodic": ("map", "periodic"),
    "grow": ("map", "grow"),
    "scan-translates": ("map", "grow", "translates"),
    "confinement": ("map", "confinement"),
    "omega-probe": ("map", "confinement", "omega"),
    "disks": ("map", "grow", "disks"),
    "mixing": ("map", "mixing"),
    "sft-hull": ("sft",),
    "sft-orbit": ("sft",),
    "check-all": ("map", "periodic", "grow", "translates", "mixing"),
}
MAP_KEYS = {name: tuple(inspect.signature(f).parameters) for name, f in BUILTIN_MAPS.items()}
# section -> (its chooser (section, key), value -> the optional keys that value reads)
CHOSEN = {
    "map": (("map", "map"), MAP_KEYS),
    "confinement": (("confinement", "mode"), {"theta": ("theta",)}),
    "sft": (("run", "command"), {"sft-orbit": ("rho", "horizon")}),
}
REQUIRED = object()  # default of a key a run reading it must set; while unset, all it chooses is read

class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _choice(names):
    """Parser that accepts exactly one of `names`."""

    def parse(s: str):
        if s not in names:
            raise ValueError("%r is not one of %s" % (s, ", ".join(names)))
        return s

    return parse


def _positive_int(s: str) -> int:
    value = int(s)
    if value < 1:
        raise ValueError("must be at least 1, got %d" % value)
    return value


def _nonnegative_int(s: str) -> int:
    value = int(s)
    if value < 0:
        raise ValueError("must be at least 0, got %d" % value)
    return value


def _positive_float(s: str) -> float:
    value = float(s)
    if not 0.0 < value < math.inf:
        raise ValueError("must be positive and finite, got %r" % value)
    return value


def _finite_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("must be finite, got %r" % value)
    return value


def _parse_rho(s: str):
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("rho must be 'px/qx,py/qy'")
    return (Fraction(parts[0].strip()), Fraction(parts[1].strip()))


# seed grid and horizons of a rotation estimate, read by [rotset] and [vrotset]
_ROTATION_KEYS = {
    "grid": (_positive_int, 64),
    "n1": (_positive_int, rotation.DEFAULT_HORIZONS[0]),
    "n2": (_positive_int, rotation.DEFAULT_HORIZONS[1]),
}

# section -> key -> (parser, default); a None default leaves the value unset
SCHEMA = {
    "map": {
        "map": (_choice(tuple(BUILTIN_MAPS)), REQUIRED),
        # each map's parameters, with the defaults its BUILTIN_MAPS factory declares
        **{
            k: (_finite_float, p.default)
            for f in BUILTIN_MAPS.values()
            for k, p in inspect.signature(f).parameters.items()
        },
    },
    "run": {
        "command": (_choice(COMMANDS), REQUIRED),
        "rng_seed": (_nonnegative_int, 0),
        "out": (str, None),
    },
    "rotset": _ROTATION_KEYS,
    "vrotset": _ROTATION_KEYS,
    "periodic": {
        "q": (_positive_int, 1),
        "p": (int, 0),
        "r": (int, 0),
        "grid": (_positive_int, 16),
        "tol": (_positive_float, periodic.RESIDUAL_TOL),
    },
    "grow": {
        "q": (_positive_int, 1),
        "p": (int, 0),
        "r": (int, 0),
        "seed_x": (_finite_float, 0.1),
        "seed_y": (_finite_float, 0.1),
        "budget": (_positive_float, manifolds.DEFAULT_BUDGET),
        "h_max": (_positive_float, manifolds.DEFAULT_H_MAX),
        "delta": (_positive_float, manifolds.DEFAULT_DELTA_SEED),
    },
    "translates": {
        "range": (_nonnegative_int, 1),
        "max_witnesses": (_positive_int, 1),
    },
    "confinement": {
        "mode": (_choice(confinement.MODES), "south"),
        "theta": (_finite_float, 0.0),
        "window": (_positive_float, confinement.DEFAULT_WINDOW[0][1]),
        "step": (_positive_float, confinement.DEFAULT_GRID_STEP),
        "horizon": (_positive_int, confinement.DEFAULT_HORIZON),
    },
    "omega": {"extra": (_positive_int, confinement.DEFAULT_EXTRA_ITERATIONS)},
    "disks": {"region": (_positive_float, 2.0), "step": (_positive_float, 0.02)},
    "mixing": {
        "ux": (_finite_float, 0.25),
        "uy": (_finite_float, 0.25),
        "vx": (_finite_float, 0.75),
        "vy": (_finite_float, 0.75),
        "radius": (_positive_float, 0.2),
        "n_max": (_positive_int, 200),
    },
    "sft": {
        "graph": (str, None),
        "rho": (_parse_rho, REQUIRED),
        "horizon": (_positive_int, sft.DEFAULT_HORIZON),
        "cycle_cap": (_positive_int, sft.DEFAULT_CYCLE_CAP),
    },
}


@dataclass
class RunConfig:
    values: dict                 # section -> key -> parsed value (defaults filled)
    warnings: list = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.values["run"]["command"]

    @property
    def rng_seed(self) -> int:
        return self.values["run"]["rng_seed"]

    @property
    def out_dir(self) -> str | None:
        return self.values["run"]["out"]

    def get(self, section: str, key: str):
        return self.values[section][key]

    def resolved(self) -> dict:
        """JSON-friendly echo of the fully resolved config."""
        out = {}
        for sec, kv in sorted(self.values.items()):
            out[sec] = {
                k: ("%s,%s" % v if isinstance(v, tuple) else v)
                for k, v in sorted(kv.items())
                if v is not None
            }
        return out


def parse_config(text: str) -> RunConfig:
    """Parse and fully resolve a config; deterministic, errors carry line
    numbers."""
    values = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in SCHEMA.items()}
    warnings: list[str] = []
    seen: dict = {}  # (section, key) -> line of its last value
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError("unknown section [%s]" % section, lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value', got %r" % line, lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA[section]:
            raise ConfigError("unknown key %r in [%s]" % (key, section), lineno)
        if (section, key) in seen:
            warnings.append(
                "line %d: duplicate key %r in [%s]; last value wins" % (lineno, key, section)
            )
        seen[section, key] = lineno
        parser = SCHEMA[section][key][0]
        try:
            values[section][key] = parser(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                "bad value for %s.%s: %s" % (section, key, exc), lineno
            ) from exc

    def pair_error(section, a, b, rule):
        """A value pair that is bad together, named with the later line."""
        va, vb = values[section][a], values[section][b]
        line = max(seen.get((section, a), 0), seen.get((section, b), 0))
        return ConfigError("bad value for %s.%s/%s: %s, got %r and %r" % (section, a, b, rule, va, vb), line)

    def read_keys(sec):
        """The keys of `sec` this run reads: all but the optional ones its chooser does not pick."""
        if sec not in CHOSEN:
            return tuple(SCHEMA[sec])
        (cs, ck), choices = CHOSEN[sec]
        optional = {k for chosen in choices.values() for k in chosen}
        picked = optional if values[cs][ck] is REQUIRED else choices.get(values[cs][ck], ())
        return tuple(k for k in SCHEMA[sec] if k not in optional or k in picked)

    command = values["run"]["command"]
    read = {sec: read_keys(sec) for sec in ("run", *COMMANDS.get(command, SCHEMA))}
    for (section, key), lineno in seen.items():
        if section not in read:
            raise ConfigError("key %r in [%s]: %s does not read [%s]" % (key, section, command, section), lineno)
        if key not in read[section]:  # an optional key: the loop rejected unknown ones
            (cs, ck), _ = CHOSEN[section]
            raise ConfigError("key %r in [%s]: %s %s does not take it" % (key, section, ck, values[cs][ck]), lineno)
    missing = [(key, sec) for sec, keys in read.items() for key in keys if values[sec][key] is REQUIRED]
    if missing:
        raise ConfigError("missing required key %r in [%s]" % missing[0])
    values = {sec: {k: values[sec][k] for k in keys} for sec, keys in read.items()}
    for section in ("rotset", "vrotset"):
        if section in values and values[section]["n1"] >= values[section]["n2"]:
            raise pair_error(section, "n1", "n2", "horizons must satisfy n1 < n2")
    if "disks" in values and values["disks"]["region"] <= values["disks"]["step"] / 2:
        raise pair_error("disks", "region", "step", "region must exceed half a step to hold a cell")
    return RunConfig(values=values, warnings=warnings)


def build_map(cfg: RunConfig):
    """Instantiate the configured map from the [map] block."""
    kv = dict(cfg.values["map"])
    return BUILTIN_MAPS[kv.pop("map")](**kv)
