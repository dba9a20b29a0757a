"""The four benchmark workloads: inputs made from the workload seed, the
operations to time, and the check each operation's result must pass.

A workload is a list of `Op`s.  `prepare` runs untimed before the
operation, `run` is the timed call into torusdyn, and `check` inspects the
result untimed and raises when it is wrong.  Every round runs the same
operations on the same inputs.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from torusdyn import cli, manifolds, maps, periodic
from torusdyn.svg import SvgCanvas

import checks

K = 2.0  # the paper's standard-map parameter; 0 is interior to [-k, k]

# Workload sizes.  "full" is what the benchmark times; "smoke" is a reduced
# copy for the benchmark's own tests.
SIZES = {
    "full": {
        "check_all": {},
        "tangle": {"budget": 200.0},
        "orbits": {"vrotset": {}, "omega-probe": {}, "find-periodic": {"periodic": {"q": 3}}},
        "sft": {"vertices": 7, "graphs": 3},
    },
    "smoke": {
        "check_all": {"grow": {"budget": 60}},
        "tangle": {"budget": 60.0},
        "orbits": {
            "vrotset": {"vrotset": {"grid": 8, "n1": 100, "n2": 1000}},
            "omega-probe": {
                "confinement": {"window": 2, "step": 0.03125, "horizon": 300},
                "omega": {"extra": 2000},
            },
            "find-periodic": {"periodic": {"q": 3, "grid": 4}},
        },
        "sft": {"vertices": 4, "graphs": 2},
    },
}

WORKLOADS = ("check_all", "tangle", "orbits", "sft")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None


def _config(command, sections=None, standard_map=True) -> str:
    """Config text that sets only the keys this input needs."""
    lines = []
    if standard_map:
        lines += ["[map]", "map = standard", "k = %g" % K, ""]
    lines += ["[run]", "command = %s" % command, ""]
    for section, keys in (sections or {}).items():
        lines.append("[%s]" % section)
        lines += ["%s = %s" % kv for kv in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _cli_op(name, workdir: Path, text: str, run_seed: int, check):
    """One `torusdyn run` on a generated config; check(outdir) after exit 0."""
    cfg = workdir / (name + ".cfg")
    cfg.write_text(text)
    out = workdir / "out" / name

    def prepare():
        shutil.rmtree(out, ignore_errors=True)

    def run():
        return cli.main(["run", str(cfg), "--out", str(out), "--seed", str(run_seed)])

    def verify(code):
        checks.require(code == 0, "torusdyn run %s exited %s" % (name, code))
        checks.check_manifest(out)
        check(out)

    return Op(name, run, verify, prepare)


def _load(path: Path):
    return json.loads(path.read_text())


# -- check_all -----------------------------------------------------------------

def check_all_ops(seed, workdir, size):
    rng = random.Random(seed)

    def check(out):
        checks.check_check_all_rows(_load(out / "check_all.json")["rows"])

    text = _config("check-all", size)
    return [_cli_op("check-all", workdir, text, rng.randrange(2**31), check)]


# -- tangle ----------------------------------------------------------------------

def tangle_ops(seed, workdir, size):
    """tangle_demo.py's computation through the library: the hyperbolic fixed
    point, both manifolds, the full 3x3 translate scan and the SVG."""
    rng = random.Random(seed)
    start = (0.1 + rng.uniform(-0.01, 0.01), 0.1 + rng.uniform(-0.01, 0.01))
    branch = rng.choice("+-")  # the map is odd, so both branches cost the same
    budget = size["budget"]
    half_range = 1
    svg_path = workdir / "tangle.svg"
    state = {}

    def fixed_point():
        state["map"] = m = maps.make_standard_map(K)
        state["pp"] = periodic.newton_periodic(m, 1, (0, 0), start)
        return state["pp"]

    def check_fixed_point(pp):
        checks.require(pp is not None and pp.classification == "hyperbolic_positive", "no hyperbolic fixed point")
        res = float(np.linalg.norm(checks.std_forward(pp.point, K) - pp.point))
        checks.require(res <= 1e-10, "fixed point residual %.3e" % res)

    def grow(kind):
        def run():
            state[kind] = manifolds.grow_manifold(state["map"], state["pp"], kind, branch, arclength_budget=budget)
            return state[kind]

        def check(curve):
            checks.check_curve(curve.vertices, curve.h_max, budget)
            image = checks.std_forward if kind == "unstable" else checks.std_inverse
            checks.check_invariance(curve.vertices, lambda z: image(z, K), curve.h_max, budget)

        return run, check

    def scan():
        state["table"] = manifolds.translate_scan(state["unstable"], state["stable"], half_range, None)
        return state["table"]

    def check_scan(table):
        checks.check_scan(state["unstable"], state["stable"], table, half_range)

    def draw():
        wu, ws = state["unstable"], state["stable"]
        allv = np.vstack([wu.vertices, ws.vertices])
        lo, hi = allv.min(axis=0), allv.max(axis=0)
        pad = 0.05 * float(np.max(hi - lo))
        c = SvgCanvas((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad), width=800, height=800)
        c.frame()
        c.polyline(wu.vertices, color="#c03030", width=0.5)
        c.polyline(ws.vertices, color="#3060c0", width=0.5)
        for wits in state["table"].values():
            for w in wits:
                c.circles([w.location], r=3.0, color="#208020")
        c.save(svg_path)
        return svg_path

    def check_svg(path):
        n_wit = sum(len(w) for w in state["table"].values())
        checks.check_svg(path, len(state["unstable"].vertices) + len(state["stable"].vertices), n_wit)

    grow_u, check_u = grow("unstable")
    grow_s, check_s = grow("stable")
    return [
        Op("fixed-point", fixed_point, check_fixed_point, state.clear),
        Op("grow-unstable", grow_u, check_u),
        Op("grow-stable", grow_s, check_s),
        Op("translate-scan", scan, check_scan),
        Op("svg", draw, check_svg),
    ]


# -- orbits ------------------------------------------------------------------------

def orbits_ops(seed, workdir, size):
    rng = random.Random(seed)
    run_seed = rng.randrange(2**31)

    def vrotset(out):
        checks.check_vertical_interval(K, _load(out / "vrotset.json"), checks.read_vrotset_means(out / "vrotset.csv"))

    def omega(out):
        checks.check_omega(_load(out / "omega.json"))

    def orbits(out):
        checks.check_periodic_orbits(K, _load(out / "orbits.json"))

    return [
        _cli_op("vrotset", workdir, _config("vrotset", size["vrotset"]), run_seed, vrotset),
        _cli_op("omega-probe", workdir, _config("omega-probe", size["omega-probe"]), run_seed, omega),
        _cli_op("find-periodic", workdir, _config("find-periodic", size["find-periodic"]), run_seed, orbits),
    ]


# -- sft ---------------------------------------------------------------------------

def base_graph(index, n):
    """Complete digraph on n vertices with self-loops; weights in
    {-1, -3/4, ..., 1} drawn from a fixed generator per graph index."""
    rng = random.Random(1000 + index)
    return {
        (i, j): (Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-4, 4), 4))
        for i in range(n)
        for j in range(n)
    }


def seeded_graph(base, rng):
    """Image of the base weights under w -> M w + c, with M a signed
    permutation matrix and c an integer vector, both drawn from rng.

    Cycle means move by the same affine map, so hull, collinearity and
    containment relations are preserved, and no denominator changes: the
    enumeration and the combination search visit the same cycles in the
    same order at the same arithmetic cost, on different numbers."""
    swap = rng.random() < 0.5
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    cx, cy = rng.randint(-3, 3), rng.randint(-3, 3)
    out = {}
    for e, (wx, wy) in base.items():
        if swap:
            wx, wy = wy, wx
        out[e] = (sx * wx + cx, sy * wy + cy)
    return out


def graph_text(n, weights):
    lines = ["vertices %d" % n]
    lines += ["%d %d %s %s" % (i, j, wx, wy) for (i, j), (wx, wy) in weights.items()]
    return "\n".join(lines) + "\n"


def sft_ops(seed, workdir, size):
    rng = random.Random(seed)
    n = size["vertices"]
    ops = []
    for g in range(size["graphs"]):
        weights = seeded_graph(base_graph(g, n), rng)
        edges = [(i, j, w) for (i, j), w in weights.items()]
        path = workdir / ("graph_%d.txt" % g)
        path.write_text(graph_text(n, weights))
        hull = checks.exact_hull(checks.cycle_means_by_permutation(n, weights))
        rho = (sum(v[0] for v in hull) / len(hull), sum(v[1] for v in hull) / len(hull))

        def check_hull(out, weights=weights):
            hull = [(Fraction(x), Fraction(y)) for x, y in _load(out / "sft_hull.json")["hull"]]
            checks.check_sft_hull(n, weights, hull)

        def check_orbit(out, edges=edges, rho=rho):
            checks.check_sft_orbit(edges, rho, _load(out / "sft_orbit.json"))

        sections = {"sft": {"graph": path}}
        ops.append(_cli_op("sft-hull-%d" % g, workdir, _config("sft-hull", sections, False), seed, check_hull))
        sections = {"sft": {"graph": path, "rho": "%s,%s" % rho}}
        ops.append(_cli_op("sft-orbit-%d" % g, workdir, _config("sft-orbit", sections, False), seed, check_orbit))
    return ops


BUILDERS = {"check_all": check_all_ops, "tangle": tangle_ops, "orbits": orbits_ops, "sft": sft_ops}


def build(name, seed, workdir: Path, size="full"):
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir, SIZES[size][name])
