"""Command-line driver: `torusdyn run <config> [--out DIR] [--seed N]`.

Every run writes its outputs plus a manifest.json that echoes the fully
resolved config and hashes each produced file.  The commands are
`config.COMMANDS`; the runner of command `a-b` is `run_a_b`.  `[map] map =
NAME` picks one of `maps.BUILTIN_MAPS`, each reading its own keys: standard
(k, epsilon), translation (a, b), identity (none), drift_shear (d),
linear_saddle (lam).

Exit codes: 0 pass; 1 a check failed; 2 usage or config error (bad config
values carry their line number; a negative rng_seed or --seed; an output
directory that cannot be created, such as a path naming a file; a map of
the wrong homotopy class for rotset or vrotset; an unreadable or malformed
[sft] graph, a cycle_cap below its vertex count, a rho outside its
cycle-mean hull); 3 numerical abort, any `maps.NumericalAbort` (orbit
escape; a non-finite image or orbit Jacobian; a singular Newton matrix,
failed manifold growth, a [grow] seed with no hyperbolic periodic point,
the simple-cycle cap exceeded, no vertex-connected cycle combination for
rho).  In check-all an abort in a gated check reads as an inconclusive
row; one in the rotation estimate, which decides the gate, exits 3.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import confinement as conf
from . import manifolds as mfd
from . import maps, periodic, rotation, sft
from .config import COMMANDS, ConfigError, RunConfig, _nonnegative_int, build_map, parse_config
from .report import child_rng, write_csv, write_json, write_manifest
from .svg import SvgCanvas, widen_range

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _hull_svg(path, means, hull):
    lo = means.min(axis=0)
    hi = means.max(axis=0)
    pad = 0.1 * max(float(np.max(hi - lo)), 1e-6)
    c = SvgCanvas((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    c.frame()
    c.circles(means, r=1.5, color="#888888")
    if len(hull) > 1:
        c.polyline(np.vstack([hull, hull[:1]]), color="#c03030", width=1.5)
    c.circles(hull, r=3.0, color="#c03030")
    c.save(path)


def run_rotset(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    g = cfg.get("rotset", "grid")
    n1, n2 = cfg.get("rotset", "n1"), cfg.get("rotset", "n2")
    poly = rotation.estimate_rotation_set(m, rotation.seed_grid(g, g), (n1, n2))
    write_json(
        outdir / "rotset.json",
        {
            "hull": poly.hull,
            "hull_coarse": poly.hull_coarse,
            "horizons": list(poly.horizons),
            "hausdorff_gap": poly.hausdorff_gap,
            "zero_margin": poly.margin((0.0, 0.0)),
        },
    )
    write_csv(
        outdir / "rotset.csv",
        ["seed_x", "seed_y", "mean_x", "mean_y", "horizon"],
        [
            (float(s[0]), float(s[1]), float(v[0]), float(v[1]), h)
            for s, v, h in poly.sample_means
        ],
    )
    means = np.asarray([v for _, v, _ in poly.sample_means])
    _hull_svg(outdir / "rotset.svg", means, poly.hull)
    return EXIT_PASS


def run_vrotset(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    g = cfg.get("vrotset", "grid")
    n1, n2 = cfg.get("vrotset", "n1"), cfg.get("vrotset", "n2")
    iv = rotation.estimate_vertical_rotation_set(m, rotation.seed_grid(g, g), (n1, n2))
    write_json(
        outdir / "vrotset.json",
        {
            "lo": iv.lo,
            "hi": iv.hi,
            "lo_coarse": iv.lo_coarse,
            "hi_coarse": iv.hi_coarse,
            "horizons": list(iv.horizons),
            "hausdorff_gap": iv.hausdorff_gap,
            "zero_margin": iv.margin(0.0),
        },
    )
    write_csv(
        outdir / "vrotset.csv",
        ["seed_x", "seed_y", "vertical_mean", "horizon"],
        [(float(s[0]), float(s[1]), float(v), h) for s, v, h in iv.sample_means],
    )
    return EXIT_PASS


def _orbit_record(pp: periodic.PeriodicPoint) -> dict:
    return {
        "point": pp.point,
        "period": pp.period,
        "translation": list(pp.translation),
        "eigenvalues": [[float(e.real), float(e.imag)] for e in pp.eigenvalues],
        "classification": pp.classification,
        "residual": pp.residual,
    }


def run_find_periodic(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    q = cfg.get("periodic", "q")
    pr = (cfg.get("periodic", "p"), cfg.get("periodic", "r"))
    g = cfg.get("periodic", "grid")
    rng = child_rng(cfg.rng_seed, "periodic-sweep")
    seeds = rotation.seed_grid(g, g) + rng.uniform(0, 1.0 / g, size=(g * g, 2))
    orbits = periodic.sweep_periodic(m, q, pr, seeds, tol=cfg.get("periodic", "tol"))
    write_json(
        outdir / "orbits.json",
        {"q": q, "pr": list(pr), "count": len(orbits), "orbits": [_orbit_record(o) for o in orbits]},
    )
    return EXIT_PASS


class SeedPointError(maps.NumericalAbort):
    """The configured [grow] seed gives no hyperbolic periodic point."""


def _hyperbolic_seed_point(m, cfg):
    """Newton from the configured seed; pass to the doubled period when the
    eigenvalues come out negative."""
    q = cfg.get("grow", "q")
    pr = (cfg.get("grow", "p"), cfg.get("grow", "r"))
    seed = (cfg.get("grow", "seed_x"), cfg.get("grow", "seed_y"))
    pp = periodic.newton_periodic(m, q, pr, seed)
    if pp is None:
        raise SeedPointError("Newton did not converge from the configured seed")
    if pp.classification == "hyperbolic_negative":
        pp = pp.doubled(m)
    if pp.classification != "hyperbolic_positive":
        raise SeedPointError("seed point is %s, not hyperbolic" % pp.classification)
    return pp


def _grow(m, cfg, pp, kind):
    """The "+" branch of the `kind` manifold of pp at the [grow] budget."""
    g = cfg.values["grow"]
    return mfd.grow_manifold(m, pp, kind, "+", g["budget"], g["h_max"], g["delta"])


def _grow_pair(m, cfg):
    pp = _hyperbolic_seed_point(m, cfg)
    return pp, _grow(m, cfg, pp, "unstable"), _grow(m, cfg, pp, "stable")


def _tangle_svg(path, wu, ws, witnesses=()):
    allv = np.vstack([wu.vertices, ws.vertices])
    lo, hi = allv.min(axis=0), allv.max(axis=0)
    pad = 0.05 * float(np.max(hi - lo))
    c = SvgCanvas((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    c.frame()
    c.polyline(wu.vertices, color="#c03030", width=0.6)
    c.polyline(ws.vertices, color="#3060c0", width=0.6)
    c.circles([w.location for w in witnesses], r=3.0, color="#208020")
    c.save(path)


def run_grow(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    pp, wu, ws = _grow_pair(m, cfg)
    for curve, tag in ((wu, "unstable"), (ws, "stable")):
        write_csv(
            outdir / ("curve_%s.csv" % tag),
            ["x", "y"],
            [(float(p[0]), float(p[1])) for p in curve.vertices],
        )
    write_json(
        outdir / "grow.json",
        {
            "owner": _orbit_record(pp),
            "unstable": {"arclength": wu.arclength, "vertices": len(wu.vertices), "growth_log": list(wu.growth_log)},
            "stable": {"arclength": ws.arclength, "vertices": len(ws.vertices), "growth_log": list(ws.growth_log)},
        },
    )
    _tangle_svg(outdir / "tangle.svg", wu, ws)
    return EXIT_PASS


def run_scan_translates(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    pp, wu, ws = _grow_pair(m, cfg)
    half = cfg.get("translates", "range")
    table = mfd.translate_scan(wu, ws, half, cfg.get("translates", "max_witnesses"))
    rows = {}
    found = []
    for (a, b), wits in sorted(table.items()):
        key = "%d,%d" % (a, b)
        if wits:
            rows[key] = {"status": "witness", "location": wits[0].location, "sides_hit": wits[0].sides_hit}
            found.extend(wits)
        else:
            rows[key] = {"status": "not found at current budget"}
    write_json(outdir / "witnesses.json", {"owner": _orbit_record(pp), "table": rows})
    _tangle_svg(outdir / "tangle.svg", wu, ws, found)
    return EXIT_PASS


def run_confinement(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    cloud = _make_cloud(m, cfg)
    write_json(
        outdir / "confinement.json",
        {
            "mode": cloud.mode,
            "theta": cloud.theta,
            "horizon": cloud.horizon,
            "survivors": len(cloud.points),
            "components": cloud.n_components,
            "candidate_unbounded": sorted(
                int(c) for c, f in cloud.unbounded_flags.items() if f
            ),
        },
    )
    (x0, x1), (y0, y1) = cloud.window
    c = SvgCanvas((x0, x1), (y0, y1))
    c.frame()
    if len(cloud.points):
        c.cells(cloud.points, cloud.grid_step)
    c.save(outdir / "confinement.svg")
    return EXIT_PASS


def _make_cloud(m, cfg):
    w = cfg.get("confinement", "window")
    return conf.compute_confinement(
        m,
        cfg.get("confinement", "mode"),
        window=((-w, w), (-w, w)),
        grid_step=cfg.get("confinement", "step"),
        horizon=cfg.get("confinement", "horizon"),
        theta=cfg.get("confinement", "theta"),
    )


def run_omega_probe(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    cloud = _make_cloud(m, cfg)
    verdict, drifts = conf.omega_probe(cloud, m, cfg.get("omega", "extra"))
    # no sample survived: null range, empty histogram
    lo = hi = None
    counts, edges = [], []
    if len(drifts):
        lo, hi = float(drifts.min()), float(drifts.max())
        counts, edges = np.histogram(drifts, 20, range=widen_range(lo, hi, 20))
    write_json(
        outdir / "omega.json",
        {
            "mode": cloud.mode,
            "verdict": verdict,
            "samples": len(drifts),
            "drift_min": lo,
            "drift_max": hi,
            "drift_histogram": {"counts": counts, "edges": edges},
        },
    )
    return EXIT_PASS


def run_disks(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    wu = _grow(m, cfg, _hyperbolic_seed_point(m, cfg), "unstable")
    r = cfg.get("disks", "region")
    report = conf.complement_disk_stats(
        wu.vertices, ((0.0, r), (0.0, r)), cfg.get("disks", "step")
    )
    write_csv(
        outdir / "disks.csv",
        ["component", "diameter", "boundary_touching"],
        [(cid, float(d), int(t)) for cid, d, t in report.disks],
    )
    write_json(
        outdir / "disks.json",
        {"region": r, "grid_step": report.grid_step, "n_disks": len(report.disks), "max_diameter": report.max_diameter},
    )
    return EXIT_PASS


def _mixing_balls(cfg: RunConfig):
    """The [mixing] balls u and v as ((x, y), radius)."""
    mx = cfg.values["mixing"]
    return ((mx["ux"], mx["uy"]), mx["radius"]), ((mx["vx"], mx["vy"]), mx["radius"])


def run_mixing(cfg: RunConfig, outdir: Path) -> int:
    m = build_map(cfg)
    hits, n0 = mfd.mixing_probe(m, *_mixing_balls(cfg), cfg.get("mixing", "n_max"))
    write_csv(outdir / "mixing.csv", ["n", "hit"], [(n, int(hits[n])) for n in range(1, len(hits))])
    write_json(outdir / "mixing.json", {"n_max": len(hits) - 1, "tail_start": n0, "hits_total": int(hits.sum())})
    return EXIT_PASS


def _load_sft(cfg: RunConfig):
    path = cfg.get("sft", "graph")
    if path is None:
        return sft.two_loop_example()
    try:
        return sft.parse_sft(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError("[sft] graph: %s" % exc) from exc


def run_sft_hull(cfg: RunConfig, outdir: Path) -> int:
    s = _load_sft(cfg)
    try:
        hull = sft.cycle_rotation_hull(s, cfg.get("sft", "cycle_cap"))
    except ValueError as exc:  # cycle_cap below the vertex count
        raise ConfigError("[sft] %s" % exc) from exc
    write_json(
        outdir / "sft_hull.json",
        {"vertices": s.n, "edges": len(s.edges), "hull": [[str(x), str(y)] for x, y in hull]},
    )
    return EXIT_PASS


def run_sft_orbit(cfg: RunConfig, outdir: Path) -> int:
    s = _load_sft(cfg)
    rho = cfg.get("sft", "rho")
    if rho is None:
        raise ConfigError("sft-orbit requires 'rho' in [sft]")
    try:
        orbit = sft.bounded_deviation_orbit(
            s, rho, cfg.get("sft", "horizon"), cfg.get("sft", "cycle_cap")
        )
    except ValueError as exc:  # rho not strictly inside the cycle-mean hull
        raise ConfigError("[sft] %s" % exc) from exc
    write_json(
        outdir / "sft_orbit.json",
        {
            "rho": [str(orbit.target[0]), str(orbit.target[1])],
            "word_edges": list(orbit.word),
            "period": orbit.period,
            "deviation_bound": orbit.deviation_bound,
            "max_deviation": math.sqrt(float(orbit.max_deviation_sq)),
            "verified_horizon": orbit.verified_horizon,
        },
    )
    return EXIT_PASS


# check-all's fixed budgets
CHECK_GRID = 32
CHECK_HORIZONS = (500, 5000)
CHECK_WINDOW = ((-2.0, 2.0), (-2.0, 2.0))
CHECK_STEP = 1.0 / 32.0
CHECK_HORIZON = 300
CHECK_OMEGA_ITERATIONS = 2000
# check-all's omega probe: (mode, theta) per half plane, by homotopy class
OMEGA_MODES = {
    "dehn": (("south", None), ("north", None)),
    "identity": (("theta", np.pi / 2),),
}


def _lift_check(m, cfg):
    if not m.is_lift:
        return "skipped", "map is not a torus lift"
    pts = child_rng(cfg.rng_seed, "check-lift").uniform(0, 1, size=(1000, 2))
    deck = max(maps.deck_residual(m, pts, v) for v in itertools.product((-1, 0, 1), repeat=2))
    area = maps.area_residual(m, pts)
    return "pass" if deck < 1e-12 and area < 1e-12 else "fail", "deck %.2e area %.2e" % (deck, area)


def _rotation_check(m):
    """Row name, detail and zero margin of the homotopy class's rotation set."""
    seeds = rotation.seed_grid(CHECK_GRID, CHECK_GRID)
    if m.homotopy_class == "dehn":
        iv = rotation.estimate_vertical_rotation_set(m, seeds, CHECK_HORIZONS)
        margin = iv.margin(0.0)
        detail = "[%r, %r], gap %.2e, zero margin %r" % (iv.lo, iv.hi, iv.hausdorff_gap, margin)
        return "vertical-rotation-interval", detail, margin
    poly = rotation.estimate_rotation_set(m, seeds, CHECK_HORIZONS)
    margin = poly.margin((0.0, 0.0))
    detail = "%d hull vertices, gap %.2e, zero margin %r" % (len(poly.hull), poly.hausdorff_gap, margin)
    return "rotation-set-hull", detail, margin


def _periodic_check(m, cfg):
    per = cfg.values["periodic"]
    seeds = rotation.seed_grid(per["grid"], per["grid"])
    orbits = periodic.sweep_periodic(m, per["q"], (per["p"], per["r"]), seeds, tol=per["tol"])
    # the sweep keeps only orbits with residual below tol
    return "pass" if orbits else "inconclusive", "%d orbits" % len(orbits)


def _scan_check(m, cfg):
    half = cfg.get("translates", "range")
    _, wu, ws = _grow_pair(m, cfg)
    table = mfd.translate_scan(wu, ws, half, cfg.get("translates", "max_witnesses"))
    misses = sorted(k for k, v in table.items() if not v)
    if not misses:
        return "pass", "witnesses on the full %dx%d box" % (2 * half + 1, 2 * half + 1)
    if table[(0, 0)]:
        return "inconclusive", "missing at %s" % misses
    return "inconclusive", "no homoclinic witness at current budget"


def _omega_check(m, cfg):
    verdicts = []
    for mode, theta in OMEGA_MODES[m.homotopy_class]:
        cloud = conf.compute_confinement(m, mode, CHECK_WINDOW, CHECK_STEP, CHECK_HORIZON, theta)
        verdicts.append((mode, conf.omega_probe(cloud, m, CHECK_OMEGA_ITERATIONS)[0]))
    # one mode reports its bare verdict, several their (mode, verdict) list
    detail = str(verdicts) if len(verdicts) > 1 else verdicts[0][1]
    return "pass" if all(v == "escaping" for _, v in verdicts) else "inconclusive", detail


def _mixing_check(m, cfg):
    hits, n0 = mfd.mixing_probe(m, *_mixing_balls(cfg), cfg.get("mixing", "n_max"))
    detail = "tail start %s, %d/%d hits" % (n0, int(hits.sum()), len(hits) - 1)
    return "pass" if n0 is not None else "inconclusive", detail


def _sft_check():
    """The two-loop subshift's exact hull and deviation; parameter-free."""
    s = sft.two_loop_example()
    hull = sft.cycle_rotation_hull(s)
    hull_ok = hull == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    orbit = sft.bounded_deviation_orbit(s, (Fraction(1, 2), Fraction(1, 2)), 10000)
    dev_ok = orbit.max_deviation_sq == Fraction(1, 2)
    return "pass" if hull_ok and dev_ok else "fail", "hull %s" % hull_ok


# checks that need 0 strictly inside the rotation estimate
GATED_CHECKS = (
    ("periodic-orbits", _periodic_check),
    ("translate-scan", _scan_check),
    ("omega-probe", _omega_check),
    ("mixing-probe", _mixing_check),
)


def run_check_all(cfg: RunConfig, outdir: Path) -> int:
    """End-to-end verification pipeline with one pass/fail/inconclusive row
    per structural check; the GATED_CHECKS report 'hypothesis not met,
    skipped' unless 0 is interior to the rotation estimate, and
    'inconclusive' with the message of a NumericalAbort they raise."""
    m = build_map(cfg)
    rows = [("deck-equivariance-and-area", *_lift_check(m, cfg))]
    name, detail, margin = _rotation_check(m)
    rows.append((name, "pass", detail))
    for name, check in GATED_CHECKS:
        try:
            status_detail = check(m, cfg) if margin > 1e-3 else ("skipped", "hypothesis not met, skipped")
        except maps.NumericalAbort as exc:
            status_detail = "inconclusive", str(exc)
        rows.append((name, *status_detail))
    rows.append(("sft-two-loop", *_sft_check()))

    write_json(outdir / "check_all.json", {"rows": [{"check": n, "status": s, "detail": d} for n, s, d in rows]})
    lines = ["%-32s %-13s %s" % row for row in rows]
    (outdir / "check_all.txt").write_text("\n".join(lines) + "\n")
    return EXIT_FAIL if any(status == "fail" for _, status, _ in rows) else EXIT_PASS


RUNNERS = {command: globals()["run_" + command.replace("-", "_")] for command in COMMANDS}


def _seed(s: str) -> int:
    try:
        return _nonnegative_int(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torusdyn")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("config", type=Path)
    runp.add_argument("--out", type=Path, default=None)
    runp.add_argument("--seed", type=_seed, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config.read_text())
    except (OSError, ConfigError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        cfg.values["run"]["rng_seed"] = args.seed
    outdir = args.out or Path(cfg.out_dir or "out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print("config error: cannot create output directory: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        status = RUNNERS[cfg.command](cfg, outdir)
    except (ConfigError, rotation.WrongHomotopyClassError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except maps.NumericalAbort as exc:
        print("numerical abort: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    write_manifest(outdir, cfg.resolved(), cfg.warnings)
    return status


if __name__ == "__main__":
    sys.exit(main())
