"""Command-line driver: `torusdyn run <config> [--out DIR] [--seed N]`.

Every run writes its outputs plus a manifest.json that echoes the keys it
reads ([run], the sections `config.COMMANDS[command]` and the keys their
`config.CHOSEN` choosers pick), check-all's `CHECK_FIXED` budgets, and
hashes each file this run wrote.  The runner of command `a-b` is
`run_a_b(run, outdir)`, where `run` is the `Run` that builds each artifact
once and `outdir` the `report.OutputDir` that names each file it writes.

Exit codes: 0 pass; 1 a check failed; 2 usage or config error (bad config
values and unread keys carry their line number; a missing command, map or
sft-orbit rho; a negative rng_seed or --seed; an output directory that
cannot be created, such as a path naming a file; a map of the wrong
homotopy class for rotset or vrotset; an unreadable or malformed [sft]
graph, a rho outside its cycle-mean hull); 3 numerical abort, any
`maps.NumericalAbort` (an orbit escape at a check of `maps.iterate`'s one
schedule, in every command but find-periodic and the sft ones: y past the
bound, or x or its offset not finite; a non-finite orbit Jacobian; a
singular Newton matrix, failed manifold growth, a [grow] seed with no
hyperbolic periodic point, the simple-cycle cap exceeded, no
vertex-connected cycle combination for rho), or out of memory (a
`MemoryError`: an allocation failed, such as a vrotset grid too large to
hold).  In check-all a `NumericalAbort` in a gated check reads as an
inconclusive row; one in the rotation estimate, which decides the gate,
exits 3.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from . import confinement as conf
from . import manifolds as mfd
from . import maps, periodic, rotation, sft
from .config import COMMANDS, ConfigError, RunConfig, _nonnegative_int, build_map, parse_config
from .geometry import column_bounds
from .report import OutputDir, child_rng, write_csv, write_json, write_manifest
from .svg import SvgCanvas, widen_range

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class SeedPointError(maps.NumericalAbort):
    """The configured [grow] seed gives no hyperbolic periodic point."""


class Run:
    """One run's artifacts, each built on first use and shared by all its readers."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def m(self):
        return build_map(self.cfg)

    @cached_property
    def seed_point(self) -> periodic.PeriodicPoint:
        """Newton from the [grow] seed, at the doubled period if its eigenvalues are negative."""
        g = self.cfg.values["grow"]
        pp = periodic.newton_periodic(self.m, g["q"], (g["p"], g["r"]), (g["seed_x"], g["seed_y"]))
        if pp is None:
            raise SeedPointError("Newton did not converge from the configured seed")
        if pp.classification == "hyperbolic_negative":
            pp = pp.doubled(self.m)
        if pp.classification != "hyperbolic_positive":
            raise SeedPointError("seed point is %s, not hyperbolic" % pp.classification)
        return pp

    @cached_property
    def unstable(self) -> mfd.ManifoldCurve:
        g = self.cfg.values["grow"]
        return mfd.grow_manifold(self.m, self.seed_point, "unstable", "+", g["budget"], g["h_max"], g["delta"])

    @cached_property
    def stable(self) -> mfd.ManifoldCurve:
        g = self.cfg.values["grow"]
        return mfd.grow_manifold(self.m, self.seed_point, "stable", "+", g["budget"], g["h_max"], g["delta"])

    @cached_property
    def scan(self) -> dict:
        """(a, b) -> witnesses of W^u crossing W^s + (a, b) over [translates]."""
        tr = self.cfg.values["translates"]
        return mfd.translate_scan(self.unstable, self.stable, tr["range"], tr["max_witnesses"])

    @cached_property
    def orbits(self) -> list:
        """The [periodic] sweep from a seed grid jittered by the run seed."""
        per = self.cfg.values["periodic"]
        g = per["grid"]
        rng = child_rng(self.cfg.rng_seed, "periodic-sweep")
        seeds = rotation.seed_grid(g, g) + rng.uniform(0, 1.0 / g, size=(g * g, 2))
        return periodic.sweep_periodic(self.m, per["q"], (per["p"], per["r"]), seeds, tol=per["tol"])

    @cached_property
    def cloud(self) -> conf.ConfinementCloud:
        w = self.cfg.get("confinement", "window")
        return conf.compute_confinement(
            self.m,
            self.cfg.get("confinement", "mode"),
            window=((-w, w), (-w, w)),
            grid_step=self.cfg.get("confinement", "step"),
            horizon=self.cfg.get("confinement", "horizon"),
            theta=self.cfg.values["confinement"].get("theta"),  # read in theta mode only
        )

    @cached_property
    def mixing(self) -> tuple:
        """(hits, tail start) of the [mixing] probe from ball u to ball v."""
        mx = self.cfg.values["mixing"]
        balls = ((mx["ux"], mx["uy"]), mx["radius"]), ((mx["vx"], mx["vy"]), mx["radius"])
        return mfd.mixing_probe(self.m, *balls, mx["n_max"])

    @cached_property
    def sft(self):
        path = self.cfg.get("sft", "graph")
        if path is None:
            return sft.two_loop_example()
        try:
            return sft.parse_sft(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError("[sft] graph: %s" % exc) from exc


def _hull_svg(path, means, hull):
    lo, hi = column_bounds(means)
    pad = 0.1 * max(float(np.max(hi - lo)), 1e-6)
    c = SvgCanvas((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    c.frame()
    c.circles(means, r=1.5, color="#888888")
    if len(hull) > 1:
        c.polyline(np.vstack([hull, hull[:1]]), color="#c03030", width=1.5)
    c.circles(hull, r=3.0, color="#c03030")
    c.save(path)


def run_rotset(run: Run, outdir: OutputDir) -> int:
    g = run.cfg.get("rotset", "grid")
    n1, n2 = run.cfg.get("rotset", "n1"), run.cfg.get("rotset", "n2")
    seeds = rotation.seed_grid(g, g)
    poly = rotation.estimate_rotation_set(run.m, seeds, (n1, n2))
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
        [s + v + [n2] for s, v in zip(seeds.tolist(), poly.sample_means.tolist())],
    )
    _hull_svg(outdir / "rotset.svg", poly.sample_means, poly.hull)
    return EXIT_PASS


def run_vrotset(run: Run, outdir: OutputDir) -> int:
    g = run.cfg.get("vrotset", "grid")
    n1, n2 = run.cfg.get("vrotset", "n1"), run.cfg.get("vrotset", "n2")
    seeds = rotation.seed_grid(g, g)
    iv = rotation.estimate_vertical_rotation_set(run.m, seeds, (n1, n2))
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
        [s + [v, n2] for s, v in zip(seeds.tolist(), iv.sample_means.tolist())],
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


def run_find_periodic(run: Run, outdir: OutputDir) -> int:
    q = run.cfg.get("periodic", "q")
    pr = (run.cfg.get("periodic", "p"), run.cfg.get("periodic", "r"))
    write_json(
        outdir / "orbits.json",
        {"q": q, "pr": list(pr), "count": len(run.orbits), "orbits": [_orbit_record(o) for o in run.orbits]},
    )
    return EXIT_PASS


def _tangle_svg(path, wu, ws, witnesses=()):
    lo, hi = column_bounds(wu.vertices, ws.vertices)
    pad = 0.05 * float(np.max(hi - lo))
    c = SvgCanvas((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    c.frame()
    c.polyline(wu.vertices, color="#c03030", width=0.6)
    c.polyline(ws.vertices, color="#3060c0", width=0.6)
    c.circles([w.location for w in witnesses], r=3.0, color="#208020")
    c.save(path)


def run_grow(run: Run, outdir: OutputDir) -> int:
    wu, ws = run.unstable, run.stable
    for curve, tag in ((wu, "unstable"), (ws, "stable")):
        write_csv(
            outdir / ("curve_%s.csv" % tag),
            ["x", "y"],
            [(float(p[0]), float(p[1])) for p in curve.vertices],
        )
    write_json(
        outdir / "grow.json",
        {
            "owner": _orbit_record(run.seed_point),
            "unstable": {"arclength": wu.arclength, "vertices": len(wu.vertices), "growth_log": list(wu.growth_log)},
            "stable": {"arclength": ws.arclength, "vertices": len(ws.vertices), "growth_log": list(ws.growth_log)},
        },
    )
    _tangle_svg(outdir / "tangle.svg", wu, ws)
    return EXIT_PASS


def run_scan_translates(run: Run, outdir: OutputDir) -> int:
    rows = {}
    found = []
    for (a, b), wits in sorted(run.scan.items()):
        key = "%d,%d" % (a, b)
        if wits:
            rows[key] = {"status": "witness", "location": wits[0].location, "sides_hit": wits[0].sides_hit}
            found.extend(wits)
        else:
            rows[key] = {"status": "not found at current budget"}
    write_json(outdir / "witnesses.json", {"owner": _orbit_record(run.seed_point), "table": rows})
    _tangle_svg(outdir / "tangle.svg", run.unstable, run.stable, found)
    return EXIT_PASS


def run_confinement(run: Run, outdir: OutputDir) -> int:
    cloud = run.cloud
    write_json(
        outdir / "confinement.json",
        {
            "mode": cloud.mode,
            "theta": cloud.theta,
            "horizon": cloud.horizon,
            "survivors": len(cloud.points),
            "components": cloud.n_components,
            "candidate_unbounded": np.flatnonzero(cloud.unbounded),
        },
    )
    (x0, x1), (y0, y1) = cloud.window
    c = SvgCanvas((x0, x1), (y0, y1))
    c.frame()
    if len(cloud.points):
        c.cells(cloud.points, cloud.grid_step)
    c.save(outdir / "confinement.svg")
    return EXIT_PASS


def run_omega_probe(run: Run, outdir: OutputDir) -> int:
    verdict, drifts = conf.omega_probe(run.cloud, run.m, run.cfg.get("omega", "extra"))
    # no sample survived: null range, empty histogram
    lo = hi = None
    counts, edges = [], []
    if len(drifts):
        lo, hi = float(drifts.min()), float(drifts.max())
        counts, edges = np.histogram(drifts, 20, range=widen_range(lo, hi, 20))
    write_json(
        outdir / "omega.json",
        {
            "mode": run.cloud.mode,
            "verdict": verdict,
            "samples": len(drifts),
            "drift_min": lo,
            "drift_max": hi,
            "drift_histogram": {"counts": counts, "edges": edges},
        },
    )
    return EXIT_PASS


def run_disks(run: Run, outdir: OutputDir) -> int:
    r = run.cfg.get("disks", "region")
    report = conf.complement_disk_stats(
        run.unstable.vertices, ((0.0, r), (0.0, r)), run.cfg.get("disks", "step")
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


def run_mixing(run: Run, outdir: OutputDir) -> int:
    hits, n0 = run.mixing
    write_csv(outdir / "mixing.csv", ["n", "hit"], [(n, int(hits[n])) for n in range(1, len(hits))])
    write_json(outdir / "mixing.json", {"n_max": len(hits) - 1, "tail_start": n0, "hits_total": int(hits.sum())})
    return EXIT_PASS


def run_sft_hull(run: Run, outdir: OutputDir) -> int:
    s = run.sft
    hull = sft.cycle_rotation_hull(s, run.cfg.get("sft", "cycle_cap"))
    write_json(
        outdir / "sft_hull.json",
        {"vertices": s.n, "edges": len(s.edges), "hull": [[str(x), str(y)] for x, y in hull]},
    )
    return EXIT_PASS


def run_sft_orbit(run: Run, outdir: OutputDir) -> int:
    s = run.sft
    kv = run.cfg.values["sft"]
    try:
        orbit = sft.bounded_deviation_orbit(s, kv["rho"], kv["horizon"], kv["cycle_cap"])
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


# check-all's budgets, set by no key and echoed as "fixed"; omega_modes: (mode, theta) per class
CHECK_FIXED = {
    "rotation": {"grid": 32, "horizons": (500, 5000)},
    "confinement": {"window": ((-2.0, 2.0), (-2.0, 2.0)), "grid_step": 1.0 / 32.0, "horizon": 300},
    "omega_iterations": 2000,
    "omega_modes": {"dehn": (("south", None), ("north", None)), "identity": (("theta", np.pi / 2),)},
}


def _lift_check(m, cfg):
    """The lift contract at 1,000 points of the unit square: deck, area and
    inverse residuals, each below 1e-12 to pass."""
    pts = child_rng(cfg.rng_seed, "check-lift").uniform(0, 1, size=(1000, 2))
    deck = max(maps.deck_residual(m, pts, v) for v in itertools.product((-1, 0, 1), repeat=2))
    area = maps.area_residual(m, pts)
    inverse = maps.inverse_residual(m, pts)
    status = "pass" if all(r < 1e-12 for r in (deck, area, inverse)) else "fail"
    return status, "deck %.2e area %.2e inverse %.2e" % (deck, area, inverse)


def _rotation_check(m):
    """Row name, detail and zero margin of the homotopy class's rotation set."""
    rot = CHECK_FIXED["rotation"]
    seeds = rotation.seed_grid(rot["grid"], rot["grid"])
    if m.homotopy_class == "dehn":
        iv = rotation.estimate_vertical_rotation_set(m, seeds, rot["horizons"])
        margin = iv.margin(0.0)
        detail = "[%r, %r], gap %.2e, zero margin %r" % (iv.lo, iv.hi, iv.hausdorff_gap, margin)
        return "vertical-rotation-interval", detail, margin
    poly = rotation.estimate_rotation_set(m, seeds, rot["horizons"])
    margin = poly.margin((0.0, 0.0))
    detail = "%d hull vertices, gap %.2e, zero margin %r" % (len(poly.hull), poly.hausdorff_gap, margin)
    return "rotation-set-hull", detail, margin


def _periodic_check(run):
    # the sweep keeps only orbits with residual below tol
    return "pass" if run.orbits else "inconclusive", "%d orbits" % len(run.orbits)


def _scan_check(run):
    half = run.cfg.get("translates", "range")
    misses = sorted(k for k, v in run.scan.items() if not v)
    if not misses:
        return "pass", "witnesses on the full %dx%d box" % (2 * half + 1, 2 * half + 1)
    if run.scan[(0, 0)]:
        return "inconclusive", "missing at %s" % misses
    return "inconclusive", "no homoclinic witness at current budget"


def _omega_check(run):
    verdicts = []
    for mode, theta in CHECK_FIXED["omega_modes"][run.m.homotopy_class]:
        cloud = conf.compute_confinement(run.m, mode, theta=theta, **CHECK_FIXED["confinement"])
        verdicts.append((mode, conf.omega_probe(cloud, run.m, CHECK_FIXED["omega_iterations"])[0]))
    # one mode reports its bare verdict, several their (mode, verdict) list
    detail = str(verdicts) if len(verdicts) > 1 else verdicts[0][1]
    return "pass" if all(v == "escaping" for _, v in verdicts) else "inconclusive", detail


def _mixing_check(run):
    hits, n0 = run.mixing
    detail = "tail start %s, %d/%d hits" % (n0, int(hits.sum()), len(hits) - 1)
    return "pass" if n0 is not None else "inconclusive", detail


def _sft_check():
    """The two-loop subshift's exact hull and deviation; parameter-free."""
    s = sft.two_loop_example()
    hull = sft.cycle_rotation_hull(s)
    hull_ok = hull == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    orbit = sft.bounded_deviation_orbit(s, (Fraction(1, 2), Fraction(1, 2)), sft.DEFAULT_HORIZON)
    dev_ok = orbit.max_deviation_sq == Fraction(1, 2)
    return "pass" if hull_ok and dev_ok else "fail", "hull %s" % hull_ok


# checks that need 0 strictly inside the rotation estimate
GATED_CHECKS = (
    ("periodic-orbits", _periodic_check),
    ("translate-scan", _scan_check),
    ("omega-probe", _omega_check),
    ("mixing-probe", _mixing_check),
)


def run_check_all(run: Run, outdir: OutputDir) -> int:
    """End-to-end verification pipeline with one pass/fail/inconclusive row
    per structural check; the GATED_CHECKS report 'hypothesis not met,
    skipped' unless 0 is interior to the rotation estimate, and
    'inconclusive' with the message of a NumericalAbort they raise."""
    rows = [("deck-equivariance-and-area", *_lift_check(run.m, run.cfg))]
    name, detail, margin = _rotation_check(run.m)
    rows.append((name, "pass", detail))
    for name, check in GATED_CHECKS:
        try:
            status_detail = check(run) if margin > 1e-3 else ("skipped", "hypothesis not met, skipped")
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
    if args.out is not None:
        cfg.values["run"]["out"] = None  # not read, so not echoed
    out = OutputDir(args.out or cfg.out_dir or "out")
    try:
        out.path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print("config error: cannot create output directory: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        # every numerical failure raises a NumericalAbort; numpy's warnings only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            status = RUNNERS[cfg.command](Run(cfg), out)
    except (ConfigError, rotation.WrongHomotopyClassError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except maps.NumericalAbort as exc:
        print("numerical abort: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print("numerical abort: out of memory: %s" % (str(exc) or "allocation failed"), file=sys.stderr)
        return EXIT_NUMERIC
    write_manifest(out, cfg.resolved(), cfg.warnings, CHECK_FIXED if cfg.command == "check-all" else None)
    return status


if __name__ == "__main__":
    sys.exit(main())
