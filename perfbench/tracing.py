"""Runtime spans and counters around torusdyn's public functions.

The program itself is not modified: `Tracer.install()` replaces module
attributes (and `SvgCanvas` methods) with timing wrappers, and
`Tracer.uninstall()` puts the originals back.  Every call records a span
(name, start, end, parent) in memory; counters are incremented at the same
boundaries.  Nothing is written until the caller asks for `metrics()`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time

import numpy as np

from torusdyn import cli, confinement, manifolds, maps, periodic, report, rotation, sft, svg

LAYERS = ("cli", "maps", "rotation", "periodic", "manifolds", "confinement", "sft", "svg", "report")

# span name -> metric that sums the span durations (inclusive time)
TIMED_SPANS = {
    "maps.forward": "maps.forward_s",
    "maps.inverse": "maps.inverse_s",
    "rotation.estimate_vertical_rotation_set": "rotation.vertical_s",
    "periodic.sweep_periodic": "periodic.sweep_s",
    "manifolds.grow_manifold": "manifolds.grow_s",
    "manifolds.translate_scan": "manifolds.scan_s",
    "manifolds.detect_crossings": "manifolds.detect_s",
    "confinement.compute_confinement": "confinement.cloud_s",
    "confinement.omega_probe": "confinement.omega_s",
    "sft.cycle_rotation_hull": "sft.hull_s",
    "sft.bounded_deviation_orbit": "sft.orbit_s",
    "sft.verify_deviation": "sft.verify_s",
}

COUNTERS = (
    "maps.forward_calls",
    "maps.forward_points",
    "maps.inverse_points",
    "maps.jacobian_calls",
    "rotation.seed_steps",
    "periodic.newton_calls",
    "periodic.newton_failed",
    "periodic.orbits_found",
    "manifolds.vertices",
    "manifolds.insertions",
    "manifolds.detect_calls",
    "manifolds.witnesses",
    "confinement.grid_points",
    "confinement.survivors",
    "confinement.components",
    "confinement.omega_samples",
    "sft.cycles",
    "sft.word_len",
    "svg.points",
    "svg.bytes",
    "report.bytes",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric == "periodic.found_per_newton":
        return "ratio"
    return "count"


def _points(z) -> int:
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """In-memory span recorder.  One instance per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        """Span around fn; after(args, kwargs, result) updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _add(self, key, n):
        self.counts[key] += int(n)

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def _traced_map(self, m):
        add = self._add

        def fwd(args, kwargs, out):
            add("maps.forward_calls", 1)
            add("maps.forward_points", _points(args[0]))

        def inv(args, kwargs, out):
            add("maps.inverse_points", _points(args[0]))

        def jac(args, kwargs, out):
            add("maps.jacobian_calls", 1)

        return dataclasses.replace(
            m,
            forward=self._wrap("maps.forward", m.forward, fwd),
            inverse=self._wrap("maps.inverse", m.inverse, inv),
            jacobian=self._wrap("maps.jacobian", m.jacobian, jac),
        )

    def install(self):
        add = self._add
        make_standard_map = maps.make_standard_map
        self._saved.append((maps, "make_standard_map", make_standard_map))
        maps.make_standard_map = lambda *a, **kw: self._traced_map(make_standard_map(*a, **kw))

        for command, runner in list(cli.RUNNERS.items()):
            self._saved.append((cli.RUNNERS, command, runner))
            cli.RUNNERS[command] = self._wrap("cli." + command, runner)

        self._patch(
            rotation,
            "estimate_vertical_rotation_set",
            "rotation.estimate_vertical_rotation_set",
            lambda a, kw, r: add("rotation.seed_steps", len(r.sample_means) * r.horizons[1]),
        )

        newton_periodic = periodic.newton_periodic

        def newton(*a, **kw):
            add("periodic.newton_calls", 1)
            try:
                r = newton_periodic(*a, **kw)
            except periodic.SingularNewtonError:
                add("periodic.newton_failed", 1)
                raise
            add("periodic.newton_failed", r is None)
            return r

        self._saved.append((periodic, "newton_periodic", newton_periodic))
        periodic.newton_periodic = self._wrap("periodic.newton_periodic", newton)
        self._patch(
            periodic,
            "sweep_periodic",
            "periodic.sweep_periodic",
            lambda a, kw, r: add("periodic.orbits_found", len(r)),
        )

        def grown(a, kw, r):
            add("manifolds.vertices", len(r.vertices))
            add("manifolds.insertions", r.growth_log[1])

        def detected(a, kw, r):
            add("manifolds.detect_calls", 1)
            add("manifolds.witnesses", len(r))

        self._patch(manifolds, "grow_manifold", "manifolds.grow_manifold", grown)
        self._patch(manifolds, "translate_scan", "manifolds.translate_scan")
        self._patch(manifolds, "detect_crossings", "manifolds.detect_crossings", detected)
        self._patch(manifolds, "mixing_probe", "manifolds.mixing_probe")

        def cloud(a, kw, r):
            add("confinement.grid_points", r.grid_shape[0] * r.grid_shape[1])
            add("confinement.survivors", len(r.points))
            add("confinement.components", r.n_components)

        self._patch(confinement, "compute_confinement", "confinement.compute_confinement", cloud)
        self._patch(
            confinement,
            "omega_probe",
            "confinement.omega_probe",
            lambda a, kw, r: add("confinement.omega_samples", len(r[1])),
        )

        self._patch(sft, "simple_cycles", "sft.simple_cycles", lambda a, kw, r: add("sft.cycles", len(r)))
        self._patch(sft, "cycle_rotation_hull", "sft.cycle_rotation_hull")
        self._patch(
            sft,
            "bounded_deviation_orbit",
            "sft.bounded_deviation_orbit",
            lambda a, kw, r: add("sft.word_len", len(r.word)),
        )
        self._patch(sft, "verify_deviation", "sft.verify_deviation")

        canvas = svg.SvgCanvas
        for method in ("polyline", "circles", "cells"):
            self._patch(
                canvas,
                method,
                "svg." + method,
                lambda a, kw, r: add("svg.points", len(np.reshape(a[1], (-1, 2)))),
            )
        self._patch(canvas, "save", "svg.save", lambda a, kw, r: add("svg.bytes", os.path.getsize(a[1])))

        def written(a, kw, r):
            add("report.bytes", os.path.getsize(a[0]))

        for name in ("write_json", "write_csv", "write_manifest"):
            after = None if name == "write_manifest" else written
            wrapped = self._wrap("report." + name, getattr(report, name), after)
            for owner in (report, cli):
                self._saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction -------------------------------------------------------
    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        dur = self.durations()
        child = np.zeros(len(dur))
        par = np.asarray(self.parents, dtype=int)
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        return dur - child

    def layer_table(self) -> dict:
        """layer -> (inclusive seconds, self seconds, spans).

        Inclusive time counts only spans with no ancestor of the same
        layer, so nested calls inside one layer are not counted twice.
        """
        layer = [n.split(".", 1)[0] for n in self.names]
        dur = self.durations()
        own = self.self_times()
        table = {name: [0.0, 0.0, 0] for name in LAYERS}
        outer = []
        for sid, lay in enumerate(layer):
            p = self.parents[sid]
            while p >= 0 and layer[p] != lay:
                p = self.parents[p]
            outer.append(p < 0)
        for sid, lay in enumerate(layer):
            row = table[lay]
            if outer[sid]:
                row[0] += float(dur[sid])
            row[1] += float(own[sid])
            row[2] += 1
        return {k: tuple(v) for k, v in table.items()}

    def metrics(self) -> dict:
        """Per-layer metrics for one traced round (times in seconds)."""
        out = {metric: 0.0 for metric in TIMED_SPANS.values()}
        dur = self.durations()
        for sid, name in enumerate(self.names):
            metric = TIMED_SPANS.get(name)
            if metric is not None:
                out[metric] += float(dur[sid])
        table = self.layer_table()
        out["cli.runner_s"] = table["cli"][0]
        out["cli.self_s"] = table["cli"][1]
        out["svg.draw_s"] = table["svg"][0]
        out["report.write_s"] = table["report"][0]
        out.update(self.counts)
        calls = self.counts["periodic.newton_calls"]
        out["periodic.found_per_newton"] = self.counts["periodic.orbits_found"] / calls if calls else 0.0
        return out
