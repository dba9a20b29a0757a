"""Output checks that do not trust the program.

Every check recomputes what it tests with the benchmark's own arithmetic
(the closed-form standard map, exact rational cycle sums, a KD-tree of its
own) or tests a property the method must have.  None compares against a
stored copy of an earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- the standard map, written out independently of torusdyn.maps ----------

def std_forward(z, k):
    z = np.asarray(z, dtype=float)
    s = k * np.sin(TWO_PI * z[..., 0])
    return np.stack([z[..., 0] + z[..., 1] + s, z[..., 1] + s], axis=-1)


def std_inverse(w, k):
    w = np.asarray(w, dtype=float)
    x = w[..., 0] - w[..., 1]
    return np.stack([x, w[..., 1] - k * np.sin(TWO_PI * x)], axis=-1)


def std_jacobian(z, k):
    c = TWO_PI * k * math.cos(TWO_PI * float(z[0]))
    return np.array([[1.0 + c, 1.0], [c, 1.0]])


# -- torusdyn run outputs -----------------------------------------------------

def check_manifest(outdir: Path):
    """manifest.json lists every output file with its true sha256."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    listed = manifest["outputs"]
    present = sorted(p.name for p in outdir.iterdir() if p.is_file() and p.name != "manifest.json")
    require(sorted(listed) == present, "manifest lists %s, directory has %s" % (sorted(listed), present))
    for name, digest in listed.items():
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        require(actual == digest, "hash mismatch for %s" % name)


CHECK_ALL_ROWS = (
    "deck-equivariance-and-area",
    "vertical-rotation-interval",
    "periodic-orbits",
    "translate-scan",
    "omega-probe",
    "mixing-probe",
    "sft-two-loop",
)


def check_check_all_rows(rows):
    """At k = 2, 0 is interior to the rotation interval, so every row
    passes; the mixing probe may also report inconclusive."""
    require(tuple(r["check"] for r in rows) == CHECK_ALL_ROWS, "unexpected rows %s" % [r["check"] for r in rows])
    for r in rows:
        allowed = ("pass", "inconclusive") if r["check"] == "mixing-probe" else ("pass",)
        require(r["status"] in allowed, "%s: %s (%s)" % (r["check"], r["status"], r["detail"]))


def check_vertical_interval(k, summary, means):
    """|dy| = |k sin 2 pi x| <= k, and seeds at x = 1/4, 3/4 reach the bound,
    so the interval is [-k, k] and every mean lies inside it."""
    require(abs(summary["lo"] + k) <= 1e-9 and abs(summary["hi"] - k) <= 1e-9,
            "vertical interval [%r, %r] is not [-%g, %g]" % (summary["lo"], summary["hi"], k, k))
    means = np.asarray(means, dtype=float)
    require(len(means) > 0, "no per-seed means")
    require(bool(np.all(np.abs(means) <= k + 1e-9)), "a vertical mean lies outside [-k, k]")


def read_vrotset_means(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["vertical_mean"]) for r in rows]


def check_omega(record):
    """The k = 2 south cloud escapes: verdict and >= 99% drifts above 1e-3."""
    require(record["verdict"] == "escaping", "omega verdict %r" % record["verdict"])
    n = record["samples"]
    require(n > 0, "no omega samples")
    counts = record["drift_histogram"]["counts"]
    edges = record["drift_histogram"]["edges"]
    require(sum(counts) == n, "histogram does not add up to the sample count")
    above = sum(c for c, lo in zip(counts, edges[:-1]) if lo > 1e-3)
    require(above >= 0.99 * n, "only %d of %d drifts above 1e-3" % (above, n))


def _classify(trace):
    if abs(abs(trace) - 2.0) < 1e-9:
        return "parabolic"
    if trace > 2.0:
        return "hyperbolic_positive"
    if trace < -2.0:
        return "hyperbolic_negative"
    return "elliptic"


def _torus_dist(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d - np.floor(d)
    return float(np.linalg.norm(np.minimum(d, 1.0 - d)))


def check_periodic_orbits(k, record):
    """Residual and trace recomputed from the closed-form map and the
    Jacobian product; classification must match the trace; orbits must
    be distinct modulo integer translates and cyclic shifts."""
    orbits = record["orbits"]
    require(record["count"] == len(orbits) and orbits, "no periodic orbits reported")
    q = record["q"]
    pr = np.asarray(record["pr"], dtype=float)
    cycles = []
    for o in orbits:
        require(o["period"] == q and list(o["translation"]) == list(record["pr"]), "wrong period or translation")
        z = np.asarray(o["point"], dtype=float)
        J = np.eye(2)
        pts = []
        w = z
        for _ in range(q):
            pts.append(w)
            J = std_jacobian(w, k) @ J
            w = std_forward(w, k)
        res = float(np.linalg.norm(w - z - pr))
        require(res <= 1e-9, "recomputed residual %.3e" % res)
        require(abs(res - o["residual"]) <= 1e-9, "reported residual %.3e, recomputed %.3e" % (o["residual"], res))
        tr = float(np.trace(J))
        require(o["classification"] == _classify(tr), "%s orbit has trace %.6f" % (o["classification"], tr))
        ev_sum = sum(complex(re, im) for re, im in o["eigenvalues"])
        require(abs(ev_sum.real - tr) <= 1e-7 * max(1.0, abs(tr)), "eigenvalues do not sum to the trace")
        cycles.append(pts)
    for a, b in itertools.combinations(range(len(cycles)), 2):
        near = min(_torus_dist(p, cycles[b][0]) for p in cycles[a])
        require(near > 1e-6, "orbits %d and %d coincide modulo translates and shifts" % (a, b))


# -- tangle: curves, witnesses, picture ---------------------------------------

def _seg_cross(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _point_seg_dist(p, a, b):
    d = b - a
    t = min(1.0, max(0.0, float((p - a) @ d) / float(d @ d)))
    return float(np.linalg.norm(p - (a + t * d)))


def check_curve(V, h_max, budget):
    """Vertex spacing <= h_max and the curve reaches its arclength budget."""
    seg = np.linalg.norm(np.diff(V, axis=0), axis=1)
    require(float(seg.max()) <= h_max * (1 + 1e-12), "vertex spacing %.3e exceeds h_max" % seg.max())
    length = float(seg.sum())
    require(budget <= length <= budget + h_max, "arclength %.6f misses the budget %g" % (length, budget))


def check_invariance(V, image, h_max, budget):
    """The image of a prefix of the curve (arclength budget/20; the map
    stretches by less than 20 at k = 2) lies on the curve again."""
    seg = np.linalg.norm(np.diff(V, axis=0), axis=1)
    n = int(np.searchsorted(np.cumsum(seg), budget / 20.0)) + 1
    dist, _ = cKDTree(V).query(image(V[:n]))
    require(float(dist.max()) <= 2.0 * h_max, "image of the prefix is %.3e off the curve" % dist.max())


def _local_piece(P, i, x0, half_len):
    """Vertices of P within half_len arclength of x0 on segment i."""
    fwd, acc, prev, j = [x0], 0.0, x0, i + 1
    while j < len(P) and acc < half_len:
        acc += float(np.linalg.norm(P[j] - prev))
        fwd.append(P[j])
        prev = P[j]
        j += 1
    bwd, acc, prev, j = [], 0.0, x0, i
    while j >= 0 and acc < half_len:
        acc += float(np.linalg.norm(P[j] - prev))
        bwd.append(P[j])
        prev = P[j]
        j -= 1
    return np.asarray(bwd[::-1] + fwd)


def _offset(x, piece):
    """Signed distance from x to the nearest segment of the piece."""
    a = piece[:-1]
    d = piece[1:] - a
    L2 = np.einsum("ij,ij->i", d, d)
    ok = L2 > 0
    a, d, L2 = a[ok], d[ok], L2[ok]
    t = np.clip(np.einsum("ij,ij->i", x - a, d) / L2, 0.0, 1.0)
    dist = np.linalg.norm(x - (a + t[:, None] * d), axis=1)
    m = int(np.argmin(dist))
    return (d[m, 0] * (x[1] - a[m, 1]) - d[m, 1] * (x[0] - a[m, 0])) / math.sqrt(L2[m])


def _exit_side(T, j, step, x0, tang, piece, ell, w):
    """Walk T from vertex j until it leaves the rectangle; return the side
    of the first off-piece vertex and the exit label."""
    sgn = 0.0
    while 0 <= j < len(T):
        x = T[j]
        u = float(tang @ (x - x0))
        s = _offset(x, piece)
        inside = abs(u) <= ell / 2 and abs(s) <= w / 2
        if s != 0.0 and sgn == 0.0:
            sgn = math.copysign(1.0, s)
        if inside:
            require(s == 0.0 or math.copysign(1.0, s) == sgn, "target recrosses the piece inside the rectangle")
        else:
            require(sgn != 0.0, "target leaves the rectangle on the piece")
            return sgn, ("end" if abs(u) > ell / 2 else "far")
        j += step
    raise CheckFailed("target curve ends inside the rectangle")


def check_witness(P, T, wit, h_max):
    """One crossing witness of P with the translated target T."""
    i, j = wit.piece_segment, wit.target_segment
    require(0 <= i < len(P) - 1 and 0 <= j < len(T) - 1, "segment index out of range")
    a, b, c, d = P[i], P[i + 1], T[j], T[j + 1]
    require(_seg_cross(a, b, c) * _seg_cross(a, b, d) < 0, "target segment does not change side strictly")
    require(_seg_cross(c, d, a) * _seg_cross(c, d, b) < 0, "piece segment does not change side strictly")
    x0 = np.asarray(wit.location, dtype=float)
    tol = 1e-9 * max(1.0, float(np.abs(x0).max()))
    require(_point_seg_dist(x0, a, b) <= tol, "witness is off its unstable segment")
    require(_point_seg_dist(x0, c, d) <= tol, "witness is off its stable segment")
    ell, w = 10.0 * h_max, 2.0 * h_max
    tang = (b - a) / np.linalg.norm(b - a)
    require(np.allclose(np.mean(wit.rectangle, axis=0), x0, rtol=0, atol=tol), "rectangle is not centred on the witness")
    piece = _local_piece(P, i, x0, ell / 2)
    fwd = _exit_side(T, j + 1, +1, x0, tang, piece, ell, w)
    bwd = _exit_side(T, j, -1, x0, tang, piece, ell, w)
    require(fwd[0] * bwd[0] < 0, "both exits lie on the same side")
    left, right = (fwd, bwd) if fwd[0] > 0 else (bwd, fwd)
    require(wit.sides_hit == {"left": left[1], "right": right[1]}, "reported exit sides %s" % wit.sides_hit)


def check_scan(wu, ws, table, half_range):
    """Every translate in the box has a witness, and every witness checks."""
    box = {(a, b) for a in range(-half_range, half_range + 1) for b in range(-half_range, half_range + 1)}
    require(set(table) == box, "scan table keys %s" % sorted(table))
    P = wu.vertices
    for v, wits in table.items():
        require(len(wits) > 0, "no witness at translate %s" % (v,))
        T = ws.vertices + np.asarray(v, dtype=float)
        for wit in wits:
            require(tuple(wit.translate) == v, "witness filed under the wrong translate")
            check_witness(P, T, wit, wu.h_max)


def check_svg(path: Path, n_vertices, n_witnesses):
    text = path.read_text()
    require(text.startswith("<svg") and text.endswith("</svg>\n"), "SVG is not closed")
    lines = [ln for ln in text.splitlines() if ln.startswith("<polyline")]
    require(len(lines) == 2, "expected two polylines, found %d" % len(lines))
    points = sum(ln.split('"')[1].count(",") for ln in lines)
    require(points == n_vertices, "SVG has %d polyline points, curves have %d" % (points, n_vertices))
    require(text.count("<circle") == n_witnesses, "SVG does not mark every witness")


# -- exact subshift --------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def exact_hull(points):
    """Monotone chain over Fractions, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def cycle_means_by_permutation(n, weights):
    """Mean weight of every simple cycle of a digraph without parallel
    edges, enumerated as vertex permutations rooted at their least vertex.
    weights maps (i, j) to a Fraction pair."""
    means = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            root, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                cyc = (root,) + perm
                sx = sy = Fraction(0)
                ok = True
                for a, b in zip(cyc, cyc[1:] + (root,)):
                    w = weights.get((a, b))
                    if w is None:
                        ok = False
                        break
                    sx += w[0]
                    sy += w[1]
                if ok:
                    means.append((sx / size, sy / size))
    return means


def check_sft_hull(n, weights, hull):
    """The reported hull equals the hull of cycle means enumerated here."""
    expected = exact_hull(cycle_means_by_permutation(n, weights))
    require(sorted(hull) == sorted(expected), "hull %s differs from the enumerated hull %s" % (hull, expected))


def check_sft_orbit(edges, rho, record):
    """The word is a closed walk whose mean is exactly rho; the exact max
    deviation over two periods matches the report and the bound."""
    word = record["word_edges"]
    L = len(word)
    require(L > 0 and record["period"] == L, "bad period")
    require(all(0 <= e < len(edges) for e in word), "edge index out of range")
    for e, f in zip(word, word[1:] + word[:1]):
        require(edges[e][1] == edges[f][0], "word is not a closed walk at edge %d" % e)
    rho = (Fraction(rho[0]), Fraction(rho[1]))
    require((Fraction(record["rho"][0]), Fraction(record["rho"][1])) == rho, "reported rho differs")
    sx = sum((edges[e][2][0] for e in word), Fraction(0))
    sy = sum((edges[e][2][1] for e in word), Fraction(0))
    require((sx / L, sy / L) == rho, "word mean %s is not rho" % ((sx / L, sy / L),))
    sx = sy = Fraction(0)
    best = Fraction(0)
    for n in range(1, 2 * L + 1):
        wx, wy = edges[word[(n - 1) % L]][2]
        sx += wx
        sy += wy
        dx, dy = sx - n * rho[0], sy - n * rho[1]
        best = max(best, dx * dx + dy * dy)
    dev = math.sqrt(float(best))
    reported = record["max_deviation"]
    require(abs(dev - reported) <= 1e-12 * max(1.0, dev), "max deviation %r, recomputed %r" % (reported, dev))
    require(dev <= record["deviation_bound"], "deviation exceeds the reported bound")
