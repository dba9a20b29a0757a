"""Minimal dependency-free SVG writer for scatter, polyline and heatmap
plots.  Coordinates are given in data space; the canvas maps a data box to
a fixed pixel viewport and spells every pixel coordinate as Python's
`"%.2f"` does."""

from __future__ import annotations

import numpy as np

# Rows per numpy block: bounds the spelling's temporaries on long curves.
_BLOCK_ROWS = 1 << 14
# Below this many rows `%`-formatting is cheaper than numpy's fixed cost.
_NUMPY_MIN_ROWS = 256
# Numpy spells |v| < 1e13 only: |v| * 100 then has at most 15 digits and
# its rounded value is an exact float integer.
_NUMPY_MAX_ABS = 1e13


def _python_rows(head, xs, mid, ys, tail, sep):
    def esc(s):
        return s.replace("%", "%%")

    row = esc(head) + "%.2f" + esc(mid) + "%.2f" + esc(tail)
    return sep.join([row % xy for xy in zip(xs.tolist(), ys.tolist())])


def _text(s):
    return np.frombuffer(s.encode("utf-8"), dtype=np.uint8), True


def _field(v):
    """Byte columns and keep-mask of `"%.2f" % v` for finite |v| <
    _NUMPY_MAX_ABS: [sign, integer digits right-aligned, '.', 2 digits]."""
    t = np.abs(v) * 100
    c = np.rint(t)
    # Within a few ulps of a half the float product may round the other way
    # than the exact one (813.275 * 100 == 81327.5): there take the digits
    # from Python's correctly rounded spelling.
    near = np.abs(t - np.floor(t) - 0.5) <= 4 * np.spacing(t)
    if near.any():
        c[near] = [int(("%.2f" % a).replace(".", "")) for a in np.abs(v[near]).tolist()]
    q = c.astype(np.int64)
    width = len(str(int(q.max()) // 100))
    cols = np.empty((len(v), width + 4), dtype=np.uint8)
    keep = np.ones(cols.shape, dtype=bool)
    cols[:, 0] = ord("-")
    keep[:, 0] = np.signbit(v)
    # digits from the last one leftwards; an integer digit is written from
    # the leading nonzero one, or the units
    for j in (width + 3, width + 2, *range(width, 0, -1)):
        q, d = np.divmod(q, 10)
        cols[:, j] = d
        if j < width:
            keep[:, j] = q + d > 0
    cols[:, 1:] += ord("0")
    cols[:, width + 1] = ord(".")
    return cols, keep


def _numpy_rows(head, xs, mid, ys, tail, sep):
    pieces = [_text(head), _field(xs), _text(mid), _field(ys), _text(tail + sep)]
    M = np.empty((len(xs), sum(cols.shape[-1] for cols, _ in pieces)), dtype=np.uint8)
    K = np.empty(M.shape, dtype=bool)
    at = 0
    for cols, keep in pieces:
        w = cols.shape[-1]
        M[:, at : at + w] = cols
        K[:, at : at + w] = keep
        at += w
    K[-1, M.shape[1] - len(sep.encode("utf-8")) :] = False
    return M[K].tobytes().decode("utf-8")


def _rows(head, xs, mid, ys, tail, sep):
    """`sep.join(head + "%.2f" % x + mid + "%.2f" % y + tail for x, y in
    zip(xs, ys))`, byte for byte.  Long inputs are spelled by numpy in
    blocks of _BLOCK_ROWS rows; short ones, and blocks holding a non-finite
    or huge value, by Python."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < _NUMPY_MIN_ROWS:
        return _python_rows(head, xs, mid, ys, tail, sep)
    blocks = []
    for i in range(0, len(xs), _BLOCK_ROWS):
        bx, by = xs[i : i + _BLOCK_ROWS], ys[i : i + _BLOCK_ROWS]
        small = (np.abs(bx) < _NUMPY_MAX_ABS).all() and (np.abs(by) < _NUMPY_MAX_ABS).all()
        blocks.append((_numpy_rows if small else _python_rows)(head, bx, mid, by, tail, sep))
    return sep.join(blocks)


def widen_range(lo, hi, bins: int):
    """(lo - w, hi + w) for the first w of 0, 0.5 and half the larger
    magnitude that splits the range into `bins` increasing steps: a range
    too narrow is widened by 0.5 each way, as np.histogram widens a zero
    range, or by magnitude where 0.5 is below the float spacing."""
    for w in (0.0, 0.5, 0.5 * max(abs(lo), abs(hi))):
        if np.all(np.diff(np.linspace(lo - w, hi + w, bins + 1)) > 0):
            break
    return lo - w, hi + w


def _limits(lim):
    """(lo, hi) as given, or widened by `widen_range` where lo == hi."""
    lo, hi = lim
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("SVG canvas limits must be finite, got %r" % (lim,))
    return lim if lo != hi else widen_range(lo, hi, 1)


class SvgCanvas:
    def __init__(self, xlim, ylim, width: int = 640, height: int = 640, margin: int = 40):
        self.xlim = _limits(xlim)
        self.ylim = _limits(ylim)
        self.w = width
        self.h = height
        self.m = margin
        self.elements: list[str] = []

    def _tx(self, x):
        x0, x1 = self.xlim
        return self.m + (np.asarray(x) - x0) / (x1 - x0) * (self.w - 2 * self.m)

    def _ty(self, y):
        y0, y1 = self.ylim
        return self.h - self.m - (np.asarray(y) - y0) / (y1 - y0) * (self.h - 2 * self.m)

    def polyline(self, pts, color="black", width=1.0):
        pts = np.asarray(pts, dtype=float)
        d = _rows("", self._tx(pts[:, 0]), ",", self._ty(pts[:, 1]), "", " ")
        self.elements.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>'
            % (d, color, width)
        )

    def circles(self, pts, r=2.0, color="black"):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if len(pts):
            tail = '" r="%.2f" fill="%s" stroke="%s"/>' % (r, color, color)
            self.elements.append(
                _rows('<circle cx="', self._tx(pts[:, 0]), '" cy="', self._ty(pts[:, 1]), tail, "\n")
            )

    def cells(self, pts, step, color="#3060c0"):
        """Filled squares of side `step` (data units) centered on points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        sx = step / (self.xlim[1] - self.xlim[0]) * (self.w - 2 * self.m)
        sy = step / (self.ylim[1] - self.ylim[0]) * (self.h - 2 * self.m)
        if len(pts):
            tail = '" width="%.2f" height="%.2f" fill="%s"/>' % (sx, sy, color)
            x = self._tx(pts[:, 0]) - sx / 2
            y = self._ty(pts[:, 1]) - sy / 2
            self.elements.append(_rows('<rect x="', x, '" y="', y, tail, "\n"))

    def frame(self):
        self.elements.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="gray"/>'
            % (self.m, self.m, self.w - 2 * self.m, self.h - 2 * self.m)
        )

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n' % (self.w, self.h, self.w, self.h)
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())
