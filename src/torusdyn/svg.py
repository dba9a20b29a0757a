"""Minimal dependency-free SVG writer for scatter, polyline and heatmap
plots.  Coordinates are given in data space; the canvas maps a data box to
a fixed pixel viewport."""

from __future__ import annotations

import numpy as np


class SvgCanvas:
    def __init__(self, xlim, ylim, width: int = 640, height: int = 640, margin: int = 40):
        self.xlim = xlim
        self.ylim = ylim
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
        xs = self._tx(pts[:, 0])
        ys = self._ty(pts[:, 1])
        d = " ".join("%.2f,%.2f" % (x, y) for x, y in zip(xs, ys))
        self.elements.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>'
            % (d, color, width)
        )

    def circles(self, pts, r=2.0, color="black"):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        xs = self._tx(pts[:, 0])
        ys = self._ty(pts[:, 1])
        for x, y in zip(xs, ys):
            self.elements.append(
                '<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" stroke="%s"/>'
                % (x, y, r, color, color)
            )

    def cells(self, pts, step, color="#3060c0"):
        """Filled squares of side `step` (data units) centered on points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        sx = step / (self.xlim[1] - self.xlim[0]) * (self.w - 2 * self.m)
        sy = step / (self.ylim[1] - self.ylim[0]) * (self.h - 2 * self.m)
        for p in pts:
            x = self._tx(p[0]) - sx / 2
            y = self._ty(p[1]) - sy / 2
            self.elements.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>'
                % (x, y, sx, sy, color)
            )

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
