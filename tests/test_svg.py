"""The canvas spells every coordinate as Python's `"%.2f"` does: the numpy
row writer is checked against the per-point writers it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusdyn import cli, svg
from torusdyn.svg import SvgCanvas


class ReferenceCanvas(SvgCanvas):
    """The per-point writers, one `%` format per vertex."""

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


def reference_rows(head, xs, mid, ys, tail, sep):
    return sep.join(head + "%.2f" % x + mid + "%.2f" % y + tail for x, y in zip(xs, ys))


def assert_same_text(new, ref):
    """new == ref, naming the first difference (pytest's own diff of two
    long strings takes minutes)."""
    if new != ref:
        at = next((i for i, (a, b) in enumerate(zip(new, ref)) if a != b), min(len(new), len(ref)))
        lo = max(at - 20, 0)
        pytest.fail("texts differ at %d: %r != %r" % (at, new[lo : at + 20], ref[lo : at + 20]))


# 813.275 and 950.105 times 100 round to an exact half in float64, so a
# plain rint picks the wrong digit; 0.125 and -0.375 are exact ties.
NAMED = [813.275, 950.105, 0.125, -0.375, 0.0, -0.0, -0.004, 0.004, 0.005, 99.995, 9.99999e12,
         -9.99999e12, 12.5, -640.0]
ROW_COUNTS = [0, 1, svg._NUMPY_MIN_ROWS - 1, svg._NUMPY_MIN_ROWS, svg._NUMPY_MIN_ROWS + 1,
              svg._BLOCK_ROWS - 1, svg._BLOCK_ROWS, svg._BLOCK_ROWS + 1]
FORMS = [("", ",", "", " "), ('<circle cx="', '" cy="', '" r="3.00" fill="%"/>', "\n")]


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("form", FORMS, ids=["points", "elements"])
def test_rows_spell_named_values_as_percent_format(n, form):
    head, mid, tail, sep = form
    xs = np.resize(np.array(NAMED), n)
    ys = np.resize(np.array(NAMED[::-1] + [0.375]), n)
    assert_same_text(svg._rows(head, xs, mid, ys, tail, sep), reference_rows(head, xs, mid, ys, tail, sep))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e13, -1e13, 1e300])
def test_blocks_with_non_finite_or_huge_values_match(bad):
    rng = np.random.default_rng(5)
    xs = rng.uniform(-800, 800, 3 * svg._BLOCK_ROWS // 2)
    ys = xs[::-1].copy()
    ys[svg._BLOCK_ROWS + 7] = bad
    assert_same_text(svg._rows("", xs, ",", ys, "", " "), reference_rows("", xs, ",", ys, "", " "))


pixel_like = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e4, 1e4),
    st.integers(-10**7, 10**7).map(lambda i: i / 1000),  # three decimals: near halves
    st.integers(-10**6, 10**6).map(lambda i: i / 8),  # exact ties
    st.sampled_from(NAMED + [1e13, -1e13]),
)


@settings(max_examples=300, deadline=None)
@given(
    data=hnp.arrays(np.float64, st.tuples(st.integers(0, 60), st.just(2)), elements=pixel_like),
    block=st.integers(1, 9),
    form=st.sampled_from(FORMS),
)
def test_rows_match_percent_format_on_random_arrays(data, block, form):
    head, mid, tail, sep = form
    xs, ys = data[:, 0], data[:, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svg, "_NUMPY_MIN_ROWS", 1)
        mp.setattr(svg, "_BLOCK_ROWS", block)
        assert_same_text(svg._rows(head, xs, mid, ys, tail, sep), reference_rows(head, xs, mid, ys, tail, sep))


@settings(max_examples=100, deadline=None)
@given(
    pts=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)), elements=st.floats(-3, 3)),
    box=st.tuples(st.floats(-2, 0), st.floats(0.01, 4), st.floats(-2, 0), st.floats(0.01, 4)),
    threshold=st.sampled_from([1, svg._NUMPY_MIN_ROWS]),
)
def test_canvas_matches_per_point_writers(pts, box, threshold):
    x0, wx, y0, wy = box
    drawn = []
    for cls in (SvgCanvas, ReferenceCanvas):
        c = cls((x0, x0 + wx), (y0, y0 + wy))
        c.frame()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svg, "_NUMPY_MIN_ROWS", threshold)
            mp.setattr(svg, "_BLOCK_ROWS", 7)
            if len(pts):
                c.polyline(pts, color="#c03030", width=0.6)
            c.circles(pts, r=1.5, color="#888888")
            c.cells(pts, 0.05)
        drawn.append(c.render())
    assert_same_text(*drawn)


def test_zero_width_box_is_widened_by_half():
    c = SvgCanvas((2.0, 2.0), (-1.0, 1.0))
    assert c.xlim == (1.5, 2.5)
    c.polyline([[2.0, 0.0]])
    assert 'points="320.00,320.00"' in c.elements[0]
    assert SvgCanvas((0.0, 1.0), (1e17, 1e17)).ylim == (5e16, 1.5e17)


@pytest.mark.parametrize("lim", [(0.0, np.nan), (-np.inf, 1.0), (np.nan, np.nan)])
def test_non_finite_limits_are_rejected(lim):
    with pytest.raises(ValueError, match="finite"):
        SvgCanvas((0.0, 1.0), lim)


def _ref_limits(lim):
    lo, hi = lim
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("SVG canvas limits must be finite, got %r" % (lim,))
    if lo != hi:
        return lim
    w = 0.5 if lo - 0.5 != lo + 0.5 else 0.5 * abs(lo)
    return (lo - w, hi + w)


# zero and signed zero, the smallest subnormal, 2^53, 1e16 and 1e300, where
# a 0.5 widening is lost to the float spacing
@given(
    st.sampled_from([0.0, -0.0, 5e-324, 2.0**53, 1e16, -1e16, 1e300, -1e300]) | st.floats(-1e300, 1e300),
    st.sampled_from([0.0, 1.0, -1.0, 1e-9, -1e6]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_limits_match_reference(v, spread, as_numpy):
    # equal, ordinary and reversed limits, as Python or numpy floats
    lim = (v, v + spread)
    if as_numpy:
        lim = (np.float64(lim[0]), np.float64(lim[1]))
    got, want = svg._limits(lim), _ref_limits(lim)
    assert repr(got) == repr(want)


SCAN = """
[map]
map = standard
k = 2

[run]
command = scan-translates

[grow]
budget = 20

[translates]
range = 1
max_witnesses = 2
"""

ROTSET = """
[map]
map = drift_shear
d = 0.4

[run]
command = rotset

[rotset]
grid = 20
n1 = 10
n2 = 50
"""


@pytest.mark.parametrize("text, svg_name", [(SCAN, "tangle.svg"), (ROTSET, "rotset.svg")], ids=["scan", "rotset"])
def test_command_files_match_per_point_writers(tmp_path, monkeypatch, text, svg_name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(cli, "SvgCanvas", ReferenceCanvas)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "ref")]) == 0
    new = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert new == sorted(p.name for p in (tmp_path / "ref").iterdir())
    for name in new:
        assert_same_text((tmp_path / "new" / name).read_text(), (tmp_path / "ref" / name).read_text())
    text = (tmp_path / "new" / svg_name).read_text()
    assert text.count("<circle") > (svg._NUMPY_MIN_ROWS if svg_name == "rotset.svg" else 0)
    if svg_name == "tangle.svg":
        assert text.count(",") > 2 * svg._BLOCK_ROWS
