"""Hand-emitted SVG figures: spiral curve plots and report bar charts.

Output is fully deterministic (fixed sizes, fixed coordinate formatting,
XML-escaped text, no timestamps, no external plotting dependency) so figures
can be diffed byte for byte.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

__all__ = ["curve_svg", "report_bar_chart"]

MAX_PATH_POINTS = 5000
CURVE_SIZE, CURVE_MARGIN = 600, 30.0  # a square plot
CHART_WIDTH, CHART_HEIGHT = 640, 360
# the characters XML 1.0 cannot carry, escaped or not: the complement of its
# Char production (a class of what is left compiles about 10x faster)
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# '"' would end an attribute value, and a raw '\r' would read back as '\n'
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;"})


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def _element(name: str, text: str | None = None, **attrs) -> str:
    """`<name a="v"/>`, or `<name a="v">text</name>`: floats by `_fmt`, the rest escaped."""
    head = f"<{name}" + "".join(
        f' {a.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else str(v).translate(_ESCAPE)}"'
        for a, v in attrs.items())
    if text is None:
        return f"{head}/>"
    if _NOT_XML.search(text):
        raise ValueError(f"{text!r} holds a character that XML cannot carry")
    return f"{head}>{text.translate(_ESCAPE)}</{name}>"


def _document(width: int, height: int, body: list[str]) -> str:
    """The `<svg>` frame on a white background, one body entry a line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        _element("rect", width=width, height=height, fill="white"), *body, "</svg>\n"])


def curve_svg(points: np.ndarray) -> str:
    """Square plot of a polyline, equal axis scaling, y up."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need an (n, 2) array with n >= 2")
    if pts.shape[0] > MAX_PATH_POINTS:
        idx = np.linspace(0, pts.shape[0] - 1, MAX_PATH_POINTS).round().astype(int)
        pts = pts[idx]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    scale = (CURVE_SIZE - 2.0 * CURVE_MARGIN) / span
    cx, cy = 0.5 * (lo + hi)
    px = 0.5 * CURVE_SIZE + (pts[:, 0] - cx) * scale
    py = 0.5 * CURVE_SIZE - (pts[:, 1] - cy) * scale
    # "-0.000" can only be a whole coordinate: every one has 3 decimals
    coords = " ".join(map("%.3f,%.3f".__mod__, zip(px.tolist(), py.tolist())))
    coords = coords.replace("-0.000", "0.000")
    line = _element("polyline", points=coords, fill="none", stroke="#225588", stroke_width="1.2")
    return _document(CURVE_SIZE, CURVE_SIZE, [line])


def report_bar_chart(rows: Sequence) -> str:
    """Paired calculated/experimental wavelength bars, one group per molecule.

    A name past 16 characters is cut to 15 and an ellipsis; a name with a
    character that XML cannot carry is refused with ValueError.
    """
    left, right, top, bottom = 60.0, 15.0, 20.0, 70.0
    plot_h = CHART_HEIGHT - top - bottom
    values = [v for r in rows for v in (r.lambda_calc, r.lambda_exp) if v is not None]
    vmax = max(values) * 1.1 if values else 1.0
    if not math.isfinite(plot_h * vmax):  # a bar's plot_h * value would overflow too
        raise ValueError(f"a wavelength of {max(values)!r} nm is too large to chart")
    font = {"font_family": "sans-serif"}
    body = []
    for frac in (i / 5.0 for i in range(6)):  # y axis with 5 ticks
        y = top + plot_h * (1.0 - frac)
        body += [_element("line", x1=left, y1=y, x2=CHART_WIDTH - right, y2=y,
                          stroke="#dddddd", stroke_width=1),
                 _element("text", _fmt(vmax * frac), x=left - 6, y=y + 3, text_anchor="end",
                          font_size=10, **font)]
    group_w = (CHART_WIDTH - left - right) / max(len(rows), 1)
    bar_w = group_w * 0.32
    for i, r in enumerate(rows):
        xc = left + i * group_w + 0.5 * group_w
        for offset, value, color in ((-bar_w - 2.0, r.lambda_calc, "#4477aa"),
                                     (2.0, r.lambda_exp, "#ee6677")):
            if value is not None:
                h = plot_h * value / vmax
                body.append(_element("rect", x=xc + offset, y=top + plot_h - h, width=bar_w,
                                     height=h, fill=color))
        label = r.name if len(r.name) <= 16 else r.name[:15] + "…"
        body.append(_element("text", label, x=xc, y=CHART_HEIGHT - bottom + 14,
                             text_anchor="middle", font_size=9, **font))
    legend_y = CHART_HEIGHT - 25.0
    for x, color, what in ((left, "#4477aa", "calculated"),
                           (left + 130, "#ee6677", "experimental")):
        body.append(_element("rect", x=x, y=legend_y, width=12, height=12, fill=color) + _element(
            "text", f"{what} (nm)", x=x + 16, y=legend_y + 10, font_size=10, **font))
    return _document(CHART_WIDTH, CHART_HEIGHT, body)
