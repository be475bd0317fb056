"""Hand-emitted SVG figures: spiral curve plots and report bar charts.

Output is fully deterministic (fixed coordinate formatting, no timestamps,
no external plotting dependency) so figures can be diffed byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["curve_svg", "report_bar_chart"]

MAX_PATH_POINTS = 5000


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def curve_svg(points: np.ndarray, size: int = 600, margin: float = 30.0) -> str:
    """Square plot of a polyline, equal axis scaling, y up."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need an (n, 2) array with n >= 2")
    if pts.shape[0] > MAX_PATH_POINTS:
        idx = np.linspace(0, pts.shape[0] - 1, MAX_PATH_POINTS).round().astype(int)
        pts = pts[idx]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    scale = (size - 2.0 * margin) / span
    cx, cy = 0.5 * (lo + hi)
    px = 0.5 * size + (pts[:, 0] - cx) * scale
    py = 0.5 * size - (pts[:, 1] - cy) * scale
    # "-0.000" can only be a whole coordinate: every one has 3 decimals
    coords = " ".join(map("%.3f,%.3f".__mod__, zip(px.tolist(), py.tolist())))
    coords = coords.replace("-0.000", "0.000")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f'<polyline points="{coords}" fill="none" stroke="#225588" stroke-width="1.2"/>\n'
        "</svg>\n"
    )


def report_bar_chart(rows: Sequence, width: int = 640, height: int = 360) -> str:
    """Paired calculated/experimental wavelength bars, one group per molecule."""
    left, right, top, bottom = 60.0, 15.0, 20.0, 70.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    values = [r.lambda_calc for r in rows] + [
        r.lambda_exp for r in rows if r.lambda_exp is not None
    ]
    vmax = max(values) * 1.1 if values else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # y axis with 5 ticks
    for i in range(6):
        frac = i / 5.0
        y = top + plot_h * (1.0 - frac)
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(y)}" x2="{_fmt(width - right)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{_fmt(vmax * frac)}</text>'
        )
    n = max(len(rows), 1)
    group_w = plot_w / n
    bar_w = group_w * 0.32
    for i, r in enumerate(rows):
        x0 = left + i * group_w
        xc = x0 + 0.5 * group_w

        def bar(offset: float, value: float, color: str) -> None:
            h = plot_h * value / vmax
            parts.append(
                f'<rect x="{_fmt(xc + offset)}" y="{_fmt(top + plot_h - h)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="{color}"/>'
            )

        bar(-bar_w - 2.0, r.lambda_calc, "#4477aa")
        if r.lambda_exp is not None:
            bar(2.0, r.lambda_exp, "#ee6677")
        label = r.name if len(r.name) <= 16 else r.name[:15] + "…"
        parts.append(
            f'<text x="{_fmt(xc)}" y="{_fmt(height - bottom + 14)}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{label}</text>'
        )
    legend_y = height - 25.0
    parts.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(legend_y)}" width="12" height="12" fill="#4477aa"/>'
        f'<text x="{_fmt(left + 16)}" y="{_fmt(legend_y + 10)}" font-size="10" '
        f'font-family="sans-serif">calculated (nm)</text>'
    )
    parts.append(
        f'<rect x="{_fmt(left + 130)}" y="{_fmt(legend_y)}" width="12" height="12" fill="#ee6677"/>'
        f'<text x="{_fmt(left + 146)}" y="{_fmt(legend_y + 10)}" font-size="10" '
        f'font-family="sans-serif">experimental (nm)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
