"""Static SVG renderings: phase portraits and level-set frames.

Fixed canvas, fixed viewBox, floats at 12 significant digits - identical
inputs give byte-identical files, which is what the golden-file tests need.
"""

from __future__ import annotations

import math
from typing import Optional

from .morse import LevelSetFrame
from .serialize import fmt

CANVAS = 640.0
MARGIN = 60.0

_SQ3_2 = math.sqrt(3.0) / 2.0

# name -> (axis labels, map of (x, y, z) to the plane)
_PROJECTIONS = {
    "xy": (("X", "Y"), lambda x, y, z: (x, y)),
    "xz": (("X", "Z"), lambda x, y, z: (x, z)),
    "yz": (("Y", "Z"), lambda x, y, z: (y, z)),
    "iso": (("(X-Y)*sqrt(3)/2", "Z+(X+Y)/2"),
            lambda x, y, z: ((x - y) * _SQ3_2, z + 0.5 * (x + y))),
}
PROJECTIONS = tuple(_PROJECTIONS)


def _scaler(pts: list[tuple[float, float]]):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError("the projected coordinates overflow")
    # a range wider than the largest float is measured in halves, so that
    # it stays finite; a factor of 1.0 leaves every bit as it is
    hx = 0.5 if math.isinf(x1 - x0) else 1.0
    hy = 0.5 if math.isinf(y1 - y0) else 1.0
    ox, oy = x0 * hx, y0 * hy
    dx = (x1 * hx - ox) or 1.0
    dy = (y1 * hy - oy) or 1.0
    span = CANVAS - 2 * MARGIN

    def to_canvas(p):
        u = MARGIN + (p[0] * hx - ox) / dx * span
        v = CANVAS - MARGIN - (p[1] * hy - oy) / dy * span
        return u, v

    return to_canvas, (x0, x1, y0, y1)


def _path(points: list[tuple[float, float]]) -> str:
    parts = [f"M {fmt(points[0][0])} {fmt(points[0][1])}"]
    parts.extend(f"L {fmt(u)} {fmt(v)}" for u, v in points[1:])
    return " ".join(parts)


def _svg(body: list[str]) -> str:
    """The document: a white canvas, the grey plot frame, then body."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS)}" '
        f'height="{int(CANVAS)}" viewBox="0 0 {int(CANVAS)} {int(CANVAS)}">'
    )
    canvas = f'<rect x="0" y="0" width="{int(CANVAS)}" height="{int(CANVAS)}" fill="white"/>'
    frame = (
        f'<rect x="{fmt(MARGIN)}" y="{fmt(MARGIN)}" width="{fmt(CANVAS - 2 * MARGIN)}" '
        f'height="{fmt(CANVAS - 2 * MARGIN)}" fill="none" stroke="#cccccc"/>'
    )
    return "\n".join([head, canvas, frame, *body, "</svg>"]) + "\n"


def trajectory_svg(
    rows: list[tuple[float, float, float, float]],
    projection: str = "iso",
    markers: Optional[list[tuple[str, tuple[float, float, float]]]] = None,
) -> str:
    """Polyline phase portrait of CSV rows (t, X, Y, Z)."""
    if projection not in _PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    (xa, ya), to_plane = _PROJECTIONS[projection]
    pts = [to_plane(*r[1:4]) for r in rows]
    marker_pts = [(lbl, to_plane(*s[:3])) for lbl, s in (markers or [])]
    to_canvas, (x0, x1, y0, y1) = _scaler(pts + [p for _, p in marker_pts])

    body = [
        f'<text x="{fmt(CANVAS / 2)}" y="{fmt(CANVAS - MARGIN / 3)}" '
        f'text-anchor="middle" font-size="14">{xa} in [{fmt(x0)}, {fmt(x1)}]</text>',
        f'<text x="{fmt(MARGIN / 3)}" y="{fmt(CANVAS / 2)}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 {fmt(MARGIN / 3)} {fmt(CANVAS / 2)})">'
        f"{ya} in [{fmt(y0)}, {fmt(y1)}]</text>",
        f'<path d="{_path([to_canvas(p) for p in pts])}" fill="none" '
        'stroke="#1f5fa8" stroke-width="0.8"/>',
    ]
    for lbl, p in marker_pts:
        u, v = to_canvas(p)
        body.append(f'<circle cx="{fmt(u)}" cy="{fmt(v)}" r="4" fill="#c03020"/>')
        body.append(
            f'<text x="{fmt(u + 7)}" y="{fmt(v + 4)}" font-size="13">{lbl}</text>'
        )
    return _svg(body)


def frame_svg(frame: LevelSetFrame) -> str:
    """One level-set frame on a fixed [-box, box]^2 viewBox."""
    b = frame.box
    to_canvas, _ = _scaler([(-b, -b), (b, b)])
    body = [
        f'<text x="{fmt(CANVAS / 2)}" y="{fmt(MARGIN / 2)}" text-anchor="middle" '
        f'font-size="15">x^2 - y^2 = {fmt(frame.t)}'
        f'{" (degenerate)" if frame.degenerate else ""}</text>',
    ]
    for pl in frame.polylines:
        body.append(
            f'<path d="{_path([to_canvas(p) for p in pl])}" fill="none" '
            'stroke="#1f5fa8" stroke-width="1.2"/>'
        )
    return _svg(body)
