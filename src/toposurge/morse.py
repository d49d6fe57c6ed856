"""Level sets of the saddle x^2 - y^2 = t, extracted by marching squares.

The sweep over t shows the reconnection event of a 0-surgery: two branches
for t < 0, the singular crossing at t = 0, two branches again for t > 0 but
rotated a quarter turn.  The grid extraction cannot represent the exact
node, so frames within grid tolerance of the saddle value are flagged
``degenerate`` instead of being given a fake branch count.

Surgery's junction walk chains the segments at the grid edges, so a frame's
curve is a canonical ``OneManifold`` with chains only.  No component closes
up: along a grid row x^2 - y^2 - t grows with |x| and along a column it
falls as |y| grows, in rounded arithmetic too, so every node reaches the
box edge through nodes of its sign and no sign region is enclosed.  The
frames are field lines at an X-point (Priest & Forbes 2000).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

from .manifolds import OneManifold
from .surgery import _curve

Point = tuple[float, float]
Segment = tuple[tuple[tuple, Point], tuple[tuple, Point]]  # 2 x (grid edge, point)

# A frame's time grows as resolution^2: at 2048, about 1 s a frame on a
# 2-vCPU host, with two grid rows held at a time.  Larger grids are refused
# before any is built.
MAX_RESOLUTION = 2048


@dataclass(frozen=True)
class LevelSetFrame:
    t: float
    box: float
    resolution: int
    polylines: tuple[tuple[Point, ...], ...]

    @property
    def branch_count(self) -> int:
        """The component count of the frame's curve, one polyline each."""
        return len(self.polylines)

    @property
    def grid_tolerance(self) -> float:
        h = 2.0 * self.box / self.resolution
        return h * h

    @property
    def degenerate(self) -> bool:
        return abs(self.t) <= self.grid_tolerance


def morse_frames(
    t_values: Iterable[float], box: float = 2.0, resolution: int = 64
) -> list[LevelSetFrame]:
    """Marching-squares extraction of {x^2 - y^2 = t} inside [-box, box]^2,
    one frame per t of the iterable t_values."""
    try:
        t_values = tuple(t_values)
    except TypeError:
        raise ValueError("t values must be an iterable of real numbers") from None
    if not t_values:
        raise ValueError("empty t list")
    if not isinstance(box, Real) or not all(isinstance(t, Real) for t in t_values):
        raise ValueError("box and t values must be real numbers")
    t_values = [float(t) for t in t_values]
    if not all(math.isfinite(t) for t in t_values):
        raise ValueError("t values must be finite")
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError("resolution must be an integer") from None
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {MAX_RESOLUTION}")
    if not 0 < box < math.inf:
        raise ValueError("box must be positive and finite")
    # |x^2 - y^2 - t| <= box^2 + |t|; only a frame with |t| <= box^2 changes
    # sign, and only there does interpolation subtract two such values
    b2 = box * box
    if not all(math.isfinite((b2 + abs(t)) * (2.0 if abs(t) <= b2 else 1.0)) for t in t_values):
        raise ValueError("box and t are too large: x^2 - y^2 - t overflows")
    return [_extract_frame(t, box, resolution) for t in t_values]


def _extract_frame(t: float, box: float, resolution: int) -> LevelSetFrame:
    segments = _scan(t, box, resolution)
    # chains only: no component closes up (see the module docstring)
    polylines = [_polyline(segments, chain) for chain in _frame_curve(segments).chains]
    polylines.sort(key=lambda pl: (len(pl), pl))
    return LevelSetFrame(t, box, resolution, tuple(polylines))


def _scan(t: float, box: float, resolution: int) -> list[Segment]:
    """The marching-squares segments, in scan order."""
    n = resolution
    h = 2.0 * box / n
    xs = [-box + i * h for i in range(n + 1)]
    sq = [x * x for x in xs]

    # corner values x^2 - y^2 - t, one grid row (one x, every y) at a time,
    # each with its row of signs; exact zeros are nudged positive so that
    # contours never pass through grid nodes and a junction is one grid edge
    tiny = 1e-300
    vals1 = [(sq[0] - yy - t) or tiny for yy in sq]
    pos1 = [v > 0 for v in vals1]

    segments: list[Segment] = []

    for i in range(n):
        vals0, pos0 = vals1, pos1
        xx = sq[i + 1]
        vals1 = [(xx - yy - t) or tiny for yy in sq]
        pos1 = [v > 0 for v in vals1]
        for j in range(n):
            s0 = pos0[j]
            s1 = pos1[j]
            s2 = pos1[j + 1]
            s3 = pos0[j + 1]
            if s0 == s1 == s2 == s3:  # no contour: only crossed cells build crossings
                continue
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            vals = (vals0[j], vals1[j], vals1[j + 1], vals0[j + 1])
            signs = (s0, s1, s2, s3)
            # cell edges by corner index pair
            crossings = []
            for ca, cb in ((0, 1), (1, 2), (2, 3), (3, 0)):
                if signs[ca] != signs[cb]:
                    (ia, ja), (ib, jb) = corners[ca], corners[cb]
                    eid = ((ia, ja), (ib, jb)) if (ia, ja) < (ib, jb) else ((ib, jb), (ia, ja))
                    v0 = vals[ca]
                    s = v0 / (v0 - vals[cb])
                    crossings.append(
                        (eid, (xs[ia] + s * (xs[ib] - xs[ia]), xs[ja] + s * (xs[jb] - xs[ja]))))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            else:
                # ambiguous saddle cell: split by the sign of the centre
                # value; the crossings lie on cell edges 0..3 in order
                cx = 0.25 * sum(vals)
                if (cx > 0) == s0:
                    pairing = [(0, 3), (1, 2)]
                else:
                    pairing = [(0, 1), (2, 3)]
                for p, q in pairing:
                    segments.append((crossings[p], crossings[q]))

    return segments


def _frame_curve(segments: list[Segment]) -> OneManifold:
    """The curve of one arc per segment, joined at grid edges; a box edge is a free end."""
    return _curve({si: (a[0], b[0]) for si, (a, b) in enumerate(segments)})


def _polyline(segments: list[Segment], chain: tuple[int, ...]) -> tuple[Point, ...]:
    """A chain's points, its least segment S run from crossing a to b; a shared
    crossing, which its two cells may round apart, comes from the one nearer S."""
    p = chain.index(min(chain))
    (a, pa), (b, pb) = segments[chain[p]]
    far = {a: [], b: []}  # the points met leaving S at a, and at b
    for arcs in (chain[:p][::-1], chain[p + 1:]):
        key = a if arcs and a in dict(segments[arcs[0]]) else b
        points = far[key]
        for si in arcs:
            (e, x), (f, y) = segments[si]
            key, point = (f, y) if e == key else (e, x)
            points.append(point)
    return tuple(far[a][::-1] + [pa, pb] + far[b])
