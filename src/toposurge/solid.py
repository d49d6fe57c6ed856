"""Layered (solid) surgery: the same cut performed on every shell at once.

A solid manifold is modeled as concentric layers (circles of a disc,
spheres of a ball, tori of a solid torus) plus the degenerate central
object, which gets its own limit rule: drilling a ball turns its centre
point into a circle, splitting a ball turns it into two points, and the
dual operations collapse those back to a point.  Layers are combinatorial
manifolds; radii are bookkeeping, not geometry.  Every layer is the same
complex, so a family is one complex and its radii, and one surgery serves
every radius.  One table, :data:`_SHAPES`, keyed by what an invariants read
of that complex certifies, gives a family its layer type, limit and
meridional section when it is built.  It names the five shapes that solid
surgery makes; any other layer is ``other``, with no limit and no section.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Union

from .manifolds import (
    OneManifold,
    Surface,
    circle,
    globe,
    globe_band,
    globe_north_cap,
    globe_south_cap,
    invariants,
    two_circles,
)
from .surgery import (
    AnnulusSite,
    CurveSite,
    DiscPairSite,
    GluingMap,
    attach_tube,
    find_disc_pair,
    surgery_1d_0,
    surgery_2d_0,
    surgery_2d_1,
)

KINDS = ("solid_1d_0", "solid_2d_0", "solid_2d_1")
DIRECTIONS = ("forward", "dual")

# solid-demo writes every layer's complex: 1,000 layers are 6.5 MB of JSON
MAX_LAYERS = 1000


# (is a curve, components, Euler characteristic, orientable) -> (layer type,
# the centre object the layers shrink to, circles of a meridional section).
# A chain counts 1 in a curve's chi and a cycle 0.  A closed orientable
# surface of c components has chi at most 2c, reached only when each is a
# sphere, and one of chi 0 is a torus.
_SHAPES = {
    (True, 1, 0, True): ("circle", "point", 1),
    (True, 2, 0, True): ("two_circles", "two_points", 2),
    (False, 1, 2, True): ("sphere", "point", 1),
    (False, 1, 0, True): ("torus", "circle", 2),
    (False, 2, 4, True): ("two_spheres", "two_points", 2),
}


@dataclass(frozen=True)
class SolidFamily:
    """The complex ``layer`` at every radius of ``radii``.

    ``layer_type``, the centre object ``limit`` that the layers shrink to
    and ``section_circles``, the circles of a meridional section, are the
    :data:`_SHAPES` row of ``layer``, read once, when the family is built.
    """

    kind: str
    role: str  # 'input' | 'output'
    direction: str  # 'forward' | 'dual'
    radii: tuple[float, ...]
    layer: Union[OneManifold, Surface]
    layer_type: str = field(init=False)
    limit: Optional[str] = field(init=False)  # 'point' | 'circle' | 'two_points'
    section_circles: Optional[int] = field(init=False)

    def __post_init__(self):
        rep = invariants(self.layer)
        key = (isinstance(self.layer, OneManifold), rep.components,
               rep.euler_characteristic, rep.orientable)
        row = _SHAPES.get(key, ("other", None, None))
        for name, value in zip(("layer_type", "limit", "section_circles"), row):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# one surgery per family: (input layer, output layer)
# ---------------------------------------------------------------------------

def _cut_circle() -> tuple[OneManifold, OneManifold]:
    c = circle(8)
    return c, surgery_1d_0(c, CurveSite((0, 4)), GluingMap())


def _join_two_circles() -> tuple[OneManifold, OneManifold]:
    cs = two_circles(4, 4)
    return cs, surgery_1d_0(cs, CurveSite((1, 5)), GluingMap())


def _drill_sphere() -> tuple[Surface, Surface, tuple[int, ...]]:
    """(sphere, the torus drilled along its polar axis, the tube's band)."""
    s = globe()
    polar = DiscPairSite(globe_north_cap(), globe_south_cap())
    return (s, *attach_tube(s, polar, GluingMap()))


def _fill_drilled_sphere() -> tuple[Surface, Surface]:
    _, t, band = _drill_sphere()
    return t, surgery_2d_1(t, AnnulusSite(band), GluingMap())


def _split_sphere() -> tuple[Surface, Surface]:
    s = globe()
    return s, surgery_2d_1(s, AnnulusSite(globe_band(1)), GluingMap())


def _join_two_spheres() -> tuple[Surface, Surface]:
    _, ss = _split_sphere()
    return ss, surgery_2d_0(ss, find_disc_pair(ss), GluingMap())


_SURGERY = {
    ("solid_1d_0", "forward"): _cut_circle,
    ("solid_1d_0", "dual"): _join_two_circles,
    ("solid_2d_0", "forward"): lambda: _drill_sphere()[:2],
    ("solid_2d_0", "dual"): _fill_drilled_sphere,
    ("solid_2d_1", "forward"): _split_sphere,
    ("solid_2d_1", "dual"): _join_two_spheres,
}


def solid_surgery(
    kind: str, n_layers: int, direction: str = "forward"
) -> tuple[SolidFamily, SolidFamily]:
    """The (input family, output family) of the solid surgery ``kind``.

    Radii follow the uniform schedule i/n; the outermost layer always has
    radius 1.  The surgery runs once: its input and output are the layers
    at every radius.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    try:
        n_layers = operator.index(n_layers)
    except TypeError:
        raise ValueError("n_layers must be an integer") from None
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if n_layers > MAX_LAYERS:
        raise ValueError(f"n_layers must be <= {MAX_LAYERS}")

    radii = tuple((i + 1) / n_layers for i in range(n_layers))
    return tuple(
        SolidFamily(kind, role, direction, radii, m)
        for role, m in zip(("input", "output"), _SURGERY[kind, direction]())
    )


# ---------------------------------------------------------------------------
# meridional cross-sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionReport:
    """A family's meridional section, the same at every radius, beside the
    one-dimension-lower surgery's at the same stage."""

    kind: str
    radii: tuple[float, ...]
    layer_type: str
    section_circles: int
    expected_circles: int
    limit_section: str
    expected_limit: str

    @property
    def match(self) -> bool:
        return (self.section_circles == self.expected_circles
                and self.limit_section == self.expected_limit)


def _limit_section(limit: str) -> str:
    """A meridional plane meets a centre point in a point, and a centre
    circle or two centre points in two points."""
    return "point" if limit == "point" else "two_points"


def cross_section_check(f: SolidFamily) -> SectionReport:
    """Compare the family's meridional section against the one-dimension-
    lower solid surgery at the same stage: sphere layers cut to one circle,
    torus and split-sphere layers to two, and the limit objects obey
    point -> point, circle -> two points."""
    if f.kind not in KINDS:
        raise ValueError(f"unsupported kind {f.kind!r}")
    if f.section_circles is None:
        raise ValueError(f"layer type {f.layer_type!r} has no section rule")
    ref = solid_surgery("solid_1d_0", 1, f.direction)[f.role == "output"]
    return SectionReport(
        kind=f.kind,
        radii=f.radii,
        layer_type=f.layer_type,
        section_circles=f.section_circles,
        expected_circles=ref.section_circles,
        limit_section=_limit_section(f.limit),
        expected_limit=_limit_section(ref.limit),
    )
