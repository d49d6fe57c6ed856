"""Layered (solid) surgery: the same cut performed on every shell at once.

A solid manifold is modeled as concentric layers (circles of a disc,
spheres of a ball, tori of a solid torus) plus the degenerate central
object, which gets its own limit rule: drilling a ball turns its centre
point into a circle, splitting a ball turns it into two points, and the
dual operations collapse those back to a point.  Layers are combinatorial
manifolds; radii are bookkeeping, not geometry.  Every layer is the same
complex, so a family is one complex and its radii, and one surgery serves
every radius.  A family reads its layer type, limit and meridional section
off one invariants read of that complex, when it is built: a circle or
sphere shrinks to a point and a torus to its core circle, and a section has
one circle per component plus one per handle.
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

_GLOBE_RINGS = 3
_GLOBE_SEG = 6
# solid-demo writes every layer's complex: 1,000 layers are 6.5 MB of JSON
MAX_LAYERS = 1000


@dataclass(frozen=True)
class SolidFamily:
    """The complex ``layer`` at every radius of ``radii``.

    ``layer_type``, the centre object ``limit`` that the layers shrink to
    and ``section_circles``, the circles of a meridional section, are read
    off ``layer`` once, when the family is built (see :func:`_read`).
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
        for name, value in zip(("layer_type", "limit", "section_circles"), _read(self.layer)):
            object.__setattr__(self, name, value)


def _read(m: Union[OneManifold, Surface]) -> tuple[str, Optional[str], Optional[int]]:
    """(type, limit, section circles) of layer m from one invariants read.

    The type names m's homeomorphism class.  The limit is what the solid
    filled by m shrinks to: a circle or sphere bounds a disc or ball, which
    shrinks to a point, and a torus bounds a solid torus, which shrinks to
    its core circle; any other shape has None.  A meridional section has one
    circle per component plus one per handle; the rule covers orientable
    layers whose section has at most two circles, and any other has None.
    """
    rep = invariants(m)
    components, chi = rep.components, rep.euler_characteristic
    handles = sum(rep.genus or ())  # a 1-manifold has no handles
    if isinstance(m, OneManifold):  # a chain counts 1 in chi, a cycle 0
        name = "other" if chi else {1: "circle", 2: "two_circles"}.get(
            components, f"{components}_circles")
    else:  # chi 2 a component holds only on a sphere, so those keys are orientable
        name = {(1, 2, True): "sphere", (1, 0, True): "torus", (2, 4, True): "two_spheres"}.get(
            (components, chi, rep.orientable), "other")
    limit = {(1, 0): "point", (2, 0): "two_points", (1, 1): "circle"}.get((components, handles))
    circles = components + handles
    return name, limit, circles if rep.orientable and circles <= 2 else None


def classify_layer(m: Union[OneManifold, Surface]) -> str:
    """Name the homeomorphism type of a layer from its invariants."""
    return _read(m)[0]


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
    s = globe(_GLOBE_RINGS, _GLOBE_SEG)
    polar = DiscPairSite(
        globe_north_cap(_GLOBE_SEG), globe_south_cap(_GLOBE_RINGS, _GLOBE_SEG)
    )
    return (s, *attach_tube(s, polar, GluingMap()))


def _fill_drilled_sphere() -> tuple[Surface, Surface]:
    _, t, band = _drill_sphere()
    return t, surgery_2d_1(t, AnnulusSite(band), GluingMap())


def _split_sphere() -> tuple[Surface, Surface]:
    s = globe(_GLOBE_RINGS, _GLOBE_SEG)
    return s, surgery_2d_1(s, AnnulusSite(globe_band(1, _GLOBE_SEG)), GluingMap())


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
