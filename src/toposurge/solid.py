"""Layered (solid) surgery: the same cut performed on every shell at once.

A solid manifold is modeled as concentric layers (circles of a disc,
spheres of a ball, tori of a solid torus) plus the degenerate central
object, which gets its own limit rule: drilling a ball turns its centre
point into a circle, splitting a ball turns it into two points, and the
dual operations collapse those back to a point.  Layers are combinatorial
manifolds; radii are bookkeeping, not geometry.  Every layer is the same
complex, so one surgery serves every radius.  The limit and the meridional
sections are read off the invariants of the layer that surgery built: a
circle or sphere shrinks to a point and a torus to its core circle, and a
section has one circle per component plus one per handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
class Layer:
    radius: float
    manifold: Union[OneManifold, Surface]
    layer_type: str


@dataclass(frozen=True)
class SolidFamily:
    kind: str
    role: str  # 'input' | 'output'
    direction: str  # 'forward' | 'dual'
    layers: tuple[Layer, ...]
    limit: str  # 'point' | 'circle' | 'two_points'


def classify_layer(m: Union[OneManifold, Surface]) -> str:
    """Name the homeomorphism type of a layer from its invariants."""
    rep = invariants(m)
    if isinstance(m, OneManifold):
        if rep.euler_characteristic != 0:  # a chain counts 1, a cycle 0
            return "other"
        if rep.components == 1:
            return "circle"
        if rep.components == 2:
            return "two_circles"
        return f"{rep.components}_circles"
    if rep.components == 1 and rep.euler_characteristic == 2:
        return "sphere"
    if rep.components == 1 and rep.euler_characteristic == 0 and rep.orientable:
        return "torus"
    if rep.components == 2 and rep.euler_characteristic == 4:
        return "two_spheres"
    return "other"


def _shape(m: Union[OneManifold, Surface]) -> tuple[int, int, bool]:
    """(components, handles, orientable); a 1-manifold has no handles."""
    rep = invariants(m)
    return rep.components, sum(rep.genus or ()), rep.orientable


def _core(m: Union[OneManifold, Surface]) -> str:
    """What the solid filled by layer m shrinks to: a circle or sphere
    bounds a disc or ball, which shrinks to a point, and a torus bounds a
    solid torus, which shrinks to its core circle."""
    components, handles, _ = _shape(m)
    return {(1, 0): "point", (2, 0): "two_points", (1, 1): "circle"}[components, handles]


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


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def _family(kind: str, role: str, direction: str, radii: list[float],
            m: Union[OneManifold, Surface]) -> SolidFamily:
    layer_type = classify_layer(m)
    layers = tuple(Layer(r, m, layer_type) for r in radii)
    return SolidFamily(kind, role, direction, layers, _core(m))


def solid_surgery(
    kind: str, n_layers: int, direction: str = "forward"
) -> tuple[SolidFamily, SolidFamily]:
    """Build the canonical layered family and apply the surgery layerwise.

    Returns (input family, output family).  Radii follow the uniform
    schedule i/n; the outermost layer always has radius 1.  The surgery
    runs once: its input and output are the layers at every radius.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if n_layers > MAX_LAYERS:
        raise ValueError(f"n_layers must be <= {MAX_LAYERS}")

    radii = [(i + 1) / n_layers for i in range(n_layers)]
    m_in, m_out = _SURGERY[kind, direction]()
    return (
        _family(kind, "input", direction, radii, m_in),
        _family(kind, "output", direction, radii, m_out),
    )


# ---------------------------------------------------------------------------
# meridional cross-sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionEntry:
    radius: float
    layer_type: str
    section_circles: int
    expected_circles: int
    match: bool


@dataclass(frozen=True)
class SectionReport:
    kind: str
    entries: tuple[SectionEntry, ...]
    limit_section: str
    expected_limit: str
    limit_match: bool

    @property
    def match(self) -> bool:
        return self.limit_match and all(e.match for e in self.entries)


def _section_circles(layer: Layer) -> int:
    """Circles in a meridional section of the layer: one per component plus
    one per handle.  The rule covers orientable layers whose section has at
    most two circles."""
    components, handles, orientable = _shape(layer.manifold)
    if not orientable or components + handles > 2:
        raise ValueError(f"layer type {layer.layer_type!r} has no section rule")
    return components + handles


def _limit_section(limit: str) -> str:
    """A meridional plane meets a centre point in a point, and a centre
    circle or two centre points in two points."""
    return "point" if limit == "point" else "two_points"


def cross_section_check(f: SolidFamily) -> SectionReport:
    """Compare each layer's meridional section against the one-dimension-
    lower solid surgery at the same stage: sphere layers cut to one circle,
    torus and split-sphere layers to two, and the limit objects obey
    point -> point, circle -> two points."""
    if f.kind not in KINDS:
        raise ValueError(f"unsupported kind {f.kind!r}")
    ref_in, ref_out = solid_surgery("solid_1d_0", 1, f.direction)
    ref = ref_out if f.role == "output" else ref_in
    expected = _section_circles(ref.layers[0])

    entries = []
    for layer in f.layers:
        got = _section_circles(layer)
        entries.append(
            SectionEntry(layer.radius, layer.layer_type, got, expected, got == expected)
        )

    limit_section = _limit_section(f.limit)
    expected_limit = _limit_section(ref.limit)
    return SectionReport(
        kind=f.kind,
        entries=tuple(entries),
        limit_section=limit_section,
        expected_limit=expected_limit,
        limit_match=limit_section == expected_limit,
    )
