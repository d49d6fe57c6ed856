"""Layered (solid) surgery: the same cut performed on every shell at once.

A solid manifold is modeled as concentric layers (circles of a disc,
spheres of a ball, tori of a solid torus) plus the degenerate central
object, which gets its own limit rule: drilling a ball turns its centre
point into a circle, splitting a ball turns it into two points, and the
dual operations collapse those back to a point.  Layers are combinatorial
manifolds; radii are bookkeeping, not geometry.
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

    def layer_types(self) -> set[str]:
        return {l.layer_type for l in self.layers}


def classify_layer(m: Union[OneManifold, Surface]) -> str:
    """Name the homeomorphism type of a layer from its invariants."""
    rep = invariants(m)
    if isinstance(m, OneManifold):
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


# ---------------------------------------------------------------------------
# canonical per-layer surgeries
# ---------------------------------------------------------------------------

def _layer_circle() -> OneManifold:
    return circle(8)

def _cut_circle(m: OneManifold) -> OneManifold:
    return surgery_1d_0(m, CurveSite((0, 4)), GluingMap())

def _layer_two_circles() -> OneManifold:
    return two_circles(4, 4)

def _join_two_circles(m: OneManifold) -> OneManifold:
    return surgery_1d_0(m, CurveSite((1, 5)), GluingMap())

def _layer_sphere() -> Surface:
    return globe(_GLOBE_RINGS, _GLOBE_SEG)

def _polar_site() -> DiscPairSite:
    return DiscPairSite(
        globe_north_cap(_GLOBE_SEG), globe_south_cap(_GLOBE_RINGS, _GLOBE_SEG)
    )

def _drill_sphere(s: Surface) -> tuple[Surface, tuple[int, ...]]:
    return attach_tube(s, _polar_site(), GluingMap())

def _split_sphere(s: Surface) -> Surface:
    return surgery_2d_1(s, AnnulusSite(globe_band(1, _GLOBE_SEG)), GluingMap())

def _join_two_spheres(s: Surface) -> Surface:
    return surgery_2d_0(s, find_disc_pair(s), GluingMap())


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def solid_surgery(
    kind: str, n_layers: int, direction: str = "forward"
) -> tuple[SolidFamily, SolidFamily]:
    """Build the canonical layered family and apply the surgery layerwise.

    Returns (input family, output family).  Radii follow the uniform
    schedule i/n; the outermost layer always has radius 1.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")

    radii = [(i + 1) / n_layers for i in range(n_layers)]

    if kind == "solid_1d_0":
        if direction == "forward":
            ins = [_layer_circle() for _ in radii]
            outs = [_cut_circle(m) for m in ins]
            lim_in, lim_out = "point", "two_points"
        else:
            ins = [_layer_two_circles() for _ in radii]
            outs = [_join_two_circles(m) for m in ins]
            lim_in, lim_out = "two_points", "point"
    elif kind == "solid_2d_0":
        if direction == "forward":
            ins = [_layer_sphere() for _ in radii]
            outs = [_drill_sphere(m)[0] for m in ins]
            lim_in, lim_out = "point", "circle"
        else:
            pairs = [_drill_sphere(_layer_sphere()) for _ in radii]
            ins = [t for t, _ in pairs]
            outs = [
                surgery_2d_1(t, AnnulusSite(band), GluingMap())
                for t, band in pairs
            ]
            lim_in, lim_out = "circle", "point"
    else:  # solid_2d_1
        if direction == "forward":
            ins = [_layer_sphere() for _ in radii]
            outs = [_split_sphere(m) for m in ins]
            lim_in, lim_out = "point", "two_points"
        else:
            ins = [_split_sphere(_layer_sphere()) for _ in radii]
            outs = [_join_two_spheres(m) for m in ins]
            lim_in, lim_out = "two_points", "point"

    fam_in = SolidFamily(
        kind,
        "input",
        direction,
        tuple(Layer(r, m, classify_layer(m)) for r, m in zip(radii, ins)),
        lim_in,
    )
    fam_out = SolidFamily(
        kind,
        "output",
        direction,
        tuple(Layer(r, m, classify_layer(m)) for r, m in zip(radii, outs)),
        lim_out,
    )
    return fam_in, fam_out


# ---------------------------------------------------------------------------
# meridional cross-sections
# ---------------------------------------------------------------------------

_SECTION_OF_LAYER = {
    # layer type -> number of section circles
    "sphere": 1,
    "torus": 2,
    "two_spheres": 2,
    "circle": 1,
    "two_circles": 2,
}

_SECTION_OF_LIMIT = {
    "point": "point",
    "circle": "two_points",
    "two_points": "two_points",
}


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


def _reference_stage(role: str, direction: str) -> tuple[str, str]:
    """Layer type and limit of the solid 1-dimensional family at a stage."""
    split_stage = (role == "output") == (direction == "forward")
    if split_stage:
        return "two_circles", "two_points"
    return "circle", "point"


def cross_section_check(f: SolidFamily) -> SectionReport:
    """Compare each layer's meridional section against the one-dimension-
    lower solid surgery at the same stage: sphere layers cut to one circle,
    torus and split-sphere layers to two, and the limit objects obey
    point -> point, circle -> two points."""
    if f.kind not in KINDS:
        raise ValueError(f"unsupported kind {f.kind!r}")
    ref_layer, ref_limit = _reference_stage(f.role, f.direction)
    expected = _SECTION_OF_LAYER[ref_layer]

    entries = []
    for layer in f.layers:
        if layer.layer_type not in _SECTION_OF_LAYER:
            raise ValueError(f"layer type {layer.layer_type!r} has no section rule")
        got = _SECTION_OF_LAYER[layer.layer_type]
        entries.append(
            SectionEntry(layer.radius, layer.layer_type, got, expected, got == expected)
        )

    limit_section = _SECTION_OF_LIMIT[f.limit]
    expected_limit = _SECTION_OF_LIMIT[ref_limit]
    return SectionReport(
        kind=f.kind,
        entries=tuple(entries),
        limit_section=limit_section,
        expected_limit=expected_limit,
        limit_match=limit_section == expected_limit,
    )
