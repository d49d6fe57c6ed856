"""Cut-and-glue operations on combinatorial manifolds.

1-dimensional 0-surgery removes two arcs from a curve and reconnects the
four loose ends either straight (two circles from one) or crosswise (one
circle).  It works on one junction map, the same for circles and
segments: each arc goes from its tail junction to its head junction, a
junction is named by the arc that leaves it, and a segment's far end by
a 1-tuple of its last arc.  Surgery swaps the two site arcs of the map
for two fresh ones, and one walk reads the curve back; it also chains the
level-set frames of :mod:`toposurge.morse`, at grid edges.

2-dimensional 0-surgery swaps a pair of disc sites for a tube;
2-dimensional 1-surgery swaps an annulus site for two cone caps.  Both are
built on the boundary cycles that site validation returns: a hole's
boundary is its site's cycle run the other way, so the discs' boundaries
may have any lengths and the surface need not be orientable.  Gluings
carry a rotation offset and an optional orientation reversal; the reversal
is an extension beyond the rotations the source material uses (it produces
non-orientable results and exists as a deliberate negative test surface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .manifolds import (
    OneManifold,
    Surface,
    Triangle,
    _flood,
    _pair_sides,
    _replaced,
)


class InvalidSite(ValueError):
    """Raised when a surgery site fails validation."""


@dataclass(frozen=True)
class GluingMap:
    """Boundary identification: rotate by ``rotation`` arcs/edges and
    reverse direction iff ``orientation_flip``."""

    rotation: int = 0
    orientation_flip: bool = False


@dataclass(frozen=True)
class CurveSite:
    """The two removed arcs of a 1-dimensional 0-surgery."""

    arcs: tuple[int, int]


@dataclass(frozen=True)
class DiscPairSite:
    """Two disjoint disc-shaped triangle sets (indices into the surface)."""

    disc_a: tuple[int, ...]
    disc_b: tuple[int, ...]


@dataclass(frozen=True)
class AnnulusSite:
    """An annulus-shaped triangle set (indices into the surface)."""

    triangles: tuple[int, ...]


# ---------------------------------------------------------------------------
# 1-dimensional 0-surgery
# ---------------------------------------------------------------------------

def surgery_1d_0(m: OneManifold, site: CurveSite, g: GluingMap) -> OneManifold:
    """Remove the two site arcs and reconnect the four endpoints.

    With ``orientation_flip=False`` each loose piece is closed straight
    (one circle becomes two); with ``orientation_flip=True`` the ends are
    joined crosswise (one circle stays one circle, with a half twist).
    """
    if len(site.arcs) != 2:
        raise InvalidSite("1-dimensional site needs exactly 2 arcs")
    a, b = site.arcs
    if a == b:
        raise InvalidSite("site arcs must be distinct")
    ends = _junctions(m)
    if a not in ends or b not in ends:
        raise InvalidSite("site arcs missing from the manifold")
    fresh = max(ends) + 1
    u1, u2 = ends.pop(a)
    u3, u4 = ends.pop(b)
    if {u1, u2} & {u3, u4}:
        raise InvalidSite("site arcs are adjacent; removed segments must be disjoint")
    if g.orientation_flip:
        ends[fresh], ends[fresh + 1] = (u1, u3), (u2, u4)
    else:
        ends[fresh], ends[fresh + 1] = (u2, u3), (u4, u1)
    return _curve(ends)


def _junctions(m: OneManifold) -> dict[int, tuple]:
    """Each arc of m mapped to its (tail, head) junction.

    A junction is named by the arc that leaves it, so an arc's tail is its
    own id.  The free end of a chain's last arc x has no arc leaving it and
    is named ``(x,)``, a tuple that no arc id equals.
    """
    ends: dict[int, tuple] = {}
    n_cycles = len(m.cycles)
    for i, path in enumerate(m.cycles + m.chains):
        last = path[0] if i < n_cycles else (path[-1],)
        ends.update(zip(path, zip(path, path[1:] + (last,))))
    return ends


def _curve(ends: dict[int, tuple]) -> OneManifold:
    """The curve whose arcs join the junctions of ``ends``, in canonical form.

    The chains are walked from their free ends (the junctions that only one
    arc meets), then what is left is walked as cycles.  Each chain reads
    from its lesser end arc, each cycle from its least arc toward the lesser
    of its two neighbours, and both lists are sorted, so the result does not
    depend on the way the walk ran.
    """
    at: dict = {}  # junction -> the arcs that meet there
    for arc, (t, h) in ends.items():
        at.setdefault(t, []).append(arc)
        at.setdefault(h, []).append(arc)
    seen: set[int] = set()

    def walk(arc, node) -> list[int]:
        """The arcs met leaving junction ``node`` along ``arc``, up to a free
        end or back to an arc already walked."""
        path = []
        while arc not in seen:
            seen.add(arc)
            path.append(arc)
            t, h = ends[arc]
            node = h if node == t else t
            arc = next((x for x in at[node] if x != arc), arc)
        return path

    chains = []
    for node, arcs in at.items():
        if len(arcs) == 1 and arcs[0] not in seen:
            path = walk(arcs[0], node)
            chains.append(tuple(min(path, path[::-1])))
    cycles = []
    for arc in sorted(ends):  # so each cycle is entered at its least arc
        if arc not in seen:
            path = walk(arc, ends[arc][0])
            cycles.append(tuple(min(path, path[:1] + path[:0:-1])))
    return OneManifold(tuple(sorted(cycles)), tuple(sorted(chains)))


# ---------------------------------------------------------------------------
# site validation on surfaces
# ---------------------------------------------------------------------------

def _subcomplex_boundary(
    tris: Sequence[Triangle], twin: list[int], edges: dict[int, int]
) -> list[list[int]]:
    """Directed boundary cycles of a sub-complex whose sides
    :func:`_pair_sides` paired as ``twin`` and ``edges``, or raise if
    malformed."""
    for r in edges.values():
        x = twin[r]
        if x >= 0 and twin[x >> 1] >> 1 != r:
            raise InvalidSite("site sub-complex has an edge in more than 2 triangles")
    # directed boundary edges are the unpaired sides, in triangle order
    succ: dict[int, int] = {}
    for k, x in enumerate(twin):
        if x < 0:
            t = tris[k // 3]
            u = t[k % 3]
            if u in succ:
                raise InvalidSite("site boundary is not a disjoint union of simple cycles")
            succ[u] = t[k % 3 - 2]
    cycles: list[list[int]] = []
    remaining = dict(succ)
    while remaining:
        start = min(remaining)
        cyc = [start]
        node = remaining.pop(start)
        while node != start:
            cyc.append(node)
            if node not in remaining:
                raise InvalidSite("site boundary does not close up")
            node = remaining.pop(node)
        cycles.append(cyc)
    return cycles


def _check_site(
    s: Surface, indices: Sequence[int], label: str, chi: int, n_boundary: int
) -> list[list[int]]:
    """Check that triangles ``indices`` of s form an edge-connected
    sub-complex with Euler characteristic ``chi`` and ``n_boundary``
    boundary cycles; return the cycles, directed as the sub-complex sees
    them."""
    for idx in indices:
        if not (0 <= idx < len(s.triangles)):
            raise InvalidSite(f"triangle index {idx} out of range")
    if not indices:
        raise InvalidSite(f"{label}: empty triangle set")
    tris = [s.triangles[i] for i in indices]
    twin, edges = _pair_sides(tris, range(len(tris)), s.n_vertices)
    if max(_flood(tris, twin)[0]) != 0:
        raise InvalidSite(f"{label}: not edge-connected")
    if len({v for t in tris for v in t}) - len(edges) + len(tris) != chi:
        raise InvalidSite(f"{label}: Euler characteristic != {chi}")
    cycles = _subcomplex_boundary(tris, twin, edges)
    if len(cycles) != n_boundary:
        raise InvalidSite(f"{label}: {len(cycles)} boundary cycles, expected {n_boundary}")
    return cycles


def validate_disc_pair(s: Surface, site: DiscPairSite) -> tuple[list[int], list[int]]:
    """Check the two-disc site and return the two boundary cycles, directed
    as the *removed* discs see them (i.e. following disc orientation)."""
    if set(site.disc_a) & set(site.disc_b):
        raise InvalidSite("the two discs share triangles")
    (cyc_a,) = _check_site(s, site.disc_a, "disc A", 1, 1)
    (cyc_b,) = _check_site(s, site.disc_b, "disc B", 1, 1)
    va = {v for i in site.disc_a for v in s.triangles[i]}
    vb = {v for i in site.disc_b for v in s.triangles[i]}
    if va & vb:
        raise InvalidSite("discs share vertices")
    # an edge joins the discs iff some triangle has a vertex in each: the
    # edge lies in a triangle, and a triangle's vertices are pairwise joined
    for a, b, c in s.triangles:
        if (a in va or b in va or c in va) and (a in vb or b in vb or c in vb):
            raise InvalidSite("discs are adjacent (an edge joins them)")
    return cyc_a, cyc_b


def validate_annulus(s: Surface, site: AnnulusSite) -> tuple[list[int], list[int]]:
    cyc_a, cyc_b = _check_site(s, site.triangles, "annulus", 0, 2)
    if set(cyc_a) & set(cyc_b):
        raise InvalidSite("annulus: boundary cycles share vertices")
    return cyc_a, cyc_b


# ---------------------------------------------------------------------------
# 2-dimensional surgeries
# ---------------------------------------------------------------------------

def _tube_triangles(
    cycle_a: list[int], cycle_b: list[int], g: GluingMap
) -> list[Triangle]:
    """Triangulated cylinder joining two disc boundary cycles of lengths n
    and m, in n + m triangles.

    Both cycles are directed as their removed discs see them, so the
    surface around each hole runs it the other way.  The tube runs A as
    given and B backwards from the rotation offset; with
    ``orientation_flip`` it runs B forwards, which breaks coherent
    orientability.  The two sides are zipped (Fuchs, Kedem & Uselton
    1977): after i steps along A and j along B, the next triangle steps
    along A iff (i + 1) / n <= (j + 1) / m, so for n = m the steps
    alternate.
    """
    n, m = len(cycle_a), len(cycle_b)
    sign = 1 if g.orientation_flip else -1
    a = cycle_a + cycle_a[:1]
    b = [cycle_b[(sign * j - g.rotation) % m] for j in range(m + 1)]
    tris: list[Triangle] = []
    i = j = 0
    for _ in range(n + m):
        if (i + 1) * m <= (j + 1) * n:
            tris.append((a[i], a[i + 1], b[j]))
            i += 1
        else:
            tris.append((a[i], b[j + 1], b[j]))
            j += 1
    return tris


def attach_tube(
    s: Surface, site: DiscPairSite, g: GluingMap
) -> tuple[Surface, tuple[int, ...]]:
    """2-dimensional 0-surgery returning also the tube's triangle indices
    (valid in the returned surface; handy for the inverse surgery)."""
    cyc_a, cyc_b = validate_disc_pair(s, site)
    removed = set(site.disc_a) | set(site.disc_b)
    tube = _tube_triangles(cyc_a, cyc_b, g)
    start = len(s.triangles) - len(removed)
    return _replaced(s, removed, tube), tuple(range(start, start + len(tube)))


def surgery_2d_0(s: Surface, site: DiscPairSite, g: GluingMap) -> Surface:
    """Remove two disc sites and glue a tube between the boundary circles."""
    return attach_tube(s, site, g)[0]


def surgery_2d_1(s: Surface, site: AnnulusSite, g: GluingMap) -> Surface:
    """Remove an annulus site and cap the two boundary circles with discs.

    Each cap is a cone from a new apex over the boundary cycle, run against
    the annulus's direction.  The gluing rotation is accepted for symmetry
    with the 0-surgery but a rotated cone cap is the same complex, so it
    cannot change the result.
    """
    cycles = validate_annulus(s, site)
    caps: list[Triangle] = []
    for apex, c in enumerate(cycles, start=s.n_vertices):
        caps.extend((apex, c[-i - 1], c[-i]) for i in range(len(c)))
    return _replaced(s, site.triangles, caps)


# ---------------------------------------------------------------------------
# site search helpers
# ---------------------------------------------------------------------------

def _disc_pairs(s: Surface) -> Iterator[DiscPairSite]:
    """Pairs of single-triangle discs that are vertex-disjoint and
    non-adjacent, lazily, in a deterministic scan order: O(T^2)."""
    tris = s.triangles
    # each vertex with its neighbours; their union over triangle i is the
    # set triangle j must avoid.  It is rebuilt per row: stored per triangle
    # it would raise peak memory.
    closed = [{v} for v in range(s.n_vertices)]
    for a, b, c in tris:
        near_a, near_b, near_c = closed[a], closed[b], closed[c]
        near_a.add(b)
        near_a.add(c)
        near_b.add(a)
        near_b.add(c)
        near_c.add(a)
        near_c.add(b)
    for i, (a, b, c) in enumerate(tris):
        near = closed[a] | closed[b] | closed[c]
        for j in range(i + 1, len(tris)):
            if near.isdisjoint(tris[j]):
                yield DiscPairSite((i,), (j,))


def find_disc_pair(s: Surface) -> DiscPairSite:
    """The first valid single-triangle disc pair in scan order."""
    site = next(_disc_pairs(s), None)
    if site is None:
        raise InvalidSite("no valid disc pair on this surface; refine it first")
    return site


def all_disc_pairs(s: Surface) -> list[DiscPairSite]:
    """Every valid single-triangle disc pair (for exhaustive checks)."""
    return list(_disc_pairs(s))
