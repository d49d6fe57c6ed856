"""Combinatorial 1-manifolds and triangulated closed surfaces.

Curves are cyclic (or open) sequences of abstract arc identifiers; surfaces
are oriented triangle lists over integer vertices.  Everything here is pure
combinatorics: no coordinates, no geometry.  Validity is checked eagerly on
construction so that downstream cut-and-glue code can assume manifoldness.
The check is one function, run over every vertex when a surface is built
and over the vertices a surgery touched when surgery builds its output
(:func:`_replaced`): the rest of that complex is the already-checked input,
so the local run reaches the full run's verdict.

Triangles meet through one side pairing, :func:`_pair_sides`: each side of
each triangle finds its twin through the integer key u * n + v of its edge,
and a flat list holds, per side, the twin and whether it runs the edge the
opposite way.  The surface check, its link walk, :func:`invariants` and
surgery's site checks all read that list.  The key needs every vertex id
to be an int, so a surface takes an id only if ``operator.index`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence


class InvalidManifold(ValueError):
    """Raised when a curve or surface fails its manifoldness checks."""


# The stock builds refuse sizes above these before they allocate anything.
# On a 2-vCPU host globe(256, 512), at the cell bound, builds and validates
# in about 6 s and 0.2 GB; genus_g(400) takes about 3 s, and its time grows
# as g^2.
MAX_CELLS = 2 ** 18  # arcs of a stock curve, triangles of a stock surface
MAX_GENUS = 400


def _check_cells(n: int, what: str) -> None:
    if n > MAX_CELLS:
        raise InvalidManifold(f"{what} would have {n} cells; at most {MAX_CELLS}")


# ---------------------------------------------------------------------------
# 1-manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneManifold:
    """Disjoint union of circles and segments built from abstract arcs.

    ``cycles`` holds the circles (each a cyclic arc sequence, length >= 2),
    ``chains`` the segments-with-boundary (length >= 1).  Every arc id must
    appear exactly once across the whole structure.
    """

    cycles: tuple[tuple[int, ...], ...]
    chains: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        seen = set()
        n_cycles = len(self.cycles)
        for i, path in enumerate(self.cycles + self.chains):
            if i < n_cycles and len(path) < 2:
                raise InvalidManifold(f"cycle {path} has fewer than 2 arcs")
            if not path:
                raise InvalidManifold("empty chain")
            for a in path:
                if a in seen:
                    raise InvalidManifold(f"arc {a} appears more than once")
                seen.add(a)


def circle(n: int = 6) -> OneManifold:
    if n < 2:
        raise InvalidManifold("a circle needs at least 2 arcs")
    _check_cells(n, "circle")
    return OneManifold(cycles=(tuple(range(n)),))


def two_circles(n: int = 6, m: int = 6) -> OneManifold:
    if n < 2 or m < 2:
        raise InvalidManifold("each circle needs at least 2 arcs")
    _check_cells(n + m, "two_circles")
    return OneManifold(cycles=(tuple(range(n)), tuple(range(n, n + m))))


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

Triangle = tuple[int, int, int]


def _pair_sides(
    tris: Sequence[Triangle], star: Iterable[int], n: int
) -> tuple[list[int], dict[int, int]]:
    """Pair the sides of the triangles ``star`` (indices into ``tris``)
    across their edges.  Every id must be an int in 0..n-1.

    Side k = 3 * ti + i of triangle ti = (a, b, c) runs from its vertex i
    to the next one: a -> b, b -> c, c -> a.  The edge {u, v}, u < v, has
    the key u * n + v.  Returns ``twin`` and ``first``:

    - ``twin[k]`` is 2 * j + o for the side j that k is paired with, o = 1
      iff j runs the edge the opposite way; the neighbour triangle is
      j // 3.  A side alone on its edge, or outside ``star``, has -1.
    - ``first`` maps each edge's key to its first side, in order of first
      appearance.

    Two sides on one edge are each other's twin.  The sides of an edge in
    three or more triangles form one cycle under ``twin``, which keeps them
    connected; their o bits mean nothing.  So the edge whose first side is
    r lies in exactly two triangles iff ``x = twin[r]`` is not -1 and
    ``twin[x >> 1] >> 1 == r``.
    """
    twin = [-1] * (3 * len(tris))
    first: dict[int, int] = {}
    for ti in star:
        a, b, c = tris[ti]
        k = 3 * ti
        r = first.setdefault(a * n + b if a < b else b * n + a, k)
        if r != k:
            x = twin[r]
            o = tris[r // 3][r % 3] == b  # side r starts at b: it runs b -> a
            twin[r] = 2 * k + o
            twin[k] = 2 * r + o if x < 0 else x  # a third side joins r's cycle
        k += 1
        r = first.setdefault(b * n + c if b < c else c * n + b, k)
        if r != k:
            x = twin[r]
            o = tris[r // 3][r % 3] == c
            twin[r] = 2 * k + o
            twin[k] = 2 * r + o if x < 0 else x
        k += 1
        r = first.setdefault(c * n + a if c < a else a * n + c, k)
        if r != k:
            x = twin[r]
            o = tris[r // 3][r % 3] == a
            twin[r] = 2 * k + o
            twin[k] = 2 * r + o if x < 0 else x
    return twin, first


def _flood(tris: Sequence[Triangle], twin: list[int]) -> tuple[list[int], bool]:
    """Flood the triangles across paired sides.  Returns each triangle's
    component, numbered in the order of its lowest triangle index, and
    whether every component can be oriented coherently: two triangles that
    share an edge must traverse it in opposite directions once flipped."""
    comp = [-1] * len(tris)
    flip = [False] * len(tris)
    orientable = True
    n = 0
    for seed in range(len(tris)):
        if comp[seed] >= 0:
            continue
        comp[seed] = n
        stack = [seed]
        while stack:
            ti = stack.pop()
            f = flip[ti]
            k = 3 * ti
            for x in (twin[k], twin[k + 1], twin[k + 2]):
                if x < 0:
                    continue
                # tj keeps ti's flip iff it runs the shared edge the
                # opposite way
                tj = x // 6
                want = f == (x & 1)
                if comp[tj] < 0:
                    comp[tj] = n
                    flip[tj] = want
                    stack.append(tj)
                elif flip[tj] != want:
                    orientable = False
        n += 1
    return comp, orientable


def _walk_links(
    twin: list[int],
    first: dict[int, int],
    count: dict[int, int],
    vertices: Iterable[int],
) -> None:
    """One-ring walk around each of ``vertices`` in turn; raise at the first
    whose link is not a single cycle.  ``first[v]`` is a side that starts
    at v, ``count[v]`` the number of triangles at v, and every edge at v
    lies in exactly two triangles, paired by ``twin``.

    The walk crosses a side at v into the twin's triangle and leaves that
    triangle by its other side at v.  The twin may run the edge either way,
    so the walk holds h = 2 * s + e: side s, with v at its start (e = 1) or
    at its end (e = 0).  Crossing s reaches its twin j, and twin[s] ^ e
    names j with v the same way, since the o bit flips e exactly when j
    runs the edge the other way.  The two sides at a corner are named h
    and h + 3 or h - 3 (side i with v at its start, side i - 1 with v at
    its end), so the walk leaves by y + 3 if y % 6 < 3, else by y - 3."""
    for v in vertices:
        h = start = 2 * first[v] + 1
        steps = 0
        while True:
            y = twin[h >> 1] ^ (h & 1)
            h = y + 3 if y % 6 < 3 else y - 3
            steps += 1
            if h == start:
                break
        if steps != count[v]:
            raise InvalidManifold(f"link of vertex {v} is not a single cycle")


def _check_stars(
    n: int, tris: Sequence[Triangle], star: Iterable[int], touched: range | set[int]
) -> Sequence[Triangle]:
    """The surface check on the stars of the vertices ``touched``, which
    ``star`` lists by triangle index in order.  Raise at the first failure
    of: some triangle at all; each star triangle has three vertex ids that
    ``operator.index`` takes, distinct and in 0..n-1; every touched vertex
    lies in one; every edge at a touched vertex lies in exactly two
    triangles; every touched link is one cycle.  ``touched`` is
    ``range(n)`` for the full check.

    Returns ``tris``; when some row holds an id of another type than int
    (a bool, a numpy integer), a list of the rows with those ids as ints."""
    if not tris:
        raise InvalidManifold("surface with no triangles")
    first: dict[int, int] = {}  # vertex -> the side starting at it in its first star triangle
    count: dict[int, int] = {}  # vertex -> number of star triangles holding it
    as_ints: dict[int, Triangle] = {}  # triangle index -> its row, as ints
    for ti in star:
        t = tris[ti]
        try:
            a, b, c = t
        except (TypeError, ValueError):
            raise InvalidManifold(f"triangle {ti} does not have 3 vertices") from None
        if a.__class__ is not int or b.__class__ is not int or c.__class__ is not int:
            try:
                a, b, c = as_ints[ti] = index(a), index(b), index(c)
            except TypeError:
                raise InvalidManifold(
                    f"triangle {ti} has a vertex id that is not an integer") from None
        if a == b or b == c or c == a:
            raise InvalidManifold(f"degenerate triangle {t}")
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            v = next(v for v in t if not 0 <= v < n)
            raise InvalidManifold(f"vertex {v} out of range in {t}")
        k = 3 * ti
        if a in count:
            count[a] += 1
        else:
            first[a] = k
            count[a] = 1
        if b in count:
            count[b] += 1
        else:
            first[b] = k + 1
            count[b] = 1
        if c in count:
            count[c] += 1
        else:
            first[c] = k + 2
            count[c] = 1
    # any() stops at the first unused vertex, so a huge n is refused at once
    if any(v not in count for v in touched):
        raise InvalidManifold("unused vertex indices present")
    if as_ints:
        tris = [as_ints.get(ti, t) for ti, t in enumerate(tris)]
    twin, edges = _pair_sides(tris, star, n)
    bad = []
    for key, r in edges.items():
        x = twin[r]
        if x < 0 or twin[x >> 1] >> 1 != r:
            u, v = divmod(key, n)
            # an edge with no touched end may have a triangle outside the star
            if u in touched or v in touched:
                bad.append((u, v))
    if bad:
        raise InvalidManifold(f"edges not shared by exactly 2 triangles: {bad[:4]}")
    _walk_links(twin, first, count, sorted(touched))
    return tris


@dataclass(frozen=True)
class Surface:
    """Closed triangulated surface: oriented triangles over 0..n_vertices-1.

    Construction checks that every edge lies in exactly two triangles and
    that every vertex link is a single cycle, i.e. the complex really is a
    closed 2-manifold.  Triangle orientations are kept as given; coherence
    is a property computed by :func:`invariants`, not a requirement.

    ``n_vertices`` and every vertex id must be what ``operator.index``
    takes; any other id is refused with the index of its triangle.  One of
    another type than int, such as a bool or a numpy integer, is stored as
    its int.

    The edge check makes every link 2-regular: a link vertex w of v has one
    link edge per triangle holding the edge {v, w}.  A 2-regular link is a
    disjoint union of cycles, so only its connectivity is left to check.
    That is the one-ring walk: cross the paired sides at v from triangle to
    triangle; the link is one cycle iff the walk meets every triangle at v
    before it is back at the first.

    There is one check, :func:`_check_stars`.  Construction runs it over
    every vertex; a surgery's output is built by :func:`_replaced`, which
    runs it over the vertices the surgery touched.
    """

    n_vertices: int
    triangles: tuple[Triangle, ...]

    def __post_init__(self):
        try:
            n = index(self.n_vertices)
        except TypeError:
            raise InvalidManifold("the vertex count is not an integer") from None
        tris = _check_stars(n, self.triangles, range(len(self.triangles)), range(n))
        if n is not self.n_vertices:
            object.__setattr__(self, "n_vertices", n)
        if tris is not self.triangles:
            object.__setattr__(self, "triangles", tuple(tris))


def _replaced(s: Surface, removed: Iterable[int], new: Sequence[Triangle]) -> Surface:
    """The surface whose triangles are those of s outside the indices
    ``removed``, in order, then ``new``; only surgery builds one.

    Vertices are renumbered in sorted order of the ids in use: a vertex of
    s whose star emptied is dropped, and a new vertex (an id outside
    0..n_vertices-1) joins.  When none is dropped and the new ones are
    n_vertices, n_vertices + 1, ..., the numbering is the identity.

    The surface check runs on the stars of the touched vertices only, those
    of the removed and the new triangles.  That is the full check's verdict
    on a valid s: an edge with no touched end lies only in triangles neither
    removed nor added, so it keeps its two triangles, and an untouched
    vertex keeps its star and so its link.
    """
    old = s.triangles
    cut = sorted(set(removed))
    tris: list[Triangle] = []
    start = 0
    for i in cut:
        tris.extend(old[start:i])
        start = i + 1
    tris.extend(old[start:])
    tris.extend(new)

    touched = {v for i in cut for v in old[i]}
    touched.update(v for t in new for v in t)
    star = [ti for ti, (a, b, c) in enumerate(tris)
            if a in touched or b in touched or c in touched]
    used = {v for ti in star for v in tris[ti]}
    n = s.n_vertices
    added = sorted(v for v in touched if not 0 <= v < n)
    if touched <= used and added == list(range(n, n + len(added))):
        nv = n + len(added)
    else:
        ids = sorted(set(range(n)).difference(touched - used).union(added))
        label = {v: i for i, v in enumerate(ids)}
        tris = [(label[a], label[b], label[c]) for a, b, c in tris]
        touched = {label[v] for v in touched & used}
        nv = len(ids)
    _check_stars(nv, tris, star, touched)

    # the check above stands in for Surface.__post_init__
    out = object.__new__(Surface)
    object.__setattr__(out, "n_vertices", nv)
    object.__setattr__(out, "triangles", tuple(tris))
    return out


# ---------------------------------------------------------------------------
# Standard models
# ---------------------------------------------------------------------------

def tetra_sphere() -> Surface:
    """Boundary of the tetrahedron, coherently oriented."""
    return Surface(4, ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))


def moebius_kantor_torus() -> Surface:
    """The 7-vertex minimal triangulation of the torus."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 3) % 7, (i + 2) % 7))
    return Surface(7, tuple(tris))


def subdivide(s: Surface) -> Surface:
    """1-to-4 midpoint subdivision; preserves topology and orientation.

    The midpoint of edge {u, v}, u < v, is keyed u * n + v, as in
    :func:`_pair_sides`; midpoints are numbered from n in order of first
    appearance."""
    n = s.n_vertices
    mid: dict[int, int] = {}

    def midpoint(u: int, v: int) -> int:
        return mid.setdefault(u * n + v if u < v else v * n + u, n + len(mid))

    tris: list[Triangle] = []
    for a, b, c in s.triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return Surface(n + len(mid), tuple(tris))


def globe(rings: int = 3, segments: int = 6) -> Surface:
    """Sphere triangulated as polar caps plus latitude bands.

    Vertex 0 is the north pole, vertex 1 the south pole; ring ``j`` occupies
    vertices ``2 + j*segments .. 2 + (j+1)*segments - 1``.  Useful because
    its polar caps are canonical disc sites and its latitude bands canonical
    annulus sites.
    """
    if rings < 3 or segments < 3:
        raise InvalidManifold("globe needs rings >= 3 and segments >= 3")
    _check_cells(2 * rings * segments, "globe")
    ring = lambda j, i: 2 + j * segments + (i % segments)
    tris: list[Triangle] = []
    for i in range(segments):  # north cap
        tris.append((0, ring(0, i), ring(0, i + 1)))
    for j in range(rings - 1):  # bands
        for i in range(segments):
            tris.append((ring(j, i + 1), ring(j, i), ring(j + 1, i)))
            tris.append((ring(j, i + 1), ring(j + 1, i), ring(j + 1, i + 1)))
    for i in range(segments):  # south cap
        tris.append((1, ring(rings - 1, i + 1), ring(rings - 1, i)))
    return Surface(2 + rings * segments, tuple(tris))


def globe_north_cap(segments: int = 6) -> tuple[int, ...]:
    return tuple(range(segments))


def globe_south_cap(rings: int = 3, segments: int = 6) -> tuple[int, ...]:
    total = segments + 2 * segments * (rings - 1) + segments
    return tuple(range(total - segments, total))


def globe_band(j: int, segments: int = 6) -> tuple[int, ...]:
    """Triangle indices of the latitude band between ring j and ring j+1."""
    start = segments + 2 * segments * j
    return tuple(range(start, start + 2 * segments))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Topological certificate: component count, Euler characteristic,
    orientability and (when defined) per-component genus.  ``genus`` lists
    the components in the order of their lowest triangle index."""

    components: int
    euler_characteristic: int
    orientable: bool
    genus: Optional[tuple[int, ...]]


def invariants(m: "OneManifold | Surface") -> InvariantReport:
    if isinstance(m, OneManifold):
        comps = len(m.cycles) + len(m.chains)
        chi = len(m.chains)  # cycles contribute 0, chains 1 (= V - E)
        return InvariantReport(comps, chi, True, None)
    return _surface_invariants(m)


def _surface_invariants(s: Surface) -> InvariantReport:
    tris = s.triangles
    comp, orientable = _flood(tris, _pair_sides(tris, range(len(tris)), s.n_vertices)[0])
    # per component V - F/2: each edge lies in two of its triangles, so E = 3F/2
    faces = [0] * (max(comp) + 1)
    comp_of_vertex = [0] * s.n_vertices
    for (a, b, c), ci in zip(tris, comp):
        faces[ci] += 1
        comp_of_vertex[a] = comp_of_vertex[b] = comp_of_vertex[c] = ci
    chi_per = [-f // 2 for f in faces]
    for c in comp_of_vertex:
        chi_per[c] += 1

    genus: Optional[tuple[int, ...]] = None
    if orientable:
        genus = tuple((2 - chi) // 2 for chi in chi_per)
    return InvariantReport(len(chi_per), sum(chi_per), orientable, genus)


# ---------------------------------------------------------------------------
# Stock builds
# ---------------------------------------------------------------------------

def genus_g(g: int = 1) -> Surface:
    """The closed orientable surface of genus g, g <= MAX_GENUS, built
    handle by handle with 2-dimensional 0-surgery on a refined sphere.  A
    handle takes the vertices of its disc pair and adds none, so when no
    disc pair is left the surface is subdivided once more before the next
    handle."""
    if g < 0:
        raise InvalidManifold("genus must be >= 0")
    if g > MAX_GENUS:
        raise InvalidManifold(f"genus must be <= {MAX_GENUS}")
    from .surgery import GluingMap, InvalidSite, find_disc_pair, surgery_2d_0

    s = subdivide(subdivide(tetra_sphere()))
    for _ in range(g):
        try:
            site = find_disc_pair(s)
        except InvalidSite:
            s = subdivide(s)
            site = find_disc_pair(s)
        s = surgery_2d_0(s, site, GluingMap())
    return s


# The stock manifolds by kind.  A builder's parameters are the sizes of its
# kind, and their defaults the sizes an unset one takes: ``sphere`` is the
# tetrahedron boundary, ``torus`` the 7-vertex minimal triangulation.
STOCK = {"circle": circle, "two_circles": two_circles, "sphere": tetra_sphere,
         "torus": moebius_kantor_torus, "genus_g": genus_g, "globe": globe}
