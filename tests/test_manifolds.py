import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toposurge.manifolds import (
    STOCK,
    InvalidManifold,
    InvariantReport,
    OneManifold,
    Surface,
    _flood,
    _pair_sides,
    _surface_invariants,
    circle,
    globe,
    globe_band,
    globe_north_cap,
    globe_south_cap,
    invariants,
    moebius_kantor_torus,
    subdivide,
    tetra_sphere,
    two_circles,
)
from toposurge.surgery import DiscPairSite, GluingMap, attach_tube, find_disc_pair


def test_tetra_sphere_invariants():
    rep = invariants(tetra_sphere())
    assert (rep.components, rep.euler_characteristic, rep.orientable) == (1, 2, True)
    assert rep.genus == (0,)


def test_minimal_torus_invariants():
    t = moebius_kantor_torus()
    assert t.n_vertices == 7
    assert len(t.triangles) == 14
    rep = invariants(t)
    assert (rep.components, rep.euler_characteristic, rep.genus) == (1, 0, (1,))


def test_circle_and_two_circles():
    rep = invariants(circle(6))
    assert (rep.components, rep.euler_characteristic, rep.orientable) == (1, 0, True)
    assert rep.genus is None
    rep = invariants(two_circles(4, 5))
    assert rep.components == 2
    assert rep.euler_characteristic == 0


def test_chain_euler_characteristic():
    m = OneManifold(cycles=((0, 1, 2),), chains=((3, 4), (5,)))
    rep = invariants(m)
    assert rep.components == 3
    assert rep.euler_characteristic == 2  # one per chain


def test_stock_builders_take_their_sizes():
    assert invariants(STOCK["sphere"]()).euler_characteristic == 2
    assert invariants(STOCK["torus"]()).genus == (1,)
    assert len(STOCK["circle"](6).cycles[0]) == 6
    assert len(STOCK["two_circles"](4, 4).cycles) == 2
    # omitted sizes take the builder's defaults
    assert STOCK["circle"]() == circle(6)
    assert STOCK["two_circles"](4) == two_circles(4, 6)
    assert STOCK["globe"]() == globe(3, 6)
    assert invariants(STOCK["genus_g"]()).genus == (1,)
    with pytest.raises(InvalidManifold):
        STOCK["circle"](1)
    with pytest.raises(InvalidManifold):
        STOCK["genus_g"](-1)


# at g = 41 the last handle finds no disc pair left, so the surface is
# subdivided once more before it
@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 41])
def test_genus_builder(g):
    rep = invariants(STOCK["genus_g"](g))
    assert rep.components == 1
    assert rep.orientable
    assert rep.euler_characteristic == 2 - 2 * g
    assert rep.genus == (g,)


def test_disjoint_union_of_spheres():
    tris = tetra_sphere().triangles
    shifted = tuple((a + 4, b + 4, c + 4) for a, b, c in tris)
    s = Surface(8, tris + shifted)
    rep = invariants(s)
    assert rep.components == 2
    assert rep.euler_characteristic == 4
    assert rep.genus == (0, 0)


def _klein_bottle() -> Surface:
    """A globe with its polar caps joined by a reversed tube."""
    site = DiscPairSite(globe_north_cap(6), globe_south_cap(3, 6))
    return attach_tube(globe(3, 6), site, GluingMap(0, True))[0]


# name -> (stock surface, Euler characteristic, orientable, genus)
PARTS = {
    "sphere": (tetra_sphere(), 2, True, 0),
    "globe": (globe(3, 5), 2, True, 0),
    "torus": (moebius_kantor_torus(), 0, True, 1),
    "genus_2": (STOCK["genus_g"](2), -2, True, 2),
    "klein": (_klein_bottle(), 0, False, None),
}


def _union(parts, vertex_label=None, order=None) -> Surface:
    """Disjoint union with vertex v relabelled vertex_label[v] and the
    triangles listed in the given order (defaults: as concatenated)."""
    tris, nv = [], 0
    for p in parts:
        tris += [tuple(v + nv for v in t) for t in p.triangles]
        nv += p.n_vertices
    label = vertex_label or list(range(nv))
    tris = [tuple(label[v] for v in t) for t in tris]
    return Surface(nv, tuple(tris[i] for i in (order or range(len(tris)))))


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(PARTS)), min_size=1, max_size=4),
       rnd=st.randoms(use_true_random=False))
def test_invariants_of_a_disjoint_union_add_up(names, rnd):
    parts = [PARTS[n] for n in names]
    nv = sum(p[0].n_vertices for p in parts)
    labels = list(range(nv))
    rnd.shuffle(labels)
    order = list(range(sum(len(p[0].triangles) for p in parts)))
    rnd.shuffle(order)
    rep = invariants(_union([p[0] for p in parts], labels, order))
    assert rep.components == len(parts)
    assert rep.euler_characteristic == sum(p[1] for p in parts)
    assert rep.orientable == all(p[2] for p in parts)
    if rep.orientable:
        assert sorted(rep.genus) == sorted(p[3] for p in parts)
    else:
        assert rep.genus is None


def test_genus_lists_components_by_lowest_triangle():
    sphere, torus = tetra_sphere(), moebius_kantor_torus()
    assert invariants(_union([sphere, torus])).genus == (0, 1)
    assert invariants(_union([torus, sphere])).genus == (1, 0)
    # the torus takes the low vertex labels, the sphere the first triangle
    # and every other one after it
    labels = [7, 8, 9, 10] + list(range(7))
    order = [0, 4, 1, 5, 2, 6, 3] + list(range(7, 18))
    assert invariants(_union([sphere, torus], labels, order)).genus == (0, 1)


def test_subdivide_preserves_topology():
    for base in (tetra_sphere(), moebius_kantor_torus()):
        fine = subdivide(base)
        assert len(fine.triangles) == 4 * len(base.triangles)
        assert invariants(fine) == invariants(base)


def test_globe_and_its_sites():
    s = globe(4, 7)
    rep = invariants(s)
    assert (rep.components, rep.euler_characteristic) == (1, 2)
    assert len(globe_north_cap(7)) == 7
    assert len(globe_band(1, 7)) == 14
    caps = set(globe_north_cap(7)) | set(globe_south_cap(4, 7))
    assert len(caps) == 14
    assert max(caps) < len(s.triangles)


@pytest.mark.parametrize("sizes", [(2, 6), (3, 2)])
def test_too_small_a_globe_names_its_parameters(sizes):
    with pytest.raises(InvalidManifold, match=r"^globe needs rings >= 3 and segments >= 3$"):
        globe(*sizes)


@pytest.mark.parametrize("kind, sizes", [
    ("circle", (2.5,)),
    ("circle", ("8",)),
    ("circle", (None,)),
    ("two_circles", (3, 4.0)),
    ("globe", (3.0, 6)),
    ("globe", (3, "6")),
    ("genus_g", (1.5,)),
])
def test_a_size_that_is_not_an_integer_is_refused(kind, sizes):
    with pytest.raises(InvalidManifold, match=f"^{kind} sizes must be integers$"):
        STOCK[kind](*sizes)


def test_bool_and_numpy_integer_sizes_are_taken_as_ints():
    assert circle(np.int64(8)) == circle(8)
    assert two_circles(np.uint8(3), np.int32(4)) == two_circles(3, 4)
    assert globe(np.int16(4), np.int64(7)) == globe(4, 7)
    assert STOCK["genus_g"](np.int64(2)) == STOCK["genus_g"](2)
    assert STOCK["genus_g"](True) == STOCK["genus_g"](1)
    with pytest.raises(InvalidManifold, match="^a circle needs at least 2 arcs$"):
        circle(True)  # a bool passes the integer rule


def test_arc_uniqueness_enforced():
    with pytest.raises(InvalidManifold):
        OneManifold(cycles=((0, 1), (1, 2)))
    with pytest.raises(InvalidManifold):
        OneManifold(cycles=((0,),))
    with pytest.raises(InvalidManifold):
        OneManifold(cycles=((0, 1),), chains=((0,),))


def test_surface_validation_rejects_junk():
    with pytest.raises(InvalidManifold):
        Surface(3, ((0, 1, 2),))  # open disc: edges in one triangle only
    with pytest.raises(InvalidManifold):
        Surface(4, ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2), (0, 1, 2)))
    with pytest.raises(InvalidManifold):
        Surface(4, ((0, 1, 1), (0, 2, 3)))  # degenerate triangle
    with pytest.raises(InvalidManifold):
        Surface(5, tetra_sphere().triangles)  # unused vertex index


@pytest.mark.parametrize("triangles, bad", [
    (((0, 1, 2, 3), (0, 1)), 0),
    (((0, 1, 2), (0, 1)), 1),
    (((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3)), 3),
    (((0, 1, 2), 5), 1),
])
def test_a_triangle_row_of_the_wrong_length_is_named(triangles, bad):
    with pytest.raises(InvalidManifold, match=f"^triangle {bad} does not have 3 vertices$"):
        Surface(4, triangles)


@pytest.mark.parametrize("triangles, bad", [
    (((0.0, 1.0, 2.0), (0, 2, 3), (0, 3, 1), (1, 3, 2)), 0),
    (((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2.5)), 3),
    (((0, 1, 2), (0, 2, "3"), (0, 3, 1), (1, 3, 2)), 1),
    (((0, 1, 2), (0, 2, None), (0, 0, 1)), 1),
    ((("a", "b", "c"),), 0),
])
def test_a_vertex_id_that_is_not_an_integer_is_named(triangles, bad):
    with pytest.raises(InvalidManifold,
                       match=f"^triangle {bad} has a vertex id that is not an integer$"):
        Surface(4, triangles)
    for count in (4.0, "4", None):
        with pytest.raises(InvalidManifold, match="^the vertex count is not an integer$"):
            Surface(count, triangles)


def test_bool_and_numpy_integer_ids_are_taken_as_ints():
    tris = tetra_sphere().triangles
    for kind in (np.int64, np.int32, np.uint8):
        s = Surface(np.int64(4), tuple(tuple(kind(v) for v in t) for t in tris))
        assert s == tetra_sphere()
        assert all(type(v) is int for t in s.triangles for v in t)
        assert invariants(s) == invariants(tetra_sphere())
    with pytest.raises(InvalidManifold, match="^surface with no triangles$"):
        Surface(True, ())  # a bool count passes the integer rule
    s = Surface(3, ((False, True, 2), (0, 2, 1)))
    assert s.triangles == ((0, 1, 2), (0, 2, 1))
    assert invariants(s).euler_characteristic == 2
    # u * n + v overflows a uint8 here, so the ids must be ints before it
    g = globe(8, 12)
    narrow = Surface(np.uint8(g.n_vertices),
                     tuple(tuple(np.uint8(v) for v in t) for t in g.triangles))
    assert narrow == g and type(narrow.n_vertices) is int
    assert invariants(narrow) == invariants(g)


def test_vertex_count_is_checked_before_anything_is_sized_by_it():
    # a structure sized by n_vertices would not fit in memory
    with pytest.raises(InvalidManifold, match="^unused vertex indices present$"):
        Surface(10**12, tetra_sphere().triangles)


def test_pinched_vertex_rejected():
    # two tetrahedra sharing a single vertex: every edge is fine but the
    # link of the shared vertex is two disjoint cycles
    a = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    b = ((0, 4, 5), (0, 5, 6), (0, 6, 4), (4, 6, 5))
    with pytest.raises(InvalidManifold, match="^link of vertex 0 is not a single cycle$"):
        Surface(7, a + b)


def test_two_triangle_sphere_is_accepted():
    # each edge lies in both triangles, and each link is a 2-cycle
    s = Surface(3, ((0, 1, 2), (0, 2, 1)))
    assert invariants(s).euler_characteristic == 2


def _sides(t):
    a, b, c = t
    return ((a, b), (b, c), (c, a))


def _reference_edge_triangles(tris):
    """Map each undirected edge (low, high) to the indices of the triangles
    holding it, in the order of the triangle list: the tuple-keyed edge map
    that the surface check, invariants and site validation used before the
    side pairing."""
    inc = {}
    for ti, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            inc.setdefault((u, v) if u < v else (v, u), []).append(ti)
    return inc


def _reference_walk_links(tris, inc, first, count, vertices):
    """The link walk on the edge map: cross the edge {v, w} into the other
    triangle of inc, whose third vertex is the next w."""
    for v in vertices:
        start = ti = first[v]
        a, b, _ = tris[start]
        w = b if a == v else a
        steps = 0
        while True:
            t0, t1 = inc[(v, w) if v < w else (w, v)]
            ti = t1 if t0 == ti else t0
            a, b, c = tris[ti]
            w = a + b + c - v - w  # the vertex of ti that is neither v nor w
            steps += 1
            if ti == start:
                break
        if steps != count[v]:
            raise InvalidManifold(f"link of vertex {v} is not a single cycle")


def _reference_check_stars(n, tris, star, touched):
    """The surface check as it was built on the edge map, its checks in the
    same order as the library's."""
    if not tris:
        raise InvalidManifold("surface with no triangles")
    inc = {}
    first = {}
    count = {}
    for ti in star:
        t = tris[ti]
        try:
            a, b, c = t
        except (TypeError, ValueError):
            raise InvalidManifold(f"triangle {ti} does not have 3 vertices") from None
        if len({a, b, c}) != 3:
            raise InvalidManifold(f"degenerate triangle {t}")
        for v in t:
            if not (0 <= v < n):
                raise InvalidManifold(f"vertex {v} out of range in {t}")
            if v in count:
                count[v] += 1
            else:
                first[v] = ti
                count[v] = 1
        for u, v in ((a, b), (b, c), (c, a)):
            inc.setdefault((u, v) if u < v else (v, u), []).append(ti)
    if any(v not in count for v in touched):
        raise InvalidManifold("unused vertex indices present")
    bad = [e for e, ts in inc.items()
           if len(ts) != 2 and (e[0] in touched or e[1] in touched)]
    if bad:
        raise InvalidManifold(f"edges not shared by exactly 2 triangles: {bad[:4]}")
    _reference_walk_links(tris, inc, first, count, sorted(touched))


def _reference_check(n_vertices, triangles):
    """The message of the edge-map surface check on the whole list, or None."""
    try:
        _reference_check_stars(n_vertices, triangles, range(len(triangles)), range(n_vertices))
    except InvalidManifold as exc:
        return str(exc)
    return None


def _reference_verdict(n_vertices, triangles):
    """The message of the InvalidManifold that validation by per-vertex
    link tables raises, or None: every check in order, each link built
    from the edges opposite its vertex, with its degrees and connectivity
    checked separately."""
    try:
        if not triangles:
            raise InvalidManifold("surface with no triangles")
        used = set()
        for t in triangles:
            a, b, c = t
            if len({a, b, c}) != 3:
                raise InvalidManifold(f"degenerate triangle {t}")
            for v in t:
                if not (0 <= v < n_vertices):
                    raise InvalidManifold(f"vertex {v} out of range in {t}")
            used.update(t)
        if len(used) != n_vertices:
            raise InvalidManifold("unused vertex indices present")
        bad = [e for e, ts in _reference_edge_triangles(triangles).items() if len(ts) != 2]
        if bad:
            raise InvalidManifold(f"edges not shared by exactly 2 triangles: {bad[:4]}")
        around = {v: [] for v in range(n_vertices)}
        for a, b, c in triangles:
            around[a].append((b, c))
            around[b].append((c, a))
            around[c].append((a, b))
        for v, opp in around.items():
            if not _is_single_link_cycle(opp):
                raise InvalidManifold(f"link of vertex {v} is not a single cycle")
    except InvalidManifold as exc:
        return str(exc)
    return None


def _is_single_link_cycle(opposite_edges):
    if not opposite_edges:
        return False
    deg, adj = {}, {}
    for a, b in opposite_edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(d != 2 for d in deg.values()):
        return False
    start = opposite_edges[0][0]
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(deg)


def _identifications(s: Surface, rnd):
    """s with each pair of vertices i < j made one (j becomes i, the labels
    above j close up), its triangles in a shuffled order."""
    for j in range(s.n_vertices):
        for i in range(j):
            label = [v - (v > j) for v in range(s.n_vertices)]
            label[j] = i
            tris = [tuple(label[v] for v in t) for t in s.triangles]
            rnd.shuffle(tris)
            yield s.n_vertices - 1, tuple(tris)


def _glued_pairs(rnd):
    """Two stock surfaces made one at one or two vertices, relabelled and
    shuffled."""
    for p in sorted(PARTS):
        for q in sorted(PARTS):
            for k in (1, 2):
                sp, sq = PARTS[p][0], PARTS[q][0]
                nv = sp.n_vertices + sq.n_vertices
                merge = dict(zip(rnd.sample(range(sp.n_vertices, nv), k),
                                 rnd.sample(range(sp.n_vertices), k)))
                keep = [v for v in range(nv) if v not in merge]
                rnd.shuffle(keep)
                label = {v: i for i, v in enumerate(keep)}
                label.update((a, label[b]) for a, b in merge.items())
                tris = [tuple(label[v] for v in t) for t in sp.triangles] + [
                    tuple(label[v + sp.n_vertices] for v in t) for t in sq.triangles]
                rnd.shuffle(tris)
                yield len(keep), tuple(tris)


def _random_lists(rnd):
    """Random triangle lists on at most 7 vertices: loose triangles, or
    tetrahedra and two-triangle spheres on random vertices."""
    pieces = (tetra_sphere().triangles, ((0, 1, 2), (0, 2, 1)))
    for _ in range(3000):
        if rnd.random() < 0.5:
            n = rnd.randint(1, 7)
            yield n, tuple(tuple(rnd.randrange(n) for _ in range(3))
                           for _ in range(rnd.randint(0, 12)))
            continue
        n, tris = rnd.randint(4, 7), []
        for _ in range(rnd.randint(1, 3)):
            label = rnd.sample(range(n), 4)
            tris += [tuple(label[v] for v in t) for t in rnd.choice(pieces)]
        rnd.shuffle(tris)
        yield n, tuple(tris)


LINK_INPUTS = {
    "tetra": lambda rnd: _identifications(tetra_sphere(), rnd),
    "torus": lambda rnd: _identifications(moebius_kantor_torus(), rnd),
    "globe_3_5": lambda rnd: _identifications(globe(3, 5), rnd),
    "tetra_subdivided": lambda rnd: _identifications(subdivide(tetra_sphere()), rnd),
    "glued_pairs": _glued_pairs,
    "random_lists": _random_lists,
}


@pytest.mark.parametrize("family", sorted(LINK_INPUTS))
def test_link_walk_matches_the_link_table_reference(family):
    verdicts = []
    for n, tris in LINK_INPUTS[family](random.Random(family)):
        want = _reference_verdict(n, tris)
        try:
            Surface(n, tris)
            got = None
        except InvalidManifold as exc:
            got = str(exc)
        assert got == want == _reference_check(n, tris), (n, tris)
        verdicts.append(want)
    if family in ("globe_3_5", "glued_pairs", "random_lists"):
        # in the others two identified vertices are adjacent or share a
        # neighbour, which fails an earlier check
        assert any(v and v.startswith("link of vertex") for v in verdicts)


def _reference_flood(tris, inc):
    """The flood that tested orientation by looking the directed edge up
    in a tuple of the neighbour's edges, built per neighbour."""
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
            for u, v in _sides(tris[ti]):
                for tj in inc[(u, v) if u < v else (v, u)]:
                    if tj == ti:
                        continue
                    want = flip[ti] != ((u, v) in _sides(tris[tj]))
                    if comp[tj] < 0:
                        comp[tj] = n
                        flip[tj] = want
                        stack.append(tj)
                    elif flip[tj] != want:
                        orientable = False
        n += 1
    return comp, orientable


def _reversed_at_random(tris, rnd):
    return [(a, c, b) if rnd.random() < 0.5 else (a, b, c) for a, b, c in tris]


def _flood_inputs(rnd):
    """Triangle lists: closed surfaces with random triangles reversed
    (orientable, not coherent), Klein bottles and disjoint unions, and
    sub-complexes with boundary edges, as site validation floods them."""
    closed = [globe(3, 4), globe(5, 9), subdivide(tetra_sphere()),
              subdivide(subdivide(tetra_sphere())), subdivide(moebius_kantor_torus())]
    for s in closed:
        for _ in range(5):
            yield _reversed_at_random(s.triangles, rnd)
    klein = PARTS["klein"][0]
    g4 = STOCK["genus_g"](4)
    closed += [klein, attach_tube(g4, find_disc_pair(g4), GluingMap(2, True))[0]]
    for _ in range(20):
        names = rnd.sample(sorted(PARTS), rnd.randint(2, 4))
        u = _union([PARTS[n][0] for n in names])
        order = list(range(len(u.triangles)))
        rnd.shuffle(order)
        closed.append(Surface(u.n_vertices, tuple(u.triangles[i] for i in order)))
    for s in closed:
        yield s.triangles
        yield _reversed_at_random(s.triangles, rnd)
        for _ in range(10):
            k = rnd.randint(1, len(s.triangles))
            yield [s.triangles[i] for i in rnd.sample(range(len(s.triangles)), k)]


def _reference_invariants(s):
    """invariants as it was built on the edge map and the edge-tuple flood."""
    comp, orientable = _reference_flood(s.triangles, _reference_edge_triangles(s.triangles))
    faces = [0] * (max(comp) + 1)
    comp_of_vertex = [0] * s.n_vertices
    for t, c in zip(s.triangles, comp):
        faces[c] += 1
        for v in t:
            comp_of_vertex[v] = c
    chi_per = [-f // 2 for f in faces]
    for c in comp_of_vertex:
        chi_per[c] += 1
    genus = tuple((2 - chi) // 2 for chi in chi_per) if orientable else None
    return InvariantReport(len(chi_per), sum(chi_per), orientable, genus)


def test_flood_matches_the_edge_tuple_reference():
    """The flood on the side pairing against the edge-tuple flood, and the
    report built on each, also on sub-complexes with boundary sides."""
    kinds = set()
    for tris in _flood_inputs(random.Random(14)):
        n = 1 + max(v for t in tris for v in t)
        comp, orientable = _reference_flood(tris, _reference_edge_triangles(tris))
        assert _flood(tris, _pair_sides(tris, range(len(tris)), n)[0]) == (comp, orientable), tris
        s = SimpleNamespace(n_vertices=n, triangles=tuple(tris))
        assert _surface_invariants(s) == _reference_invariants(s)
        kinds.add((max(comp) > 0, orientable))
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def _builtin_calls(f):
    """The number of calls of builtin functions and methods while f runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        f()
    finally:
        sys.setprofile(None)
    return calls


def test_invariants_make_five_builtin_calls_a_triangle():
    # a setdefault per side, and an append and a pop per triangle of the
    # flood; the tuple-keyed edge map and its flood made eight a triangle
    fine = subdivide(subdivide(tetra_sphere()))
    finer = subdivide(subdivide(fine))
    extra = len(finer.triangles) - len(fine.triangles)
    calls = _builtin_calls(lambda: invariants(finer)) - _builtin_calls(lambda: invariants(fine))
    assert calls <= 5 * extra


@given(st.integers(min_value=2, max_value=40))
def test_circle_sizes(n):
    rep = invariants(circle(n))
    assert rep.components == 1
    assert rep.euler_characteristic == 0
