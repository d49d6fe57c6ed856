import pytest
from hypothesis import given, settings, strategies as st

from toposurge.manifolds import (
    InvalidManifold,
    OneManifold,
    Surface,
    build_standard,
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
from toposurge.surgery import DiscPairSite, GluingMap, attach_tube


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


def test_build_standard_dispatch():
    assert invariants(build_standard("sphere")).euler_characteristic == 2
    assert invariants(build_standard("torus")).genus == (1,)
    assert len(build_standard("circle", 6).cycles[0]) == 6
    assert len(build_standard("two_circles", 4, 4).cycles) == 2
    with pytest.raises(ValueError):
        build_standard("klein")
    with pytest.raises(InvalidManifold):
        build_standard("circle", 1)
    with pytest.raises(InvalidManifold):
        build_standard("genus_g", -1)


@pytest.mark.parametrize("g", range(5))
def test_genus_builder(g):
    rep = invariants(build_standard("genus_g", g))
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
    "genus_2": (build_standard("genus_g", 2), -2, True, 2),
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


def test_pinched_vertex_rejected():
    # two tetrahedra sharing a single vertex: every edge is fine but the
    # link of the shared vertex is two disjoint cycles
    a = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))
    b = ((0, 4, 5), (0, 5, 6), (0, 6, 4), (4, 6, 5))
    with pytest.raises(InvalidManifold):
        Surface(7, a + b)


@given(st.integers(min_value=2, max_value=40))
def test_circle_sizes(n):
    rep = invariants(circle(n))
    assert rep.components == 1
    assert rep.euler_characteristic == 0
