import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from toposurge import surgery
from toposurge.manifolds import (
    InvalidManifold,
    InvariantReport,
    OneManifold,
    Surface,
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
from toposurge.manifolds import _replaced
from toposurge.surgery import (
    AnnulusSite,
    CurveSite,
    DiscPairSite,
    GluingMap,
    InvalidSite,
    _check_site,
    _tube_triangles,
    all_disc_pairs,
    attach_tube,
    find_disc_pair,
    surgery_1d_0,
    surgery_2d_0,
    surgery_2d_1,
    validate_annulus,
    validate_disc_pair,
)

from test_manifolds import (
    _reference_edge_triangles,
    _reference_flood,
    _reference_invariants,
    _reference_verdict,
)


# ---------------------------------------------------------------------------
# the oracle of every surgery output
# ---------------------------------------------------------------------------

def compact_surface(triangles):
    """Renumber vertices to drop unused indices, then validate in full: how
    every surgery built its output before the local check, kept as that
    check's oracle."""
    tris = [tuple(t) for t in triangles]
    used = sorted({v for t in tris for v in t})
    remap = {v: i for i, v in enumerate(used)}
    return Surface(len(used), tuple((remap[a], remap[b], remap[c]) for a, b, c in tris))


def _both_checks(s, removed, new):
    """The local check's and the full check's outcome on the same input:
    each the surface built, or the message of the InvalidManifold raised."""
    cut = set(removed)
    builds = (lambda: _replaced(s, removed, new),
              lambda: compact_surface([t for i, t in enumerate(s.triangles) if i not in cut] + new))
    out = []
    for build in builds:
        try:
            out.append(build())
        except InvalidManifold as exc:
            out.append(str(exc))
    return out


def _reference_outcome(s, removed, new):
    """The message of the link-table reference on the output of a
    replacement, renumbered as compact_surface renumbers it, or None: a
    verdict that shares no code with the surface check."""
    cut = set(removed)
    tris = [t for i, t in enumerate(s.triangles) if i not in cut] + list(new)
    remap = {v: i for i, v in enumerate(sorted({v for t in tris for v in t}))}
    return _reference_verdict(len(remap), tuple(tuple(remap[v] for v in t) for t in tris))


def _checked_replaced(s, removed, new):
    local, full = _both_checks(s, removed, new)
    assert local == full  # a Surface compares n_vertices and triangles
    if isinstance(local, str):
        raise InvalidManifold(local)
    return local


@pytest.fixture(autouse=True, scope="module")
def every_surgery_here_matches_compact_surface():
    """Each surgery in this file builds its output by the local check and
    by the full one, and must get the same surface from both."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_replaced", _checked_replaced)
        yield


def _polar_site():
    return DiscPairSite(globe_north_cap(6), globe_south_cap(3, 6))


# ---------------------------------------------------------------------------
# 1-dimensional 0-surgery
# ---------------------------------------------------------------------------

def test_circle_splits_into_two():
    out = surgery_1d_0(circle(6), CurveSite((1, 4)), GluingMap())
    assert invariants(out).components == 2


def test_twisted_circle_stays_one():
    out = surgery_1d_0(circle(6), CurveSite((1, 4)), GluingMap(orientation_flip=True))
    assert invariants(out).components == 1


def test_two_circles_join_into_one():
    out = surgery_1d_0(two_circles(4, 4), CurveSite((0, 5)), GluingMap())
    assert invariants(out).components == 1


def test_component_count_table_by_brute_force():
    """standard -> 2, flipped -> 1, for every valid site on every cycle."""
    for n in range(4, 13):
        m = circle(n)
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = (j - i == 1) or (i == 0 and j == n - 1)
                site = CurveSite((i, j))
                if adjacent:
                    with pytest.raises(InvalidSite):
                        surgery_1d_0(m, site, GluingMap())
                    continue
                assert invariants(surgery_1d_0(m, site, GluingMap())).components == 2
                assert (
                    invariants(
                        surgery_1d_0(m, site, GluingMap(orientation_flip=True))
                    ).components
                    == 1
                )


def test_dual_two_circles_all_pairs():
    for n in range(2, 7):
        for k in range(2, 7):
            m = two_circles(n, k)
            for a in range(n):
                for b in range(n, n + k):
                    out = surgery_1d_0(m, CurveSite((a, b)), GluingMap())
                    assert invariants(out).components == 1


def test_curve_site_errors():
    m = circle(6)
    with pytest.raises(InvalidSite):
        surgery_1d_0(m, CurveSite((1, 1)), GluingMap())
    with pytest.raises(InvalidSite):
        surgery_1d_0(m, CurveSite((1, 99)), GluingMap())
    with pytest.raises(InvalidSite):
        surgery_1d_0(m, CurveSite((1, 2)), GluingMap())  # adjacent arcs


@pytest.mark.parametrize("arcs", [(1,), (1, 2, 5), ()])
def test_curve_site_of_the_wrong_length_is_an_invalid_site(arcs):
    with pytest.raises(InvalidSite, match="^1-dimensional site needs exactly 2 arcs$"):
        surgery_1d_0(circle(8), CurveSite(arcs), GluingMap())


def test_surgery_on_chains_reconnects_segments():
    m = OneManifold(cycles=(), chains=((0, 1, 2), (3, 4, 5)))
    out = surgery_1d_0(m, CurveSite((1, 4)), GluingMap())
    rep = invariants(out)
    assert rep.components == 2
    assert rep.euler_characteristic == 2  # still two segments, recoupled
    assert not out.cycles


def test_output_cycles_have_min_length():
    out = surgery_1d_0(circle(4), CurveSite((0, 2)), GluingMap())
    assert all(len(c) >= 2 for c in out.cycles)


def _reference_curve_surgery(cycles, chains, a, b, flip):
    """surgery_1d_0's (cycles, chains) or refusal message at site (a, b),
    found without walking: each arc's two endpoints are numbered, the
    endpoints that meet are merged by union-find, and each component is
    read off the neighbour sets of its arcs, then put in canonical form by
    trying every rotation and both directions."""
    if a == b:
        return "site arcs must be distinct"
    ids = [x for path in cycles + chains for x in path]
    if a not in ids or b not in ids:
        return "site arcs missing from the manifold"
    parent = {}

    def find(p):
        while parent.setdefault(p, p) != p:
            p = parent[p]
        return p

    def union(p, q):
        parent[find(p)] = find(q)

    # endpoint (x, 0) is arc x's tail and (x, 1) its head
    for path in cycles:
        for k, x in enumerate(path):
            union((x, 1), (path[(k + 1) % len(path)], 0))
    for path in chains:
        for x, y in zip(path, path[1:]):
            union((x, 1), (y, 0))
    if {find((a, 0)), find((a, 1))} & {find((b, 0)), find((b, 1))}:
        return "site arcs are adjacent; removed segments must be disjoint"
    f = max(ids) + 1
    joins = [((a, 0), (b, 0)), ((a, 1), (b, 1))] if flip else [((a, 1), (b, 0)), ((b, 1), (a, 0))]
    for x, (p, q) in zip((f, f + 1), joins):
        union((x, 0), p)
        union((x, 1), q)
    kept = [x for x in ids if x not in (a, b)] + [f, f + 1]

    meet = {}  # point of the curve -> the kept arcs with an end there
    for x in kept:
        meet.setdefault(find((x, 0)), []).append(x)
        meet.setdefault(find((x, 1)), []).append(x)
    nbrs = {x: set() for x in kept}
    for xs in meet.values():
        for x in xs:
            nbrs[x].update(y for y in xs if y != x)
    free = {xs[0] for xs in meet.values() if len(xs) == 1}
    for x in kept:  # now one class per component
        union((x, 0), (x, 1))
    comps = {}
    for x in kept:
        comps.setdefault(find((x, 0)), set()).add(x)

    out_cycles, out_chains = [], []
    for comp in comps.values():
        seq = [min(comp & free or comp)]
        while len(seq) < len(comp):
            seq.append(min(nbrs[seq[-1]] - set(seq)))
        if comp & free:
            out_chains.append(min(tuple(seq), tuple(seq[::-1])))
        else:
            turns = [seq[k:] + seq[:k] for k in range(len(seq))]
            out_cycles.append(min(tuple(t) for s in turns for t in (s, s[::-1])))
    return tuple(sorted(out_cycles)), tuple(sorted(out_chains))


def _curve_shapes(max_arcs):
    """(cycle lengths, chain lengths) of every curve of at most max_arcs
    arcs, each cycle at least 2 arcs long and each chain at least 1."""
    def lengths(n, least, cap):
        if n == 0:
            yield ()
        for k in range(min(n, cap), least - 1, -1):
            for rest in lengths(n - k, least, k):
                yield (k,) + rest

    for n in range(1, max_arcs + 1):
        for c in range(n + 1):
            for cyc in lengths(c, 2, c):
                for ch in lengths(n - c, 1, n - c):
                    yield cyc, ch


def test_curve_surgery_matches_the_endpoint_reference():
    """Every curve of at most 7 arcs, with ids in order and shuffled with
    negative values, at every ordered pair of its arcs and one missing id,
    under both gluings."""
    rnd = random.Random(19)
    cases = 0
    for cyc_lengths, chain_lengths in _curve_shapes(7):
        n = sum(cyc_lengths) + sum(chain_lengths)
        for ids in (list(range(n)), rnd.sample(range(-2 * n, 2 * n), n)):
            it = iter(ids)
            cycles = tuple(tuple(next(it) for _ in range(k)) for k in cyc_lengths)
            chains = tuple(tuple(next(it) for _ in range(k)) for k in chain_lengths)
            m = OneManifold(cycles, chains)
            probe = ids + [max(ids) + 1]
            for a, b, flip in itertools.product(probe, probe, (False, True)):
                want = _reference_curve_surgery(cycles, chains, a, b, flip)
                try:
                    out = surgery_1d_0(m, CurveSite((a, b)), GluingMap(orientation_flip=flip))
                    got = (out.cycles, out.chains)
                except InvalidSite as exc:
                    got = str(exc)
                assert got == want, (m, a, b, flip)
                cases += 1
    assert cases > 10_000


def test_a_chain_end_is_no_arc_of_the_same_name():
    """A chain's free end must not take the name of the arc -x-1."""
    m = OneManifold(((-1, 5, 6, 7),), ((0,),))
    out = surgery_1d_0(m, CurveSite((5, 7)), GluingMap())
    assert (out.cycles, out.chains) == (((-1, 9), (6, 8)), ((0,),))


# ---------------------------------------------------------------------------
# 2-dimensional 0-surgery
# ---------------------------------------------------------------------------

def test_sphere_becomes_torus():
    rep = invariants(surgery_2d_0(globe(3, 6), _polar_site(), GluingMap()))
    assert rep == InvariantReport(1, 0, True, (1,))


def test_rotations_do_not_change_invariants():
    s = globe(3, 6)
    base = invariants(surgery_2d_0(s, _polar_site(), GluingMap()))
    for k in range(1, 6):
        assert invariants(surgery_2d_0(s, _polar_site(), GluingMap(k))) == base


@given(st.integers(min_value=-100, max_value=100))
@settings(max_examples=25, deadline=None)
def test_any_rotation_offset_is_normalized(k):
    rep = invariants(surgery_2d_0(globe(3, 6), _polar_site(), GluingMap(k)))
    assert rep == InvariantReport(1, 0, True, (1,))


def test_orientation_flip_gives_klein_type():
    rep = invariants(
        surgery_2d_0(globe(3, 6), _polar_site(), GluingMap(orientation_flip=True))
    )
    assert rep.components == 1
    assert rep.euler_characteristic == 0
    assert not rep.orientable
    assert rep.genus is None


def test_genus_increases_by_one():
    from toposurge.manifolds import STOCK

    for g in range(3):
        s = STOCK["genus_g"](g)
        out = surgery_2d_0(s, find_disc_pair(s), GluingMap())
        assert invariants(out).genus == (g + 1,)


def test_mismatched_boundary_lengths_are_zipped():
    s = subdivide(globe(3, 6))
    pair = None
    # a two-triangle disc (boundary length 4) far from a single triangle
    inc = _reference_edge_triangles(s.triangles)
    double = next(v for v in inc.values() if len(v) == 2)
    va = set(s.triangles[double[0]]) | set(s.triangles[double[1]])
    nbr = {v: set() for v in range(s.n_vertices)}
    for u, v in inc:
        nbr[u].add(v)
        nbr[v].add(u)
    for j, t in enumerate(s.triangles):
        if j in double or set(t) & va:
            continue
        if any(nbr[x] & set(t) for x in va):
            continue
        pair = DiscPairSite(tuple(double), (j,))
        break
    assert pair is not None
    rep = invariants(surgery_2d_0(s, pair, GluingMap(1)))
    assert rep == InvariantReport(1, 0, True, (1,))
    # neither disc has an interior vertex, and the 4- and 3-cycles are
    # zipped directly: no vertex is added and the tube has 4 + 3 triangles
    t, band = attach_tube(s, pair, GluingMap(1))
    assert t.n_vertices == s.n_vertices
    assert len(band) == 4 + 3
    assert invariants(surgery_2d_1(t, AnnulusSite(band), GluingMap())) == invariants(s)


def test_boundaries_of_very_different_lengths_are_zipped():
    s = globe(4, 80)
    t, band = attach_tube(s, DiscPairSite(globe_north_cap(80), (639,)), GluingMap())
    assert invariants(t) == InvariantReport(1, 0, True, (1,))
    assert len(band) == 80 + 3


def test_every_disc_pair_of_a_klein_bottle_is_glued():
    k = surgery_2d_0(globe(3, 6), _polar_site(), GluingMap(orientation_flip=True))
    pairs = all_disc_pairs(k)
    assert len(pairs) == 120
    for site in pairs:
        t, band = attach_tube(k, site, GluingMap())
        # the tube follows the surviving triangles, as in compact_surface's input
        assert band == tuple(range(len(k.triangles) - 2, len(t.triangles)))
        rep = invariants(t)
        assert rep == _reference_invariants(t)
        assert (rep.components, rep.euler_characteristic, rep.orientable) == (1, -2, False)
        back = surgery_2d_1(t, AnnulusSite(band), GluingMap())
        assert invariants(back) == invariants(k) == _reference_invariants(back)


# The earlier construction, kept as the reference for equal boundary
# lengths on coherently oriented surfaces: it walked the boundary of the
# whole complement again to find each hole's cycle, and glued a tube only
# between cycles of one length.

def _reference_subcomplex_boundary(tris, inc):
    """Directed boundary cycles of a sub-complex with edge map ``inc``, or
    raise if malformed: site validation's boundary walk before the side
    pairing."""
    if any(len(ts) > 2 for ts in inc.values()):
        raise InvalidSite("site sub-complex has an edge in more than 2 triangles")
    succ = {}
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (c, a)):
            if len(inc[(u, v) if u < v else (v, u)]) == 1:
                if u in succ:
                    raise InvalidSite("site boundary is not a disjoint union of simple cycles")
                succ[u] = v
    cycles = []
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


def _reference_hole_cycles(remaining):
    cycles = _reference_subcomplex_boundary(remaining, _reference_edge_triangles(remaining))
    return {min(c): c for c in cycles}


def _reference_tube(cycle_a, cycle_b, g):
    n = len(cycle_a)
    a = [cycle_a[(-i) % n] for i in range(n)]
    if g.orientation_flip:
        b = [cycle_b[(g.rotation - i) % n] for i in range(n)]
    else:
        b = [cycle_b[(g.rotation + i) % n] for i in range(n)]
    tris = []
    for i in range(n):
        j = (i + 1) % n
        tris.append((a[i], a[j], b[i]))
        tris.append((a[j], b[j], b[i]))
    return tris


def _compacted(tris):
    used = sorted({v for t in tris for v in t})
    remap = {v: i for i, v in enumerate(used)}
    return tuple(tuple(remap[v] for v in t) for t in tris)


def _reference_attach_tube(s, site, g):
    """Triangles and band for a pair of single-triangle discs."""
    removed = set(site.disc_a) | set(site.disc_b)
    remaining = [t for i, t in enumerate(s.triangles) if i not in removed]
    holes = _reference_hole_cycles(remaining)
    cyc_a = holes[min(s.triangles[site.disc_a[0]])]
    cyc_b = holes[min(s.triangles[site.disc_b[0]])]
    tris = remaining + _reference_tube(cyc_a, cyc_b, g)
    return _compacted(tris), tuple(range(len(remaining), len(tris)))


def _reference_surgery_2d_1(s, site):
    removed = set(site.triangles)
    remaining = [t for i, t in enumerate(s.triangles) if i not in removed]
    tris = list(remaining)
    nv = s.n_vertices
    for cyc in _reference_hole_cycles(remaining).values():
        apex = nv
        nv += 1
        n = len(cyc)
        for i in range(n):
            tris.append((apex, cyc[(i + 1) % n], cyc[i]))
    return _compacted(tris)


@pytest.mark.parametrize("s", [globe(4, 6), subdivide(subdivide(tetra_sphere()))],
                         ids=["globe_4_6", "tetra_subdivided_twice"])
def test_equal_lengths_match_the_complement_walk_reference(s):
    gluings = [GluingMap(k, flip) for k in range(4) for flip in (False, True)]
    for site in all_disc_pairs(s):
        for g in gluings:
            t, band = attach_tube(s, site, g)
            assert (t.triangles, band) == _reference_attach_tube(s, site, g)
            cut = AnnulusSite(band)
            out = surgery_2d_1(t, cut, GluingMap())
            ref = _reference_surgery_2d_1(t, cut)
            if not g.orientation_flip:
                assert out.triangles == ref
                continue
            # a flipped tube is not coherent with the surface at B, so the
            # reference's cap over B, oriented by the surface, runs against
            # the one oriented by the annulus: the same unoriented complex,
            # which fixes every invariant
            assert sorted(map(sorted, out.triangles)) == sorted(map(sorted, ref))
            assert out.triangles != ref


def _cones(cycles, apexes):
    """A cone cap over each cycle, run against it, as surgery_2d_1 caps."""
    return [(apex, c[-i - 1], c[-i]) for apex, c in zip(apexes, cycles) for i in range(len(c))]


def _valid_replacements():
    """(surface, removed, new) inputs that surgery builds, with and without
    vertices dropped by the renumbering."""
    g = globe(3, 6)
    polar = DiscPairSite(globe_north_cap(6), globe_south_cap(3, 6))
    holes = validate_disc_pair(g, polar)
    caps = polar.disc_a + polar.disc_b
    yield g, caps, _tube_triangles(*holes, GluingMap())
    yield g, caps, _cones(holes, (g.n_vertices, g.n_vertices + 1))
    s = subdivide(globe(3, 6))
    site = find_disc_pair(s)
    yield s, site.disc_a + site.disc_b, _tube_triangles(*validate_disc_pair(s, site), GluingMap(2))
    t, band = attach_tube(g, polar, GluingMap(1, True))
    yield t, band, _cones(validate_annulus(t, AnnulusSite(band)),
                          (t.n_vertices, t.n_vertices + 1))


def _mutants(new):
    """``new`` with one triangle dropped, duplicated, made degenerate, or
    with one vertex swapped for a third vertex of ``new``."""
    for k, (a, b, c) in enumerate(new):
        yield new[:k] + new[k + 1:]
        yield new[:k + 1] + new[k:]
        yield new[:k] + [(a, b, a)] + new[k + 1:]
        x = next(v for t in new for v in t if v not in (a, b, c))
        yield new[:k] + [(a, b, x)] + new[k + 1:]


def test_local_check_refuses_what_the_full_check_refuses():
    messages = set()
    for s, removed, new in _valid_replacements():
        local, full = _both_checks(s, removed, new)
        assert isinstance(local, Surface) and local == full
        assert _reference_outcome(s, removed, new) is None
        for bad in _mutants(new):
            local, full = _both_checks(s, removed, bad)
            assert isinstance(local, str) and local == full, bad
            assert local == _reference_outcome(s, removed, bad), bad
            messages.add(local.split(" ")[0])
    assert messages == {"degenerate", "edges"}

    # caps that pinch a vertex pass the edge check and fail a link.  The
    # poles go with the polar caps, so the ids above them close up by two
    g = globe(3, 6)
    polar = DiscPairSite(globe_north_cap(6), globe_south_cap(3, 6))
    holes = validate_disc_pair(g, polar)
    caps = polar.disc_a + polar.disc_b
    n = g.n_vertices
    for removed, new, v in [
        (caps, _cones(holes, (n, n)), n - 2),  # one apex for both caps
        (caps, _cones(holes, (14, n)), 12),  # an apex on the far ring
        (polar.disc_a, _cones(holes[:1], (19,)), 18),  # one cap, one pole gone
    ]:
        local, full = _both_checks(g, removed, new)
        assert local == full == _reference_outcome(g, removed, new)
        assert local == f"link of vertex {v} is not a single cycle"


def test_disc_pair_validation_errors():
    s = globe(3, 6)
    with pytest.raises(InvalidSite, match="the two discs share triangles"):
        surgery_2d_0(s, DiscPairSite((0,), (0,)), GluingMap())
    with pytest.raises(InvalidSite, match="discs share vertices"):
        surgery_2d_0(s, DiscPairSite((0,), (1,)), GluingMap())
    with pytest.raises(InvalidSite, match="triangle index 999 out of range"):
        surgery_2d_0(s, DiscPairSite((0,), (999,)), GluingMap())
    band = globe_band(0, 6)
    # the north cap and the first band share the first ring
    with pytest.raises(InvalidSite, match="discs share vertices"):
        surgery_2d_0(s, DiscPairSite(globe_north_cap(6), (band[0],)), GluingMap())
    # triangles (0, 2, 3) and (9, 8, 14) share no vertex, but the edge 2-8 joins them
    with pytest.raises(InvalidSite, match=r"discs are adjacent \(an edge joins them\)"):
        surgery_2d_0(s, DiscPairSite((0,), (18,)), GluingMap())
    with pytest.raises(InvalidSite, match="disc A: Euler characteristic != 1"):  # an annulus
        surgery_2d_0(
            s, DiscPairSite(globe_band(1, 6), globe_north_cap(6)), GluingMap()
        )


def _reference_check_site(s, indices, label, chi, n_boundary):
    """Site validation as it was built on the edge map and its flood."""
    for idx in indices:
        if not (0 <= idx < len(s.triangles)):
            raise InvalidSite(f"triangle index {idx} out of range")
    if not indices:
        raise InvalidSite(f"{label}: empty triangle set")
    tris = [s.triangles[i] for i in indices]
    inc = _reference_edge_triangles(tris)
    if max(_reference_flood(tris, inc)[0]) != 0:
        raise InvalidSite(f"{label}: not edge-connected")
    if len({v for t in tris for v in t}) - len(inc) + len(tris) != chi:
        raise InvalidSite(f"{label}: Euler characteristic != {chi}")
    cycles = _reference_subcomplex_boundary(tris, inc)
    if len(cycles) != n_boundary:
        raise InvalidSite(f"{label}: {len(cycles)} boundary cycles, expected {n_boundary}")
    return cycles


def test_site_checks_match_the_edge_map_reference():
    """Runs of consecutive and of random triangles, some listed twice, as
    discs and as annuli: the same cycles or the same message."""
    rnd = random.Random(23)
    k = surgery_2d_0(globe(3, 6), _polar_site(), GluingMap(orientation_flip=True))
    messages, sites = set(), 0
    for s in (globe(4, 6), k, subdivide(moebius_kantor_torus())):
        n = len(s.triangles)
        for _ in range(300):
            m = rnd.randint(1, 12)
            base = rnd.randrange(n)
            idx = [(base + d) % n for d in range(m)] if rnd.random() < 0.6 else [
                rnd.randrange(n) for _ in range(m)]
            idx += rnd.sample(idx, rnd.randint(0, min(2, m)))
            for args in (("disc A", 1, 1), ("annulus", 0, 2)):
                outcomes = []
                for check in (_check_site, _reference_check_site):
                    try:
                        outcomes.append(check(s, idx, *args))
                    except InvalidSite as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (idx, args)
                if isinstance(outcomes[0], str):
                    messages.add(outcomes[0].split(": ")[-1])
                else:
                    sites += 1
    assert sites > 50
    assert messages == {"not edge-connected", "Euler characteristic != 1",
                        "Euler characteristic != 0",
                        "site sub-complex has an edge in more than 2 triangles",
                        "site boundary is not a disjoint union of simple cycles"}


# ---------------------------------------------------------------------------
# 2-dimensional 1-surgery
# ---------------------------------------------------------------------------

def test_equatorial_cut_gives_two_spheres():
    rep = invariants(surgery_2d_1(globe(3, 6), AnnulusSite(globe_band(1, 6)), GluingMap()))
    assert rep == InvariantReport(2, 4, True, (0, 0))


def test_nonseparating_cut_on_torus_gives_sphere():
    t, band = attach_tube(globe(3, 6), _polar_site(), GluingMap())
    rep = invariants(surgery_2d_1(t, AnnulusSite(band), GluingMap()))
    assert rep == InvariantReport(1, 2, True, (0,))


def test_cut_rotation_is_immaterial():
    s = globe(3, 6)
    base = invariants(surgery_2d_1(s, AnnulusSite(globe_band(1, 6)), GluingMap()))
    for k in range(1, 6):
        assert (
            invariants(surgery_2d_1(s, AnnulusSite(globe_band(1, 6)), GluingMap(k)))
            == base
        )


def test_annulus_validation_errors():
    s = globe(3, 6)
    with pytest.raises(InvalidSite):
        surgery_2d_1(s, AnnulusSite(globe_north_cap(6)), GluingMap())  # a disc
    with pytest.raises(InvalidSite):
        surgery_2d_1(s, AnnulusSite((0, 1, 2, 999)), GluingMap())
    with pytest.raises(InvalidSite):  # disconnected: two opposite cap triangles
        surgery_2d_1(s, AnnulusSite((0, 31)), GluingMap())


# ---------------------------------------------------------------------------
# duality and the chi ledger
# ---------------------------------------------------------------------------

def test_tube_then_cut_restores_invariants():
    s = globe(4, 7)
    before = invariants(s)
    for k in range(4):
        g = GluingMap(k)
        t, band = attach_tube(s, DiscPairSite(globe_north_cap(7), globe_south_cap(4, 7)), g)
        back = surgery_2d_1(t, AnnulusSite(band), GluingMap())
        assert invariants(back) == before


def test_chi_changes_by_exactly_two():
    rng = random.Random(17)
    for _ in range(40):
        rings = rng.randint(3, 5)
        seg = rng.randint(3, 7)
        s = globe(rings, seg)
        pairs = all_disc_pairs(s)
        site = pairs[rng.randrange(len(pairs))]
        chi0 = invariants(s).euler_characteristic
        t, band = attach_tube(s, site, GluingMap(rng.randint(0, 12)))
        assert invariants(t).euler_characteristic == chi0 - 2
        back = surgery_2d_1(t, AnnulusSite(band), GluingMap(rng.randint(0, 12)))
        assert invariants(back).euler_characteristic == chi0


def test_minimal_torus_has_no_single_triangle_sites():
    # every pair of triangles on the 7-vertex torus shares a vertex
    with pytest.raises(InvalidSite):
        find_disc_pair(moebius_kantor_torus())
