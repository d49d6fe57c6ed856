import pytest

from toposurge.manifolds import STOCK, OneManifold
from toposurge.solid import (
    KINDS,
    Layer,
    SolidFamily,
    classify_layer,
    cross_section_check,
    solid_surgery,
)

LIMIT_RULES = {
    # kind -> (forward input limit, forward output limit)
    "solid_1d_0": ("point", "two_points"),
    "solid_2d_0": ("point", "circle"),
    "solid_2d_1": ("point", "two_points"),
}

LAYER_RULES = {
    "solid_1d_0": ("circle", "two_circles"),
    "solid_2d_0": ("sphere", "torus"),
    "solid_2d_1": ("sphere", "two_spheres"),
}


def layer_types(fam):
    return {l.layer_type for l in fam.layers}


@pytest.mark.parametrize("kind", KINDS)
def test_forward_limit_and_layer_rules(kind):
    fam_in, fam_out = solid_surgery(kind, 5, "forward")
    lim_in, lim_out = LIMIT_RULES[kind]
    lay_in, lay_out = LAYER_RULES[kind]
    assert fam_in.limit == lim_in and fam_out.limit == lim_out
    assert layer_types(fam_in) == {lay_in}
    assert layer_types(fam_out) == {lay_out}


@pytest.mark.parametrize("kind", KINDS)
def test_dual_inverts_the_forward_surgery(kind):
    fwd_in, fwd_out = solid_surgery(kind, 3, "forward")
    dual_in, dual_out = solid_surgery(kind, 3, "dual")
    assert layer_types(dual_in) == layer_types(fwd_out)
    assert layer_types(dual_out) == layer_types(fwd_in)
    assert dual_in.limit == fwd_out.limit
    assert dual_out.limit == fwd_in.limit


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("direction", ("forward", "dual"))
def test_layer_types_are_certified_by_invariants(kind, direction):
    fam_in, fam_out = solid_surgery(kind, 2, direction)
    for fam in (fam_in, fam_out):
        for layer in fam.layers:
            assert classify_layer(layer.manifold) == layer.layer_type


def test_radii_schedule():
    fam_in, fam_out = solid_surgery("solid_2d_0", 4)
    radii = [l.radius for l in fam_in.layers]
    assert radii == [0.25, 0.5, 0.75, 1.0]
    assert [l.radius for l in fam_out.layers] == radii


def test_single_layer_family():
    fam_in, fam_out = solid_surgery("solid_2d_1", 1)
    assert len(fam_in.layers) == len(fam_out.layers) == 1
    assert fam_out.limit == "two_points"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("direction", ("forward", "dual"))
def test_cross_sections_match_the_lower_dimension(kind, direction):
    fam_in, fam_out = solid_surgery(kind, 3, direction)
    for fam in (fam_in, fam_out):
        rep = cross_section_check(fam)
        assert rep.match, rep
        assert all(e.match for e in rep.entries)
        assert rep.limit_match


def test_torus_sections_are_two_circles():
    _, fam_out = solid_surgery("solid_2d_0", 2)
    rep = cross_section_check(fam_out)
    assert {e.section_circles for e in rep.entries} == {2}
    assert rep.limit_section == "two_points"  # the limit circle cuts the plane twice


def test_ball_sections_are_single_circles():
    fam_in, _ = solid_surgery("solid_2d_0", 2)
    rep = cross_section_check(fam_in)
    assert {e.section_circles for e in rep.entries} == {1}
    assert rep.limit_section == "point"


def test_unsupported_kind_errors():
    with pytest.raises(ValueError):
        solid_surgery("solid_3d_0", 2)
    with pytest.raises(ValueError):
        solid_surgery("solid_2d_0", 0)
    with pytest.raises(ValueError):
        solid_surgery("solid_2d_0", 2, "sideways")
    bogus = SolidFamily("solid_9d_9", "input", "forward", (), "point")
    with pytest.raises(ValueError):
        cross_section_check(bogus)


def test_layer_without_a_section_rule_is_refused():
    g2 = STOCK["genus_g"](2)
    fam = SolidFamily("solid_2d_0", "output", "forward", (Layer(1.0, g2, classify_layer(g2)),),
                      "circle")
    with pytest.raises(ValueError, match=r"^layer type 'other' has no section rule$"):
        cross_section_check(fam)


@pytest.mark.parametrize("cycles, chains", [
    ((), ((0, 1),)),
    ((), ((0, 1), (2,))),
    (((0, 1, 2),), ((3, 4),)),
])
def test_a_curve_with_a_chain_is_no_circle(cycles, chains):
    """A chain counts 1 in a curve's Euler characteristic, a cycle 0: only
    a curve of cycles alone is named by its number of circles."""
    assert classify_layer(OneManifold(cycles, chains)) == "other"
