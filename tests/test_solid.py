import json
from pathlib import Path

import pytest

from toposurge import cli, solid
from toposurge.manifolds import STOCK, OneManifold, circle
from toposurge.solid import (
    DIRECTIONS,
    KINDS,
    SolidFamily,
    classify_layer,
    cross_section_check,
    solid_surgery,
)

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("kind", KINDS)
def test_forward_limit_and_layer_rules(kind):
    fam_in, fam_out = solid_surgery(kind, 5, "forward")
    lim_in, lim_out = LIMIT_RULES[kind]
    lay_in, lay_out = LAYER_RULES[kind]
    assert fam_in.limit == lim_in and fam_out.limit == lim_out
    assert fam_in.layer_type == lay_in
    assert fam_out.layer_type == lay_out


@pytest.mark.parametrize("kind", KINDS)
def test_dual_inverts_the_forward_surgery(kind):
    fwd_in, fwd_out = solid_surgery(kind, 3, "forward")
    dual_in, dual_out = solid_surgery(kind, 3, "dual")
    assert dual_in.layer_type == fwd_out.layer_type
    assert dual_out.layer_type == fwd_in.layer_type
    assert dual_in.limit == fwd_out.limit
    assert dual_out.limit == fwd_in.limit


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("direction", ("forward", "dual"))
def test_layer_types_are_certified_by_invariants(kind, direction):
    fam_in, fam_out = solid_surgery(kind, 2, direction)
    for fam in (fam_in, fam_out):
        assert classify_layer(fam.layer) == fam.layer_type


def test_radii_schedule():
    fam_in, fam_out = solid_surgery("solid_2d_0", 4)
    assert fam_in.radii == (0.25, 0.5, 0.75, 1.0)
    assert fam_out.radii == fam_in.radii


def test_single_layer_family():
    fam_in, fam_out = solid_surgery("solid_2d_1", 1)
    assert fam_in.radii == fam_out.radii == (1.0,)
    assert fam_out.limit == "two_points"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("direction", ("forward", "dual"))
def test_cross_sections_match_the_lower_dimension(kind, direction):
    fam_in, fam_out = solid_surgery(kind, 3, direction)
    for fam in (fam_in, fam_out):
        rep = cross_section_check(fam)
        assert rep.match, rep
        assert rep.section_circles == rep.expected_circles
        assert rep.limit_section == rep.expected_limit
        assert rep.radii == fam.radii and rep.layer_type == fam.layer_type


def test_torus_sections_are_two_circles():
    _, fam_out = solid_surgery("solid_2d_0", 2)
    rep = cross_section_check(fam_out)
    assert rep.section_circles == 2
    assert rep.limit_section == "two_points"  # the limit circle cuts the plane twice


def test_ball_sections_are_single_circles():
    fam_in, _ = solid_surgery("solid_2d_0", 2)
    rep = cross_section_check(fam_in)
    assert rep.section_circles == 1
    assert rep.limit_section == "point"


def test_unsupported_kind_errors():
    with pytest.raises(ValueError):
        solid_surgery("solid_3d_0", 2)
    with pytest.raises(ValueError):
        solid_surgery("solid_2d_0", 0)
    with pytest.raises(ValueError):
        solid_surgery("solid_2d_0", 2, "sideways")
    for n_layers in (2.5, "3", None):
        with pytest.raises(ValueError, match="^n_layers must be an integer$"):
            solid_surgery("solid_2d_0", n_layers)
    bogus = SolidFamily("solid_9d_9", "input", "forward", (1.0,), OneManifold(((0, 1, 2),)))
    with pytest.raises(ValueError):
        cross_section_check(bogus)


def test_a_family_is_read_off_its_layer():
    fam = SolidFamily("solid_1d_0", "input", "forward", (0.5, 1.0), circle(8))
    assert fam.layer_type == "circle" and fam.limit == "point" and fam.section_circles == 1


def test_layer_without_a_section_rule_is_refused():
    g2 = STOCK["genus_g"](2)
    fam = SolidFamily("solid_2d_0", "output", "forward", (1.0,), g2)
    assert (fam.layer_type, fam.limit, fam.section_circles) == ("other", None, None)
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


@pytest.mark.parametrize("kind", KINDS)
def test_invariants_are_read_per_family_not_per_layer(kind, monkeypatch, capsys):
    """A family is one complex, read once when it is built: solid-demo reads
    invariants once for each family of its pair and each of the two 1-D
    references, at 1,000 layers as at one."""
    real, calls = solid.invariants, []

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(solid, "invariants", counted)
    short = kind.removeprefix("solid_").replace("_", "")
    for direction in DIRECTIONS:
        for n_layers in (1, 1000):
            calls.clear()
            argv = ["solid-demo", "--kind", short, "--direction", direction,
                    "--layers", str(n_layers)]
            assert cli.main(argv) == 0
            capsys.readouterr()
            assert len(calls) == 6, (direction, n_layers)


def test_more_layers_repeat_the_layer_at_the_new_radii(capsys):
    """solid-demo at 5 layers is the 2-layer golden with its per-layer entry
    repeated at the radii i/5."""
    golden = json.loads((GOLDEN / "solid_2d0_forward_layers2.json").read_text())
    assert cli.main(["solid-demo", "--kind", "2d0", "--layers", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    radii = [0.2, 0.4, 0.6, 0.8, 1.0]
    for section in (golden["input"], golden["output"], *golden["cross_sections"].values()):
        layer = section["layers"][-1]
        assert section["layers"][0] == {**layer, "radius": 0.5}
        section["layers"] = [{**layer, "radius": r} for r in radii]
    assert doc == golden
