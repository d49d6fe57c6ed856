import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from toposurge.dynamics import (
    SystemParams,
    classify_eigenvalues,
    eigen,
    equilibria,
    jacobian,
    region,
    rhs,
    slow_manifold,
    steady_states,
)
from toposurge.serialize import slow_manifold_to_dict


def fd_jacobian(s, p, step=1e-6):
    """Central-difference oracle, independent of the analytic derivatives."""
    out = [[0.0] * 3 for _ in range(3)]
    for j in range(3):
        h = step * max(1.0, abs(s[j]))
        up = list(s)
        dn = list(s)
        up[j] += h
        dn[j] -= h
        fu = rhs(tuple(up), p)
        fd = rhs(tuple(dn), p)
        for i in range(3):
            out[i][j] = (fu[i] - fd[i]) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# right-hand side and Jacobian
# ---------------------------------------------------------------------------

def test_rhs_hand_values():
    p = SystemParams(3, 3, 3)
    assert rhs((0, 0, 0), p) == (0, 0, 0)
    assert rhs((1, 4, 0), p) == (0, 0, 0)
    # by substitution: f1 = 2 - 2 + 12 - 12, f2 = -1 + 2, f3 = -3 + 12
    assert rhs((2, 1, 1), p) == (0, 1, 9)


def test_jacobian_matches_frozen_matrices():
    p = SystemParams(3, 3, 3)
    assert jacobian((1, 4, 0), p) == ((3, -1, -3), (4, 0, 0), (0, 0, 0))
    j3 = jacobian((1, 0, 4 / 3), p)
    assert j3 == ((-1, -1, -3), (0, 0, 0), (8, 0, 0))


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.3, max_value=5),
    st.floats(min_value=0.3, max_value=5),
    st.floats(min_value=0.3, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_jacobian_agrees_with_finite_differences(x, y, z, a, b, c):
    p = SystemParams(a, b, c)
    jan = jacobian((x, y, z), p)
    jfd = fd_jacobian((x, y, z), p)
    for i in range(3):
        for j in range(3):
            assert jan[i][j] == pytest.approx(jfd[i][j], abs=1e-6)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_steady_state_coordinates():
    ss = steady_states(SystemParams(3, 3, 3))
    assert ss["S1"] == (0, 0, 0)
    assert ss["S2"] == (1, 4, 0)
    assert ss["S3"] == pytest.approx((1, 0, 4 / 3))
    ss = steady_states(SystemParams(2.9851, 3, 3))
    assert ss["S3"][0] == pytest.approx(math.sqrt(3 / 2.9851), abs=1e-12)
    assert ss["S3"][0] == pytest.approx(1.0024926, abs=1e-6)


def test_steady_states_are_roots_on_a_grid():
    vals = [0.5, 1.625, 2.75, 3.875, 5.0]
    for a in vals:
        for b in vals:
            for c in vals:
                p = SystemParams(a, b, c)
                for coords in steady_states(p).values():
                    f = rhs(coords, p)
                    assert math.sqrt(sum(x * x for x in f)) < 1e-12


# ---------------------------------------------------------------------------
# eigen solver
# ---------------------------------------------------------------------------

def test_origin_eigenvalues_are_exact():
    p = SystemParams(3, 3, 3)
    e = eigen(jacobian((0, 0, 0), p))
    got = sorted(z.real for z in e.eigenvalues)
    for g, want in zip(got, (-3.0, -1.0, 1.0)):
        assert abs(g - want) < 1e-12
    assert all(abs(z.imag) == 0 for z in e.eigenvalues)


def test_s2_eigenvalues_match_published_values():
    p = SystemParams(3, 3, 3)
    e = eigen(jacobian((1, 4, 0), p))
    lams = sorted(e.eigenvalues, key=lambda z: (z.real, z.imag))
    assert abs(lams[0]) < 1e-12                       # the zero eigenvalue
    assert lams[2] == pytest.approx(complex(1.5, 1.3229), abs=1e-3)
    # closed form: the pair solves lambda^2 - C lambda + (1 + C) = 0
    pair = lams[2]
    assert abs(pair * pair - 3 * pair + 4) < 1e-12


def test_s2_real_eigenvalue_is_a_minus_b():
    for a, b, c in ((2.9851, 3, 3), (2.5, 3, 1), (4, 3.5, 2)):
        p = SystemParams(a, b, c)
        e = eigen(jacobian(steady_states(p)["S2"], p))
        reals = [z.real for z in e.eigenvalues if abs(z.imag) < 1e-9]
        assert len(reals) == 1
        assert reals[0] == pytest.approx(a - b, abs=1e-10)


def test_s3_real_eigenvalue_is_sqrt_ratio_minus_one():
    p = SystemParams(2.9851, 3, 3)
    e = eigen(jacobian(steady_states(p)["S3"], p))
    reals = [z.real for z in e.eigenvalues if abs(z.imag) < 1e-9]
    assert reals[0] == pytest.approx(math.sqrt(3 / 2.9851) - 1, abs=1e-10)


def test_s3_pair_solves_its_characteristic_quadratic():
    # at A=B=C=3 the S3 block reduces to lambda (lambda^2 + lambda + 24) = 0
    p = SystemParams(3, 3, 3)
    e = eigen(jacobian((1, 0, 4 / 3), p))
    pair = [z for z in e.eigenvalues if z.imag > 0][0]
    root = (-1 + cmath.sqrt(complex(1 - 96, 0))) / 2
    assert abs(pair - root) < 1e-9


def test_eigen_residuals_are_tiny():
    for params in (SystemParams(3, 3, 3), SystemParams(2.9851, 3, 3)):
        for e in equilibria(params):
            assert max(e.eigen.residuals) < 1e-9


def test_eigen_rejects_non_finite():
    with pytest.raises(ValueError):
        eigen(((math.nan, 0, 0), (0, 1, 0), (0, 0, 1)))


@given(st.lists(st.floats(min_value=-8, max_value=8), min_size=9, max_size=9))
@settings(max_examples=120, deadline=None)
def test_eigen_agrees_with_numpy(entries):
    m = tuple(tuple(entries[3 * i : 3 * i + 3]) for i in range(3))
    theirs = np.linalg.eigvals(np.array(m))
    # skip near-degenerate spectra where root matching is ill-conditioned
    gaps = [abs(a - b) for i, a in enumerate(theirs) for b in theirs[i + 1 :]]
    assume(min(gaps) > 1e-3)
    mine = eigen(m).eigenvalues
    for z in mine:
        assert min(abs(z - w) for w in theirs) < 1e-6 * (1 + np.abs(theirs).max())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_published_classifications():
    by_label = {e.label: e for e in equilibria(SystemParams(3, 3, 3))}
    assert by_label["S1"].stability_class == "saddle"
    assert by_label["S2"].stability_class == "unstable_center"
    assert by_label["S3"].stability_class == "stable_center"
    by_label = {e.label: e for e in equilibria(SystemParams(2.9851, 3, 3))}
    assert by_label["S1"].stability_class == "saddle"
    assert by_label["S2"].stability_class == "inward_unstable_vortex"
    assert by_label["S3"].stability_class == "outward_stable_vortex"


def test_saddle_for_any_parameters():
    rng = random.Random(5)
    for _ in range(25):
        p = SystemParams(rng.uniform(0.2, 6), rng.uniform(0.2, 6), rng.uniform(0.2, 6))
        e = [r for r in equilibria(p) if r.label == "S1"][0]
        assert e.stability_class == "saddle"


@given(st.permutations([0, 1, 2]))
def test_classification_ignores_eigenvalue_order(perm):
    lams = (complex(0, 0), complex(1.5, -1.3229), complex(1.5, 1.3229))
    shuffled = tuple(lams[i] for i in perm)
    assert classify_eigenvalues(shuffled) == "unstable_center"


def test_unclassified_fallbacks():
    assert classify_eigenvalues((1 + 0j, 2 + 0j, 3 + 0j)) == "unclassified"
    assert classify_eigenvalues((-1 + 0j, -2 + 0j, -3 + 0j)) == "unclassified"
    # same-sign real with a pair of matching sign: no rule applies
    assert classify_eigenvalues((1 + 0j, 1 + 1j, 1 - 1j)) == "unclassified"


# ---------------------------------------------------------------------------
# regions and the slow manifold
# ---------------------------------------------------------------------------

def test_region_assignments():
    assert region(SystemParams(3, 3, 3)) == "region_a"
    assert region(SystemParams(2.9851, 3, 3)) == "region_b"
    assert region(SystemParams(3, 3, 6)) == "other"  # C above 2 (1 + sqrt 2)
    assert region(SystemParams(3, 2.9, 3)) == "other"  # B/A below 1


def test_slow_manifold_geometry():
    p = SystemParams(3, 3, 3)
    sm = slow_manifold(p)
    assert sm.exists
    assert sm.center == (1, 1, 1)
    # L is X = 1, Z = (1 + C - Y) / A: attracting for 0 < Y < 1, repelling
    # for 1 < Y < 1 + C
    doc = slow_manifold_to_dict(sm)
    assert doc["attracting_segment_Y"] == [0.0, 1.0]
    assert doc["repelling_segment_Y"] == [1.0, 4.0]
    u, e1, e2 = sm.axis_frame()
    for v in (u, e1, e2):
        assert sum(x * x for x in v) == pytest.approx(1.0)
    assert sum(a * b for a, b in zip(u, e1)) == pytest.approx(0.0, abs=1e-14)


def test_line_of_steady_states_in_region_a():
    p = SystemParams(3, 3, 3)
    assert slow_manifold(p).exists
    # every point (1, Y, (1 + C - Y) / A) of L is steady
    for y in np.linspace(0.0, 1.0 + p.C, 23).tolist():
        f = rhs((1.0, y, (1.0 + p.C - y) / p.A), p)
        assert math.sqrt(sum(x * x for x in f)) < 1e-12


def test_off_locus_manifold_is_the_chord():
    p = SystemParams(2.9851, 3, 3)
    sm = slow_manifold(p)
    assert not sm.exists
    ss = steady_states(p)
    assert sm.s2 == ss["S2"]
    assert sm.s3 == ss["S3"]


def test_positive_parameter_validation():
    with pytest.raises(ValueError):
        SystemParams(0, 3, 3)
    with pytest.raises(ValueError):
        SystemParams(3, -1, 3)
    with pytest.raises(ValueError, match="finite"):
        SystemParams(math.inf, 3, 3)
    with pytest.raises(ValueError):
        SystemParams(3, 3, math.nan)
