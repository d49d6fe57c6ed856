import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toposurge.manifolds import invariants
from toposurge.morse import _extract_frame, _frame_curve, _scan, morse_frames
from toposurge.surgery import CurveSite, GluingMap, surgery_1d_0


def test_branch_counts_through_the_reconnection():
    neg, zero, pos = morse_frames([-1.0, 0.0, 1.0])
    assert neg.branch_count == 2 and not neg.degenerate
    assert zero.degenerate
    assert pos.branch_count == 2 and not pos.degenerate


def test_negative_branches_open_in_y():
    (f,) = morse_frames([-1.0])
    for pl in f.polylines:
        ys = [p[1] for p in pl]
        # each branch stays on one side of the x-axis
        assert min(ys) > 0 or max(ys) < 0


def test_positive_branches_cross_the_x_axis():
    (f,) = morse_frames([1.0])
    assert f.branch_count == 2
    for pl in f.polylines:
        ys = [p[1] for p in pl]
        assert min(ys) < 0 < max(ys)


def test_points_lie_on_the_level_set():
    for f in morse_frames([-1.5, -0.5, 0.5, 1.5], box=2.0, resolution=96):
        for pl in f.polylines:
            for x, y in pl:
                assert abs(x * x - y * y - f.t) <= f.grid_tolerance


def test_mirror_symmetry():
    for f in morse_frames([-1.0, 1.0]):
        pts = {(round(x, 9), round(y, 9)) for pl in f.polylines for x, y in pl}
        assert {(round(-x, 9), round(y, 9)) for x, y in pts} == pts
        assert {(round(x, 9), round(-y, 9)) for x, y in pts} == pts


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_two_branches_away_from_the_saddle_value(t):
    (f,) = morse_frames([t], box=2.0, resolution=64)
    if abs(t) > f.grid_tolerance:
        assert not f.degenerate
        assert f.branch_count == 2
    curve = _frame_curve(_scan(t, 2.0, 64))
    assert curve.cycles == ()
    assert f.branch_count == invariants(curve).components
    for pl in f.polylines:
        for x, y in pl:
            assert abs(x * x - y * y - f.t) <= f.grid_tolerance


def test_validation_errors():
    with pytest.raises(ValueError):
        morse_frames([])
    with pytest.raises(ValueError):
        morse_frames([0.0], resolution=4)
    with pytest.raises(ValueError):
        morse_frames([0.0], box=-1.0)
    with pytest.raises(ValueError, match="finite"):
        morse_frames([0.0], box=math.inf)
    with pytest.raises(ValueError, match="finite"):
        morse_frames([0.0, math.nan])
    for resolution in (64.0, "64", None):
        with pytest.raises(ValueError, match="^resolution must be an integer$"):
            morse_frames([0.5], resolution=resolution)
    for box, t in (("2", 1.0), (None, 1.0), (2j, 1.0), (2.0, "0.5"), (2.0, None), (2.0, 0.5j)):
        with pytest.raises(ValueError, match="^box and t values must be real numbers$"):
            morse_frames([1.0, t], box=box)
    with pytest.raises(ValueError, match="^t values must be an iterable of real numbers$"):
        morse_frames(1.0)
    # an iterator, a generator and an array of t give the list's frames
    frames = morse_frames([1.0, -1.0], resolution=8)
    assert [f.branch_count for f in frames] == [2, 2]
    for t_values in (iter([1.0, -1.0]), (t for t in (1.0, -1.0)), np.array([1.0, -1.0])):
        again = morse_frames(t_values, resolution=8)
        assert again == frames
        assert all(type(f.t) is float for f in again)


def test_box_whose_saddle_values_overflow_is_refused():
    # unchecked, x * x overflows: NaN polylines at 1e200, no branch at 1e308
    overflows = r"^box and t are too large: x\^2 - y\^2 - t overflows$"
    for box in (1e200, 1e308, 10**200, 10**400):
        with pytest.raises(ValueError, match=overflows):
            morse_frames([1.0], box=box, resolution=8)
    # a t past float range given as an int
    for t in (10**400, -10**400):
        with pytest.raises(ValueError, match="^t values must be finite$"):
            morse_frames([t], resolution=8)
    # an int box in range is stored as given
    (frame,) = morse_frames([1.0], box=2, resolution=8)
    assert frame.box == 2 and type(frame.box) is int
    assert frame == morse_frames([1.0], box=2.0, resolution=8)[0]


def _reference_segments(t, box, resolution):
    """The segments as scanned from a full grid of corner values, each cell
    listing its corners and signs."""
    n = resolution
    h = 2.0 * box / n
    xs = [-box + i * h for i in range(n + 1)]
    tiny = 1e-300
    vals = [[(x * x - y * y - t) or tiny for y in xs] for x in xs]
    segments = []

    def interp(i0, j0, i1, j1):
        v0 = vals[i0][j0]
        v1 = vals[i1][j1]
        s = v0 / (v0 - v1)
        return (xs[i0] + s * (xs[i1] - xs[i0]), xs[j0] + s * (xs[j1] - xs[j0]))

    for i in range(n):
        for j in range(n):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            signs = [vals[a][b] > 0 for a, b in corners]
            if all(signs) or not any(signs):
                continue
            crossings = []
            for ca, cb in [(0, 1), (1, 2), (2, 3), (3, 0)]:
                (ia, ja), (ib, jb) = corners[ca], corners[cb]
                if signs[ca] != signs[cb]:
                    eid = ((ia, ja), (ib, jb)) if (ia, ja) < (ib, jb) else ((ib, jb), (ia, ja))
                    crossings.append((eid, interp(ia, ja, ib, jb)))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                cx = 0.25 * sum(vals[a][b] for a, b in corners)
                pairing = [(0, 3), (1, 2)] if (cx > 0) == signs[0] else [(0, 1), (2, 3)]
                for p, q in pairing:
                    segments.append((crossings[p], crossings[q]))
    return segments


@pytest.mark.parametrize("resolution", [8, 64, 256])
def test_frames_match_the_full_grid_reference(resolution):
    box = 2.0
    h = 2.0 * box / resolution
    tol = h * h
    xs = [-box + i * h for i in range(resolution + 1)]
    # the grid nodes (i, j) with x_i^2 - y_j^2 = t give an exact zero
    node_zero = xs[resolution // 2 + 3] ** 2 - xs[resolution // 2 - 1] ** 2
    for t in (-1.0, 0.0, 1.0, tol, -tol, node_zero):
        want = _reference_segments(t, box, resolution)
        assert _scan(t, box, resolution) == want, t
        assert want


def test_a_cell_with_no_sign_change_makes_no_builtin_call():
    # x^2 - y^2 - t < 0 on the whole box, so no cell changes sign; the
    # full-grid scan made two calls a cell, all() and any()
    def builtin_calls(resolution):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "c_call":
                calls += 1

        sys.setprofile(profile)
        try:
            frame = _extract_frame(5.0, 2.0, resolution)
        finally:
            sys.setprofile(None)
        assert frame.polylines == ()
        return calls

    assert builtin_calls(64) == builtin_calls(8)


def test_polylines_are_pinned_bit_for_bit():
    # every point and its order, as the polylines were before they went
    # through the junction walk (commit 1cf346c)
    digest = hashlib.sha256()
    for box in (2.0, 0.5):
        for resolution in (8, 64, 256):
            h = 2.0 * box / resolution
            tol = h * h
            xs = [-box + i * h for i in range(resolution + 1)]
            node_zero = xs[resolution // 2 + 3] ** 2 - xs[resolution // 2 - 1] ** 2
            ts = [-1.0, -tol, 0.0, tol, 1.0, 0.37, node_zero]
            for f in morse_frames(ts, box=box, resolution=resolution):
                digest.update(repr(f.polylines).encode())
    assert digest.hexdigest() == (
        "086780de0c85615aa95f41bc3e6b411a64cc89f8f6b464117b40b787bbb401b1")


def _end_pairs(segments, curve):
    """Each chain's two box-edge ends, labelled by quadrant."""
    def quadrant(si):
        x, y = segments[si][0][1]
        return (x > 0, y > 0)

    return {frozenset((quadrant(c[0]), quadrant(c[-1]))) for c in curve.chains}


@pytest.mark.parametrize("t", [-1.0, -0.3])
def test_surgery_at_the_saddle_reconnects_the_ends_as_the_frame_past_it(t):
    # the 0-surgery of the reconnection, in dimension 1: cut each branch at
    # its arc nearest the saddle and glue; one gluing gives the frame at -t
    segments = _scan(t, 2.0, 64)
    curve = _frame_curve(segments)

    def saddle_distance(si):
        (_, (x0, y0)), (_, (x1, y1)) = segments[si]
        return (x0 + x1) ** 2 + (y0 + y1) ** 2

    site = CurveSite(tuple(min(c, key=lambda si: (saddle_distance(si), si))
                           for c in curve.chains))
    past = _scan(-t, 2.0, 64)
    want = _end_pairs(past, _frame_curve(past))
    ne, nw, sw, se = (True, True), (False, True), (False, False), (True, False)
    assert _end_pairs(segments, curve) == {frozenset((ne, nw)), frozenset((sw, se))}
    assert want == {frozenset((ne, se)), frozenset((nw, sw))}
    straight, crosswise = (surgery_1d_0(curve, site, GluingMap(orientation_flip=flip))
                           for flip in (False, True))
    assert _end_pairs(segments, crosswise) == want
    assert _end_pairs(segments, straight) == {frozenset((ne, sw)), frozenset((nw, se))}
    assert straight.cycles == crosswise.cycles == ()
