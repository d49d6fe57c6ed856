import math

import pytest
from hypothesis import given, settings, strategies as st

from toposurge.morse import morse_frames


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


def test_box_whose_saddle_values_overflow_is_refused():
    # unchecked, x * x overflows: NaN polylines at 1e200, no branch at 1e308
    for box in (1e200, 1e308):
        with pytest.raises(ValueError, match="overflows"):
            morse_frames([1.0], box=box, resolution=8)
