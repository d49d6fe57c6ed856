import bisect
import functools
import math

import numpy as np
import pytest

from toposurge import orbits
from toposurge.dynamics import SystemParams, rhs, slow_manifold
from toposurge.integrate import Trajectory, hermite_weights, integrate
from toposurge.orbits import (
    EPS_AXIS,
    LimitCycleNotFound,
    WindingProfile,
    _axis_coordinates,
    _embed,
    _first_return,
    _half_plane,
    classify_shell,
    detect_limit_cycle,
    poincare,
    section_sequence,
    tube_turns,
    winding_profile,
)
from conftest import PARAMS_A, PARAMS_B


def test_constant_orbit_has_empty_section():
    traj = integrate(PARAMS_A, (1, 1, 1), 50.0)
    sm = slow_manifold(PARAMS_A)
    assert poincare(traj, sm.center, (0, 1, 0)) == []


def test_zero_normal_rejected():
    traj = integrate(PARAMS_A, (1, 1.3, 0.89), 5.0)
    with pytest.raises(ValueError):
        poincare(traj, (1, 1, 1), (0, 0, 0))


def test_two_crossings_per_revolution(reference_orbits):
    # a plane containing the winding axis is crossed once per side per turn
    traj = reference_orbits["a"][(1.0, 1.3, 0.89)]
    sm = slow_manifold(PARAMS_A)
    crossings = poincare(traj, sm.center, (1, 0, 0))
    n_up = sum(1 for c in crossings if c.direction > 0)
    n_down = sum(1 for c in crossings if c.direction < 0)
    turns = abs(winding_profile(traj, sm).total_turns)
    assert abs(n_up - n_down) <= 1
    assert abs((n_up + n_down) / turns - 2.0) < 0.05


def test_crossing_count_matches_brute_force(reference_orbits):
    traj = reference_orbits["a"][(1.0, 1.3, 0.89)]
    sm = slow_manifold(PARAMS_A)
    normal = np.array([0.0, 1.0, 0.0])
    crossings = poincare(traj, sm.center, tuple(normal))
    g = (np.asarray(traj.states) - np.asarray(sm.center)) @ normal
    brute = int((g[:-1] * g[1:] < 0).sum())
    assert len(crossings) == brute
    for c in crossings:
        gap = abs((np.asarray(c.state) - np.asarray(sm.center)) @ normal)
        assert gap < 1e-9


def _bisect_crossing_reference(traj, i, point, normal, on_lo_side, rel_tol):
    """The crossing locator as a 3-D reference: bisection on the state
    interpolant, squared with ** 2, each midpoint projected onto the
    normal; on_lo_side(g) says whether g lies on step i's side."""
    t0, t1 = traj.t[i:i + 2].tolist()
    y0, y1 = traj.states[i:i + 2].tolist()
    f0, f1 = rhs(y0, traj.params), rhs(y1, traj.params)

    def hermite(tq):
        h = t1 - t0
        s = (tq - t0) / h
        h00, h10 = (1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2
        h01, h11 = s * s * (3 - 2 * s), s * s * (s - 1)
        return tuple(h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
                     for a, b, fa, fb in zip(y0, y1, f0, f1))

    t_lo, t_hi = t0, t1
    for _ in range(60):
        t_mid = 0.5 * (t_lo + t_hi)
        if on_lo_side((np.asarray(hermite(t_mid)) - point) @ normal):
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo <= rel_tol * max(1.0, abs(t_hi)):
            break
    t_c = 0.5 * (t_lo + t_hi)
    return t_c, hermite(t_c)


PLANE_NORMALS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, -1.0, 1.0))


def _nine_orbits(reference_orbits):
    return ([(PARAMS_A, tr) for tr in reference_orbits["a"].values()]
            + [(PARAMS_A, reference_orbits["stationary"])]
            + [(PARAMS_B, tr) for tr in reference_orbits["b"].values()])


def _sign_changes(traj, point, normal):
    g = (traj.states - point) @ normal
    return g, np.nonzero(g[:-1] * g[1:] < 0.0)[0]


def test_crossings_match_the_3d_bisection_reference(reference_orbits):
    # Over all 36,453 crossings of these planes the two differ by at most
    # 5.9e-12 in the state and 7.8e-9 in time; a time difference beyond the
    # bracket width times |g'| is at most 3.1e-16, rounding in g, so a
    # near-tangential crossing may move far in t.  Every 16th is checked.
    for p, traj in _nine_orbits(reference_orbits):
        point = np.asarray(slow_manifold(p).center)
        for normal in PLANE_NORMALS:
            n = np.asarray(normal) / np.linalg.norm(normal)
            g, i = _sign_changes(traj, point, n)
            t_c, y_c = orbits._bisect_crossings(traj, i, point, n, 1e-14)
            assert t_c.shape == (len(i),) and y_c.shape == (len(i), 3)
            for k in range(0, len(i), 16):
                lo_positive = g[i[k]] > 0
                t_r, y_r = _bisect_crossing_reference(
                    traj, i[k], point, n, lambda v: (v > 0) == lo_positive, 1e-14)
                slope = abs(np.asarray(rhs(tuple(y_c[k]), p)) @ n)
                assert abs(t_c[k] - t_r) <= 1e-14 * max(1.0, t_r) + 1e-15 / slope
                assert np.abs(y_c[k] - y_r).max() <= 1e-11


def test_each_bracket_is_at_most_rel_tol_wide(reference_orbits):
    # bisection is nested: a run to a looser tolerance stops at a bracket
    # that holds every later one, so its midpoint lies within half that
    # bracket's width of the midpoint at 1e-14
    for p, traj in _nine_orbits(reference_orbits):
        point = np.asarray(slow_manifold(p).center)
        n = np.array([1.0, 0.0, 0.0])
        _, i = _sign_changes(traj, point, n)
        fine, _ = orbits._bisect_crossings(traj, i, point, n, 1e-14)
        for rel_tol in (1e-3, 1e-7, 1e-11, 1e-13):
            coarse, _ = orbits._bisect_crossings(traj, i, point, n, rel_tol)
            width = rel_tol * np.maximum(1.0, coarse) * (1.0 + rel_tol)
            assert (np.abs(fine - coarse) <= 0.5 * width).all()


def test_crossings_are_refined_onto_the_plane(reference_orbits):
    traj = reference_orbits["a"][(1.0, 1.59, 0.81)]
    sm = slow_manifold(PARAMS_A)
    for c in poincare(traj, sm.center, (1, 0, 0))[:20]:
        assert abs(c.state[0] - 1.0) < 1e-9


def test_constant_orbit_winds_zero_turns():
    traj = integrate(PARAMS_A, (1, 1, 1), 50.0)
    prof = winding_profile(traj, slow_manifold(PARAMS_A))
    assert prof.total_turns == 0.0
    assert prof.skipped == len(traj)  # the centre sits on the axis


def test_region_a_turns_once_per_recurrence(reference_orbits):
    # each azimuthal revolution is the orbit's short period; the net
    # winding per revolution is one turn by construction
    traj = reference_orbits["a"][(1.0, 1.3, 0.89)]
    sm = slow_manifold(PARAMS_A)
    prof = winding_profile(traj, sm)
    crossings = [c for c in poincare(traj, sm.center, (1, 0, 0)) if c.direction > 0]
    periods = np.diff([c.t for c in crossings])
    turns_per_period = abs(prof.total_turns) * periods.mean() / (traj.t[-1] - traj.t[0])
    assert turns_per_period <= 1.0 + 1e-2


def test_region_b_drills_many_turns(reference_orbits):
    traj = reference_orbits["b"][(1.0, 1.0, 0.9)]
    prof = winding_profile(traj, slow_manifold(PARAMS_B))
    assert abs(prof.total_turns) >= 10.0
    assert prof.monotone_fraction >= 0.99


def test_winding_azimuth_gaps_are_small(reference_orbits):
    prof = winding_profile(reference_orbits["a"][(1.0, 1.59, 0.81)], slow_manifold(PARAMS_A))
    assert np.abs(np.diff(prof.theta)).max() < math.pi


def _hermite_by_scalar_rhs(traj, tq):
    """Trajectory.state_at at one time in Python floats, with the slopes
    from scalar rhs at both ends of the step."""
    i = min(max(bisect.bisect_right(traj.t.tolist(), tq) - 1, 0), len(traj) - 2)
    t0, t1 = traj.t[i:i + 2].tolist()
    y0, y1 = traj.states[i:i + 2].tolist()
    f0, f1 = rhs(y0, traj.params), rhs(y1, traj.params)
    h = t1 - t0
    h00, h10, h01, h11 = hermite_weights((tq - t0) / h)
    h10, h11 = h10 * h, h11 * h
    return tuple(h00 * a + h10 * fa + h01 * b + h11 * fb
                 for a, b, fa, fb in zip(y0, y1, f0, f1))


def _winding_profile_by_list_insert(traj, axis):
    """winding_profile as a scalar reference: each gap midpoint is put into
    Python lists one at a time, last gap first."""
    ts = traj.t.tolist()
    states = [tuple(s) for s in traj.states.tolist()]
    for _ in range(24):
        h, r, x1, x2 = _axis_coordinates(np.asarray(states), _half_plane(axis))
        ok = r >= EPS_AXIS
        theta_raw = np.arctan2(x2[ok], x1[ok])
        gaps = np.abs(np.diff(theta_raw))
        gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
        bad = np.nonzero(gaps >= math.pi * 0.999)[0]
        if len(bad) == 0:
            break
        ok_idx = np.nonzero(ok)[0]
        inserts = []
        for b in bad:
            i0, i1 = ok_idx[b], ok_idx[b + 1]
            if ts[i1] - ts[i0] <= 1e-12:
                continue
            inserts.append((i0, 0.5 * (ts[i0] + ts[i1])))
        if not inserts:
            break
        for i0, t_mid in reversed(inserts):
            ts.insert(i0 + 1, t_mid)
            states.insert(i0 + 1, _hermite_by_scalar_rhs(traj, t_mid))
    h, r, x1, x2 = _axis_coordinates(np.asarray(states), _half_plane(axis))
    ok = r >= EPS_AXIS
    return WindingProfile(t=np.asarray(ts)[ok], theta=np.unwrap(np.arctan2(x2[ok], x1[ok])),
                          radius=r[ok], height=h[ok], skipped=int((~ok).sum()))


def test_gap_midpoints_match_the_list_insert_reference(reference_orbits):
    # every 32nd step of a region-b orbit leaves azimuth gaps of pi or more
    full = reference_orbits["b"][(1.0, 1.0, 0.9)]
    sparse = Trajectory(full.params, full.t[::32], full.states[::32], full.stats)
    axis = slow_manifold(PARAMS_B)
    prof = winding_profile(sparse, axis)
    ref = _winding_profile_by_list_insert(sparse, axis)
    assert len(prof.t) + prof.skipped - len(sparse) > 0
    for name in ("t", "theta", "radius", "height"):
        assert getattr(prof, name).tolist() == getattr(ref, name).tolist()
    assert prof.skipped == ref.skipped


def _section_sequence_loop(profile):
    """section_sequence as a scalar reference: one Python pass per sample."""
    th = profile.theta
    if len(th) < 2:
        return np.empty(0), np.empty(0)
    hs, rs = [], []
    two_pi = 2.0 * math.pi
    for i in range(len(th) - 1):
        a, b = th[i], th[i + 1]
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        k = math.ceil(lo / two_pi)
        while k * two_pi <= hi:
            tgt = k * two_pi
            s = (tgt - a) / (b - a)
            if 0.0 <= s <= 1.0:
                hs.append(profile.height[i] + s * (profile.height[i + 1] - profile.height[i]))
                rs.append(profile.radius[i] + s * (profile.radius[i + 1] - profile.radius[i]))
            k += 1
    return np.asarray(hs), np.asarray(rs)


def test_section_sequence_matches_the_scalar_loop(reference_orbits):
    runs = [(PARAMS_A, tr) for tr in reference_orbits["a"].values()]
    runs.append((PARAMS_A, reference_orbits["stationary"]))
    runs += [(PARAMS_B, tr) for tr in reference_orbits["b"].values()]
    for p, traj in runs:
        prof = winding_profile(traj, slow_manifold(p))
        hs, rs = section_sequence(prof)
        ref_hs, ref_rs = _section_sequence_loop(prof)
        assert hs.tolist() == ref_hs.tolist() and rs.tolist() == ref_rs.tolist()


def test_tube_turns_separates_the_regimes(reference_orbits):
    sm_a, sm_b = slow_manifold(PARAMS_A), slow_manifold(PARAMS_B)
    sphere_tt = [
        tube_turns(*section_sequence(winding_profile(tr, sm_a)))
        for tr in reference_orbits["a"].values()
    ]
    torus_tt = [
        tube_turns(*section_sequence(winding_profile(tr, sm_b)))
        for tr in reference_orbits["b"].values()
    ]
    assert max(sphere_tt) < 1.5
    assert min(torus_tt) > 3.0


def test_classify_published_sets(reference_orbits):
    for traj in reference_orbits["a"].values():
        assert classify_shell(traj).verdict == "spherical"
    for traj in reference_orbits["b"].values():
        assert classify_shell(traj).verdict == "toroidal"
    assert classify_shell(reference_orbits["stationary"]).verdict == "stationary"


def test_classification_evidence_is_populated(reference_orbits):
    c = classify_shell(reference_orbits["b"][(1.0, 1.0, 0.9)])
    for key in (
        "azimuth_turns",
        "monotone_fraction",
        "tube_turns",
        "axis_touch_ratio",
        "diameter",
    ):
        assert key in c.evidence


def test_short_orbit_is_indeterminate():
    traj = integrate(PARAMS_B, (1, 1, 0.9), 2.0)
    assert classify_shell(traj).verdict == "indeterminate"


def test_limit_cycle_converges(cycle_b):
    assert cycle_b.period > 0
    assert cycle_b.residual < 1e-9
    assert cycle_b.history[-1] < 1e-9


def test_limit_cycle_is_pinned(cycle_b):
    # the (1, 1, 1) region-b search to the last bit: the exploration seed,
    # the return map, the crossing bisection and every Newton iterate
    assert cycle_b.period == 1.443445710173627
    assert cycle_b.anchor == (1.0018837052426501, 1.0231321593472762, 1.149360653017149)
    assert cycle_b.history == (
        0.00253502366370214,
        0.001639289435934403,
        6.797577411699128e-05,
        6.111259431048919e-08,
        1.534883331544279e-14,
    )
    # the period of the same search with the exploration at rtol 1e-10: a
    # seed from a looser exploration moves only the last bits of the cycle
    assert abs(cycle_b.period - 1.4434457101736369) < 1e-12


def test_first_return_stops_at_the_crossing_of_a_full_run(monkeypatch):
    plane = origin, u, w, n = _half_plane(slow_manifold(PARAMS_B))
    q = np.array([3.15, 0.12])
    # the start's g is negative by rounding: taken as it is, the first step
    # would cross from g < 0 to g >= 0 and count as a return
    assert -1e-16 < (np.asarray(_embed(plane, q)) - origin) @ n < 0.0
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(orbits, "integrate", recorded)
    pq, period = _first_return(PARAMS_B, plane, q, 1e-10, 1e-12)
    (traj,) = runs
    assert traj.t[-2] < period <= traj.t[-1]

    # the first same-side crossing of the whole 40-unit run, the start on
    # the plane
    full = integrate(PARAMS_B, _embed(plane, q), 40.0, rtol=1e-10, atol=1e-12)
    assert full.t[:len(traj)].tolist() == traj.t.tolist()
    d = np.asarray(full.states) - origin
    g, side = d @ n, d @ w
    g[0] = 0.0
    i = next(i for i in range(len(full) - 1) if g[i] < 0.0 <= g[i + 1] and side[i + 1] > 0.0)
    t_lo, t_hi = full.t[i], full.t[i + 1]
    for _ in range(60):
        t_mid = 0.5 * (t_lo + t_hi)
        if (np.asarray(full.state_at(t_mid)) - origin) @ n < 0.0:
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo <= 1e-13 * max(1.0, t_hi):
            break
    t_c = 0.5 * (t_lo + t_hi)
    assert period == t_c
    d_c = np.asarray(full.state_at(t_c)) - origin
    assert pq.tolist() == [d_c @ u, d_c @ w]


def test_a_failed_difference_return_keeps_the_history(monkeypatch):
    real, calls = orbits._first_return, []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:  # the first finite-difference return
            raise LimitCycleNotFound("stub")
        return real(*args)

    monkeypatch.setattr(orbits, "_first_return", second_fails)
    with pytest.raises(LimitCycleNotFound) as exc_info:
        detect_limit_cycle(PARAMS_B, (1.0, 1.0, 1.0))
    assert exc_info.value.history == (0.00253502366370214,)


def test_the_exploration_alone_runs_at_seed_accuracy(monkeypatch):
    runs = []

    def recorded(*args, **kwargs):
        runs.append((kwargs["rtol"], kwargs["atol"], integrate(*args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(orbits, "integrate", recorded)
    detect_limit_cycle(PARAMS_B, (1.0, 1.0, 1.0))
    (rtol, atol, explored), *certified = runs
    assert (rtol, atol) == (orbits.EXPLORE_RTOL, 1e-12) == (1e-6, 1e-12)
    assert explored.t_end == 300.0 and explored.stats.n_accepted <= 3000
    # the returns and the closing loop carry the search's own tolerances
    assert len(certified) == 14
    assert {(r, a) for r, a, _ in certified} == {(1e-10, 1e-12)}

    # a search looser than the seed accuracy never explores more strictly
    runs.clear()
    detect_limit_cycle(PARAMS_B, (1.0, 1.0, 1.0), rtol=1e-5)
    assert {(r, a) for r, a, _ in runs} == {(1e-5, 1e-12)}


BRANCH_A = [2.9851, 2.95, 2.9, 2.5, 2.0, 1.5]


@functools.cache
def branch_cycles(A):
    """The searches from three starts on the B = C = 3 branch at A."""
    p = SystemParams(A, 3.0, 3.0)
    return [detect_limit_cycle(p, ic) for ic in [(1.0, 1.0, 1.0), (1.0, 1.0, 0.95),
                                                 (1.0, 1.0, 0.9)]]


@pytest.mark.parametrize("A", BRANCH_A)
def test_the_branch_has_one_cycle_from_every_start(A):
    cycles = branch_cycles(A)
    assert all(c.residual < 1e-9 for c in cycles)
    periods = [c.period for c in cycles]
    assert max(periods) - min(periods) < 1e-8


# On the larger cycles the crossing that ends a return comes from the cubic
# Hermite interpolant, whose error exceeds the bound: the loop integrated to
# that period misses its anchor by 6.2e-8 at A = 2.0 and 2.4e-8 at A = 1.5.
HERMITE_CROSSING = pytest.mark.xfail(
    strict=True, reason="the section crossing is only as accurate as cubic Hermite"
)


@pytest.mark.parametrize("A", [pytest.param(A, marks=HERMITE_CROSSING) if A <= 2.0 else A
                               for A in BRANCH_A])
def test_the_branch_loops_close(A):
    for c in branch_cycles(A):
        assert max(abs(a - b) for a, b in zip(c.loop_states[-1], c.anchor)) < 1e-8


def test_limit_cycle_loop_maps_to_itself(cycle_b):
    traj = integrate(PARAMS_B, cycle_b.anchor, cycle_b.period, rtol=1e-10, atol=1e-12)
    gap = max(abs(a - b) for a, b in zip(traj.states[-1], cycle_b.anchor))
    assert gap < 10 * 1e-9


def test_limit_cycle_winds_once_per_period(cycle_b):
    # this region-b exploration lingers (monotone fraction 0.79, 11.7 time
    # units a turn) while the seed returns at t = 2.24: a return counted
    # only after a quarter of that mean turn (2.94) is the second one, and
    # Newton then converges to the twice-around loop of period 4.38
    p = SystemParams(1.1529051481827184, 1.1673923294938553, 3.1098729948962194)
    lingering = detect_limit_cycle(p, (0.3478405316750758, 1.296644795597091, 0.8679291245243734))
    for params, cycle in ((PARAMS_B, cycle_b), (p, lingering)):
        traj = integrate(params, cycle.anchor, cycle.period, rtol=1e-10, atol=1e-12)
        prof = winding_profile(traj, slow_manifold(params))
        assert abs(abs(prof.total_turns) - 1.0) < 1e-6


def test_restart_on_cycle_is_immediate(cycle_b):
    again = detect_limit_cycle(PARAMS_B, cycle_b.anchor)
    assert len(again.history) <= 3
    assert abs(again.period - cycle_b.period) / cycle_b.period < 1e-4


def test_no_cycle_in_region_a():
    with pytest.raises(LimitCycleNotFound) as exc_info:
        detect_limit_cycle(PARAMS_A, (1.0, 1.3, 0.89))
    # the failure report carries the residual history
    assert isinstance(exc_info.value.history, tuple)


def test_stationary_start_has_no_cycle():
    with pytest.raises(LimitCycleNotFound):
        detect_limit_cycle(PARAMS_A, (1.0, 1.0, 1.0))
