import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from toposurge import integrate as integrate_module
from toposurge.dynamics import SystemParams, rhs
from toposurge.integrate import IntegrationError, hermite_weights, integrate, resample


def scipy_reference(p, ic, t_end):
    sol = solve_ivp(
        lambda t, s: rhs(tuple(s), p),
        (0.0, t_end),
        ic,
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
        method="DOP853",
    )
    assert sol.success
    return sol.sol


def test_steady_point_stays_put():
    p = SystemParams(3, 3, 3)
    traj = integrate(p, (1, 1, 1), 100.0)
    assert traj.states.tolist() == [[1.0, 1.0, 1.0]] * len(traj)


def test_against_scipy_reference():
    p = SystemParams(3, 3, 3)
    ic = (1.0, 1.3, 0.89)
    traj = integrate(p, ic, 40.0)
    ref = scipy_reference(p, ic, 40.0)
    err = max(abs(a - b) for a, b in zip(traj.states[-1], ref(40.0)))
    assert err < 1e-6


def test_dense_output_between_steps():
    p = SystemParams(3, 3, 3)
    ic = (1.0, 1.3, 0.89)
    traj = integrate(p, ic, 10.0)
    ref = scipy_reference(p, ic, 10.0)
    for tq in np.linspace(0.3, 9.7, 41):
        mine = traj.state_at(float(tq))
        err = max(abs(a - b) for a, b in zip(mine, ref(tq)))
        assert err < 1e-6


def test_halving_tolerances_converges():
    # local-in-horizon property: after a single orbital turn the coarse and
    # fine answers differ by well under ten times the coarse tolerance
    p = SystemParams(3, 3, 3)
    ic = (1.0, 1.3, 0.89)
    for rtol in (1e-6, 1e-8, 1e-9):
        a = integrate(p, ic, 5.0, rtol=rtol, atol=rtol * 1e-3)
        b = integrate(p, ic, 5.0, rtol=rtol / 2, atol=rtol * 5e-4)
        delta = max(abs(x - y) for x, y in zip(a.states[-1], b.states[-1]))
        assert delta < 10.0 * rtol


def test_coordinate_planes_are_invariant():
    # each coordinate plane is flow-invariant; pick bounded orbits in each
    p = SystemParams(3, 3, 3)
    for ic, axis, t_end in (
        ((0.0, 1.2, 0.7), 0, 50.0),     # pure decay
        ((1.05, 0.0, 1.3), 1, 50.0),    # oscillation around S3
        ((1.0, 4.01, 0.0), 2, 1.5),     # near S2; escapes soon after t ~ 3
    ):
        traj = integrate(p, ic, t_end)
        assert all(s[axis] == 0.0 for s in traj.states)


def test_positive_octant_spot_check():
    rng = random.Random(11)
    for params in (SystemParams(3, 3, 3), SystemParams(2.9851, 3, 3)):
        for _ in range(3):
            ic = tuple(rng.uniform(0.1, 2.0) for _ in range(3))
            traj = integrate(params, ic, 200.0)
            assert float(traj.states.min()) > -1e-6


def test_time_grid_and_stats():
    p = SystemParams(3, 3, 3)
    traj = integrate(p, (1.0, 1.3, 0.89), 20.0)
    ts = np.asarray(traj.t)
    assert ts[0] == 0.0
    assert ts[-1] == 20.0
    assert (np.diff(ts) > 0).all()
    assert traj.stats.n_accepted == len(traj) - 1
    assert traj.stats.n_rhs >= 6 * traj.stats.n_accepted


def test_horizon_below_the_underflow_guard_is_one_step():
    # the first step is clipped to t_end by the loop, after its underflow guard
    traj = integrate(SystemParams(3, 3, 3), (1.0, 1.3, 0.89), 1e-15)
    assert traj.t.tolist() == [0.0, 1e-15] and len(traj.states) == 2


def test_state_at_on_an_array_is_the_scalar_calls_bit_for_bit():
    traj = integrate(SystemParams(2.9851, 3, 3), (1.0, 1.0, 0.9), 30.0)
    rng = np.random.default_rng(12)
    # random times, every step, and times past both ends (the end steps extend)
    tq = np.concatenate([rng.uniform(0.0, 30.0, 500), traj.t, [-0.5, 30.5]])
    states = traj.state_at(tq)
    assert states.shape == (len(tq), 3) and traj.state_at(1.0).shape == (3,)
    assert states.tolist() == [traj.state_at(t).tolist() for t in tq.tolist()]
    assert traj.state_at(traj.t).tolist() == traj.states.tolist()
    # the weights of Python floats, as the crossing bisection takes them,
    # are those of numpy arrays
    s = rng.uniform(0.0, 1.0, 1000)
    assert np.array(hermite_weights(s)).T.tolist() == [
        list(hermite_weights(x)) for x in s.tolist()]


def test_resample_uniform():
    p = SystemParams(3, 3, 3)
    traj = integrate(p, (1.0, 1.3, 0.89), 10.0)
    ts, states = resample(traj, 101)
    assert len(ts) == len(states) == 101
    assert ts[0] == 0.0 and ts[-1] == 10.0
    steps = {round(b - a, 12) for a, b in zip(ts, ts[1:])}
    assert len(steps) == 1


# Orbits that pin the straight-line step, with their exact step counts
# (accepted, rejected, rhs evaluations); the last two reject steps.
PINNED_ORBITS = (
    (SystemParams(2.9851, 3, 3), (1.0, 1.0, 0.9), 500.0, (22515, 0, 135092)),
    (SystemParams(2.9851, 3, 3), (0.3, 1.7, 0.5), 200.0, (1812, 4, 10898)),
    (SystemParams(3, 3, 3), (0.1, 0.1, 0.1), 200.0, (1465, 2, 8804)),
)


@pytest.mark.parametrize("p, ic, t_end, counts", PINNED_ORBITS)
def test_step_kernel_is_pinned(p, ic, t_end, counts):
    traj = integrate(p, ic, t_end)
    # the slopes dense output reads are dynamics.rhs on each row, in Python floats
    assert all(tuple(d) == rhs(s, p) for s, d in zip(
        traj.states.tolist(), traj.slopes(np.arange(len(traj))).tolist()))
    stats = traj.stats
    assert (stats.n_accepted, stats.n_rejected, stats.n_rhs) == counts


def test_columns_take_32_bytes_a_step_and_are_read_only():
    p, ic, t_end, _ = PINNED_ORBITS[0]
    tracemalloc.start()
    try:
        traj = integrate(p, ic, t_end)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(traj)
    assert n == 22516
    assert traj.t.shape == (n,) and traj.states.shape == (n, 3)
    assert traj.t.nbytes + traj.states.nbytes == 32 * n
    # the step loop builds no per-step objects that outlive the step
    assert peak < 100 * n
    for column in (traj.t, traj.states):
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_huge_horizon_fails_fast_on_the_projected_budget():
    # at the first check, 65,536 steps in, the run is near t = 1,460: its
    # average step projects about 4.5e10 steps to t = 1e9, over the budget
    with pytest.raises(IntegrationError, match="step budget exhausted") as exc_info:
        integrate(SystemParams(2.9851, 3, 3), (1, 1, 0.9), 1e9)
    assert exc_info.value.t < 1e4


def test_precondition_errors():
    p = SystemParams(3, 3, 3)
    with pytest.raises(ValueError):
        integrate(p, (1, 1, 1), 0.0)
    # NaN would pass a plain t_end <= 0 test, and inf run to the step budget
    with pytest.raises(ValueError, match="finite"):
        integrate(p, (1, 1, 1), math.nan)
    with pytest.raises(ValueError, match="finite"):
        integrate(p, (1, 1, 1), math.inf)
    # a start that is not finite is bad input, not a failed integration
    for ic in ((math.nan, 1, 1), (1, -math.inf, 1)):
        with pytest.raises(ValueError, match="initial state"):
            integrate(p, ic, 1.0)
    with pytest.raises(ValueError):
        integrate(p, (1, 1, 1), 10.0, rtol=1e-2)
    with pytest.raises(ValueError):
        integrate(p, (1, 1, 1), 10.0, atol=1e-14)
    with pytest.raises(ValueError):
        resample(integrate(p, (1, 1, 1), 1.0), 1)
    # no more rows than one integration may have steps
    with pytest.raises(ValueError):
        resample(integrate(p, (1, 1, 1), 1.0), 5_000_001)


def test_blowup_is_reported_not_silent():
    # far outside the positive structure X' ~ C X^2 explodes in finite time
    p = SystemParams(0.001, 3, 3)
    with pytest.raises(IntegrationError, match="step size underflow"):
        integrate(p, (50.0, 0.0, 0.0), 10.0)


def test_non_finite_state_is_reported_at_the_step_that_makes_it():
    # the first step's stages overflow to inf, so its new state is not finite
    with pytest.raises(IntegrationError, match=r"^non-finite state \(at t = 0\)$"):
        integrate(SystemParams(0.001, 3, 3), (1e160, 1e160, 1e160), 1.0, rtol=1e-3, atol=1e-3)


@pytest.mark.parametrize("ic", [(1e80, 1.0, 1.0), (1e200, 0.0, 0.0)])
def test_overflowing_start_is_an_integration_error(ic):
    # the first derivative overflows the initial step-size estimate
    with pytest.raises(IntegrationError, match="overflows"):
        integrate(SystemParams(0.001, 3, 3), ic, 1.0)


def test_stop_ends_the_run_at_the_first_true_step():
    p = SystemParams(2.9851, 3, 3)
    full = integrate(p, (1, 1, 0.9), 30.0)
    seen = []

    def past_ten(t, X, Y, Z):
        seen.append((t, (X, Y, Z)))
        return t >= 10.0

    part = integrate(p, (1, 1, 0.9), 30.0, stop=past_ten)
    n = len(part)
    assert part.t[-2] < 10.0 <= part.t[-1]
    assert part.t.tolist() == full.t[:n].tolist()
    assert part.states.tolist() == full.states[:n].tolist()
    assert seen == [(t, tuple(s)) for t, s in zip(part.t[1:].tolist(), part.states[1:].tolist())]


def test_determinism():
    p = SystemParams(2.9851, 3, 3)
    a = integrate(p, (1, 1, 0.9), 30.0)
    b = integrate(p, (1, 1, 0.9), 30.0)
    assert a.t.tolist() == b.t.tolist()
    assert a.states.tolist() == b.states.tolist()


def test_a_clamped_last_step_ends_at_t_end_exactly():
    # t + (t_end - t) is one ulp below t_end here: a step that ended there
    # would be followed by a step of one ulp
    p = SystemParams(2.290520512893875, 1.468973077334825, 2.1586916125965576)
    ic = (1.0710441771061572, 1.2937631620454297, 1.2508606405692506)
    t_end = 0.2297503861450196
    traj = integrate(p, ic, t_end, rtol=1e-3)
    assert traj.t.tolist() == [0.0, 0.08199654617818143, t_end]
    assert traj.stats.n_accepted == 2
    # with t + (t_end - t) as the last time, 3 of these 2,000 short runs
    # would end one ulp short of t_end; a stop that never fires clamps too
    rng = random.Random(22)
    for _ in range(2000):
        p = SystemParams(*(rng.uniform(0.3, 4.0) for _ in range(3)))
        ic = tuple(rng.uniform(0.05, 2.5) for _ in range(3))
        t_end = rng.uniform(0.01, 1.0)
        rtol = 10 ** rng.uniform(-6, -3)
        for stop in (None, lambda t, x, y, z: False):
            traj = integrate(p, ic, t_end, rtol=rtol, stop=stop)
            assert traj.t[-1] == t_end and traj.stats.n_accepted == len(traj) - 1


def reference_integrate(p, ic, t_end, rtol=1e-9, atol=1e-12, stop=None):
    """The generic Dormand-Prince loop over the rows of the tableau, one
    `dynamics.rhs` call a stage, with the step control's max/min/isfinite
    as written in the method: the step kernel must give its bits.  Terms of
    weight 0.0 are skipped, as the kernel skips them."""
    t, y = 0.0, tuple(float(v) for v in ic)
    f = rhs(y, p)
    h = integrate_module._initial_step(f, y, p, rtol, atol)
    ts, ys = [t], [y]
    n_acc = n_rej = 0
    err_prev = 1e-4

    def combine(y, h, weights, ks):
        out = []
        for i in range(3):
            acc = None
            for w, k in zip(weights, ks):
                if w != 0.0:
                    acc = w * k[i] if acc is None else acc + w * k[i]
            out.append(acc if y is None else y[i] + h * acc)
        return tuple(out)

    while t < t_end:
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t)
        t_new = t + h
        if t_new > t_end:
            h, t_new = t_end - t, t_end
        ks = [f]
        for row in integrate_module._A[1:]:
            ks.append(rhs(combine(y, h, row, ks), p))
        y_new = combine(y, h, integrate_module._A[-1], ks)
        if not all(map(math.isfinite, y_new + ks[-1])):
            raise IntegrationError("non-finite state", t)
        e = tuple(h * v for v in combine(None, h, integrate_module._E, ks))
        sc = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
        err = math.sqrt(sum((ei / si) ** 2 for ei, si in zip(e, sc)) / 3.0)
        if err <= 1.0:
            t, y, f = t_new, y_new, ks[-1]
            ts.append(t)
            ys.append(y)
            n_acc += 1
            fac = 5.0 if err == 0.0 else min(
                5.0, max(0.2, 0.9 * err ** -0.17 * err_prev ** 0.04))
            err_prev = max(err, 1e-10)
            h *= fac
            if stop is not None and stop(t, *y):
                break
        else:
            n_rej += 1
            h *= max(0.1, 0.9 * err ** -0.2)
    return np.array(ts), np.array(ys), (n_acc, n_rej)


@pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-13])
@pytest.mark.parametrize("p, ic", [(p, ic) for p, ic, _, _ in PINNED_ORBITS])
def test_step_kernel_is_the_generic_loop_bit_for_bit(p, ic, rtol):
    traj = integrate(p, ic, 5.0, rtol=rtol)
    t, states, counts = reference_integrate(p, ic, 5.0, rtol=rtol)
    assert traj.t.tobytes() == t.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert (traj.stats.n_accepted, traj.stats.n_rejected) == counts


def test_step_kernel_with_stop_is_the_generic_loop_bit_for_bit():
    p, ic, _, _ = PINNED_ORBITS[1]

    def past_two(t, X, Y, Z):
        return t >= 2.0

    traj = integrate(p, ic, 5.0, rtol=1e-6, stop=past_two)
    t, states, counts = reference_integrate(p, ic, 5.0, rtol=1e-6, stop=past_two)
    assert t[-2] < 2.0 <= t[-1] < 5.0
    assert traj.t.tobytes() == t.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert (traj.stats.n_accepted, traj.stats.n_rejected) == counts


def test_a_step_calls_at_most_eight_builtins():
    # abs three times, sqrt once and append four times an accepted step;
    # the difference of two horizons leaves out the calls made once a run
    def builtin_calls(t_end):
        calls = 0
        code = integrate.__code__

        def profile(frame, event, arg):
            nonlocal calls
            if event == "c_call" and frame.f_code is code:
                calls += 1

        sys.setprofile(profile)
        try:
            traj = integrate(SystemParams(2.9851, 3, 3), (1.0, 1.0, 0.9), t_end)
        finally:
            sys.setprofile(None)
        return calls, traj.stats.n_accepted + traj.stats.n_rejected

    calls_10, steps_10 = builtin_calls(10.0)
    calls_20, steps_20 = builtin_calls(20.0)
    assert steps_20 - steps_10 > 400
    assert calls_20 - calls_10 <= 8 * (steps_20 - steps_10)
