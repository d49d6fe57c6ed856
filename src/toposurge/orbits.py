"""Orbit topology: Poincare sections, winding, shell type, limit cycle.

Every non-equilibrium orbit of interest winds monotonically around the
S2-S3 axis, in both parameter regimes, so the azimuthal winding count says
nothing about the shell type.  What separates the regimes is the meridional
behaviour of the once-per-revolution section sequence in the (height,
radius) half-plane:

* spherical regime: the section point traverses a pole-to-pole arc exactly
  once (the orbit sweeps a sphere touching the axis at both ends, then is
  absorbed by the attracting part of the axis);
* toroidal regime: the section point circulates around a closed tube loop
  over and over while the orbit scrolls down the torus.

``classify_shell`` therefore counts tube circulations and axis touching;
``detect_limit_cycle`` refines a fixed point of the half-plane return map
by a damped finite-difference Newton iteration, which is what makes the
weakly attracting cycle near the Hopf onset reachable at all.  A return is
the next crossing of the half plane; the start lies on it, so its signed
distance g counts as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import lazy_numpy
from .dynamics import SlowManifold, SystemParams, Vec3, slow_manifold
from .integrate import Trajectory, hermite_weights, integrate

np = lazy_numpy(globals())

EPS_STATIONARY = 1e-6
EPS_AXIS = 1e-12
EPS_CYCLE = 1e-9
MAX_NEWTON_ITERATIONS = 25
MIN_CYCLE_SIZE = 1e-4         # smallest extent of a loop that counts as a cycle
RETURN_T_MAX = 40.0           # longest integration one return-map evaluation may take
EXPLORE_RTOL = 1e-6           # loosest rtol of the exploration that seeds Newton

TUBE_TURNS_TOROIDAL = 3.0     # meridional circulations to call a tube a tube
TUBE_TURNS_SPHERICAL = 1.5    # at most one arc traversal (plus slack)
AXIS_TOUCH_SPHERICAL = 0.1    # r_min/r_max for a shell that closes at poles
AXIS_CLEAR_DEGENERATE = 0.3   # r_min/r_max for a collapsed (0-diameter) tube
SECTION_SPREAD_DEGENERATE = 0.01
MIN_AZIMUTH_TURNS = 3.0
MIN_MONOTONE_FRACTION = 0.95


# ---------------------------------------------------------------------------
# Poincare sections on arbitrary planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionCrossing:
    t: float
    state: Vec3
    direction: int  # +1: from negative to positive side, -1: reverse


def _bisect_crossings(traj: Trajectory, i: np.ndarray, point, normal,
                      rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Times (k,) and states (k, 3) at which the orbit crosses the plane
    {(y - point) . normal = 0} between steps i and i + 1, for each entry of
    the index array i.  The signed distance g on a step is the cubic Hermite
    polynomial of its values and slopes f . normal at both ends, bisected
    in Python floats until the bracket is at most rel_tol * max(1, |t|) wide."""
    ends = np.stack([i, i + 1])
    g0, g1 = ((traj.states[ends] - point) @ normal).tolist()
    d0, d1 = (traj.slopes(ends) @ normal).tolist()
    t_c = []
    for t_lo, t_hi, a, b, da, db in zip(*traj.t[ends].tolist(), g0, g1, d0, d1):
        t0, h = t_lo, t_hi - t_lo
        # g seen from step i's side (negation is exact): the low end has g > 0
        side = 1.0 if a > 0.0 else -1.0
        a, b, da, db = side * a, side * b, side * h * da, side * h * db
        for _ in range(60):
            t_mid = 0.5 * (t_lo + t_hi)
            w00, w10, w01, w11 = hermite_weights((t_mid - t0) / h)
            if w00 * a + w10 * da + w01 * b + w11 * db > 0.0:
                t_lo = t_mid
            else:
                t_hi = t_mid
            if t_hi - t_lo <= rel_tol * max(1.0, abs(t_hi)):
                break
        t_c.append(0.5 * (t_lo + t_hi))
    t_c = np.array(t_c)
    return t_c, traj.state_at(t_c)


def section_plane(plane_point: Vec3, plane_normal: Vec3) -> tuple[np.ndarray, np.ndarray]:
    """The plane as (point, unit normal); a point or normal that is not
    finite, or a zero normal, raises ValueError."""
    n = np.asarray(plane_normal, dtype=float)
    p0 = np.asarray(plane_point, dtype=float)
    if not (np.isfinite(n).all() and np.isfinite(p0).all()):
        raise ValueError("plane point and normal must be finite")
    scale = np.abs(n).max()
    if scale == 0.0:
        raise ValueError("plane normal must be nonzero")
    # dividing by the largest component first keeps the norm finite and nonzero
    n /= scale
    n /= np.linalg.norm(n)
    return p0, n


def poincare(
    traj: Trajectory, plane_point: Vec3, plane_normal: Vec3
) -> list[SectionCrossing]:
    """Plane crossings located by sign change plus bisection on the cubic
    Hermite interpolant between accepted steps."""
    p0, n = section_plane(plane_point, plane_normal)
    if len(traj) < 2:
        return []

    g = (traj.states - p0) @ n
    sign_change = np.nonzero(g[:-1] * g[1:] < 0.0)[0]
    t_c, y_c = _bisect_crossings(traj, sign_change, p0, n, 1e-14)
    return [SectionCrossing(t=t, state=tuple(y), direction=1 if g_lo < 0 else -1)
            for t, y, g_lo in zip(t_c.tolist(), y_c.tolist(), g[sign_change].tolist())]


# ---------------------------------------------------------------------------
# winding around the slow-manifold axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindingProfile:
    t: np.ndarray
    theta: np.ndarray      # unwrapped azimuth around the axis
    radius: np.ndarray     # distance from the axis line
    height: np.ndarray     # coordinate along the axis (0 at S2)
    skipped: int           # samples discarded for sitting on the axis

    @property
    def total_turns(self) -> float:
        if len(self.theta) < 2:
            return 0.0
        return float(self.theta[-1] - self.theta[0]) / (2.0 * math.pi)

    @property
    def monotone_fraction(self) -> float:
        if len(self.theta) < 2:
            return 0.0
        d = np.diff(self.theta)
        return float(max((d > 0).mean(), (d < 0).mean()))


def _axis_coordinates(states: np.ndarray, axis: SlowManifold):
    u, e1, e2 = (np.asarray(v) for v in axis.axis_frame())
    d = states - np.asarray(axis.s2)
    h = d @ u
    radial = d - np.outer(h, u)
    r = np.linalg.norm(radial, axis=1)
    x1 = radial @ e1
    x2 = radial @ e2
    return h, r, x1, x2


def winding_profile(traj: Trajectory, axis: SlowManifold) -> WindingProfile:
    """Cumulative azimuth of the orbit around the S2->S3 axis.

    Samples closer to the axis than EPS_AXIS are skipped (their azimuth is
    undefined) and counted.  Azimuth gaps of pi or more are closed by
    inserting dense-output midpoints, so the unwrap is trustworthy.
    """
    ts, states = traj.t, traj.states
    for insertions in range(25):  # at most 24 rounds of midpoints
        h, r, x1, x2 = _axis_coordinates(states, axis)
        ok = r >= EPS_AXIS
        theta = np.arctan2(x2[ok], x1[ok])
        if insertions == 24:
            break
        gaps = np.abs(np.diff(theta))
        gaps = np.minimum(gaps, 2.0 * math.pi - gaps)  # wrapped gap size
        bad = np.nonzero(gaps >= math.pi * 0.999)[0]
        if len(bad) == 0:
            break
        ok_idx = np.nonzero(ok)[0]
        i0, i1 = ok_idx[bad], ok_idx[bad + 1]
        wide = ts[i1] - ts[i0] > 1e-12
        if not wide.any():
            break
        i0, i1 = i0[wide], i1[wide]
        t_mid = 0.5 * (ts[i0] + ts[i1])
        ts = np.insert(ts, i0 + 1, t_mid)
        states = np.insert(states, i0 + 1, traj.state_at(t_mid), axis=0)

    return WindingProfile(
        t=ts[ok],
        theta=np.unwrap(theta),
        radius=r[ok],
        height=h[ok],
        skipped=int((~ok).sum()),
    )


def section_sequence(profile: WindingProfile) -> tuple[np.ndarray, np.ndarray]:
    """(height, radius) once per azimuthal revolution: the meridional trace.

    Linear interpolation at each crossing of theta through multiples of
    2*pi, robust to locally non-monotone azimuth.
    """
    th = profile.theta
    if len(th) < 2:
        return np.empty(0), np.empty(0)
    two_pi = 2.0 * math.pi
    a, b = th[:-1], th[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # candidate multiples k of 2 pi per step, from ceil(lo / 2 pi) to one
    # past floor(hi / 2 pi) so that rounding cannot drop one; steps with
    # a == b have none
    k_lo = np.ceil(lo / two_pi)
    count = np.where(lo < hi, np.floor(hi / two_pi) - k_lo + 2.0, 0.0).astype(np.intp)
    i = np.repeat(np.arange(len(a)), count)
    first = np.repeat(np.cumsum(count) - count, count)
    tgt = (np.repeat(k_lo, count) + (np.arange(len(i)) - first)) * two_pi
    s = (tgt - a[i]) / (b[i] - a[i])
    hit = (tgt <= hi[i]) & (0.0 <= s) & (s <= 1.0)
    i, s = i[hit], s[hit]
    height, radius = profile.height, profile.radius
    return (height[i] + s * (height[i + 1] - height[i]),
            radius[i] + s * (radius[i + 1] - radius[i]))


def tube_turns(hs: np.ndarray, rs: np.ndarray) -> float:
    """Circulations of the section sequence around its own centroid in the
    variance-normalized (height, radius) plane."""
    if len(hs) < 4:
        return 0.0
    sh = hs.std()
    sr = rs.std()
    if sh <= 0.0 or sr <= 0.0:
        return 0.0
    x = (hs - hs.mean()) / sh
    y = (rs - rs.mean()) / sr
    ang = np.unwrap(np.arctan2(y, x))
    return float(abs(ang[-1] - ang[0]) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# shell classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellClassification:
    verdict: str  # 'spherical' | 'toroidal' | 'stationary' | 'indeterminate'
    evidence: dict[str, float] = field(default_factory=dict)


def classify_shell(traj: Trajectory) -> ShellClassification:
    """Shell verdict for one integrated orbit.

    stationary: never leaves an eps ball around the initial state.
    toroidal:   the meridional section circulates a tube loop (or has
                collapsed onto the 0-diameter tube, the limit cycle).
    spherical:  the meridional section runs pole-to-pole at most once and
                the swept surface touches the axis.
    """
    if len(traj) < 8:
        return ShellClassification("indeterminate", {"samples": float(len(traj))})

    ys = traj.states
    y0 = ys[0]
    disp = np.linalg.norm(ys - y0, axis=1)
    max_disp = float(disp.max())
    if max_disp < EPS_STATIONARY:
        return ShellClassification("stationary", {"max_displacement": max_disp})

    prof = winding_profile(traj, slow_manifold(traj.params))
    turns = abs(prof.total_turns)
    mono = prof.monotone_fraction
    diam = float(np.ptp(ys, axis=0).max())

    hs, rs = section_sequence(prof)
    tt = tube_turns(hs, rs)
    r_min = float(prof.radius.min()) if prof.skipped == 0 else 0.0
    r_max = float(prof.radius.max())
    touch = r_min / r_max if r_max > 0 else 0.0
    spread = 0.0
    if len(hs) >= 2:
        spread = float(np.hypot(np.ptp(hs), np.ptp(rs)))

    quarter = len(ys) // 4
    min_return = float(disp[quarter:].min()) if quarter else math.inf

    evidence = {
        "max_displacement": max_disp,
        "diameter": diam,
        "azimuth_turns": turns,
        "monotone_fraction": mono,
        "tube_turns": tt,
        "axis_touch_ratio": touch,
        "section_spread": spread,
        "section_points": float(len(hs)),
        "min_return_distance": min_return / diam if diam > 0 else math.inf,
    }

    if turns < MIN_AZIMUTH_TURNS or mono < MIN_MONOTONE_FRACTION:
        return ShellClassification("indeterminate", evidence)
    if tt >= TUBE_TURNS_TOROIDAL:
        return ShellClassification("toroidal", evidence)
    if spread <= SECTION_SPREAD_DEGENERATE * diam and touch >= AXIS_CLEAR_DEGENERATE:
        # collapsed tube: the orbit rides the limit cycle itself
        return ShellClassification("toroidal", evidence)
    if tt <= TUBE_TURNS_SPHERICAL and touch <= AXIS_TOUCH_SPHERICAL:
        return ShellClassification("spherical", evidence)
    return ShellClassification("indeterminate", evidence)


# ---------------------------------------------------------------------------
# limit cycle via Newton on the half-plane return map
# ---------------------------------------------------------------------------

class LimitCycleNotFound(RuntimeError):
    def __init__(self, message: str, history: tuple[float, ...] = ()):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class LimitCycle:
    anchor: Vec3
    period: float
    loop_t: np.ndarray        # (n,) float64, read-only
    loop_states: np.ndarray   # (n, 3) float64, read-only
    residual: float
    history: tuple[float, ...]


def _half_plane(axis: SlowManifold):
    """(origin, u, w, n) of the half plane {azimuth = 0, radius > 0} around
    the slow-manifold axis: its points are origin + h u + r w with r > 0,
    and n is its normal within the axis-orthogonal plane."""
    u, e1, e2 = axis.axis_frame()
    return np.asarray(axis.s2), np.asarray(u), np.asarray(e1), np.asarray(e2)


def _embed(plane, q) -> Vec3:
    """The point of the half plane at (height, radius) q."""
    origin, u, w, _ = plane
    h, r = q
    pt = origin + h * u + r * w
    return (float(pt[0]), float(pt[1]), float(pt[2]))


def _first_return(p: SystemParams, plane, q, rtol, atol):
    """Map (h, r) to the next crossing of the half plane; returns (q', T).

    The integration stops at the first accepted step that crosses the half
    plane from g < 0 to g >= 0 on its positive side.  The start lies on the
    plane by construction, so its g counts as 0.0 and not as the rounding
    noise of its coordinates; RETURN_T_MAX only bounds the search."""
    origin, u, w, n = plane
    y0 = _embed(plane, q)
    (o0, o1, o2), (n0, n1, n2), (w0, w1, w2) = origin.tolist(), n.tolist(), w.tolist()
    g_prev = 0.0
    returned = False

    def crossed(t, X, Y, Z):
        nonlocal g_prev, returned
        g_lo, g_prev = g_prev, (X - o0) * n0 + (Y - o1) * n1 + (Z - o2) * n2
        returned = (g_lo < 0.0 <= g_prev
                    and (X - o0) * w0 + (Y - o1) * w1 + (Z - o2) * w2 > 0.0)
        return returned

    traj = integrate(p, y0, RETURN_T_MAX, rtol=rtol, atol=atol, stop=crossed)
    if not returned:
        raise LimitCycleNotFound(f"no return to the section within t = {RETURN_T_MAX}")
    t_c, y_c = _bisect_crossings(traj, np.array([len(traj) - 2]), origin, n, 1e-13)
    d = y_c[0] - origin
    return np.array([d @ u, d @ w]), float(t_c[0])


def detect_limit_cycle(
    p: SystemParams,
    ic: Vec3,
    explore_time: float = 300.0,
    eps_cycle: float = EPS_CYCLE,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> LimitCycle:
    """Find the periodic orbit by Newton iteration on the return map.

    Directly iterating returns cannot work here: near the Hopf onset the
    toroidal scroll contracts by well under a percent per circuit, so the
    transient lasts tens of thousands of revolutions.  Instead the orbit is
    explored briefly to seed the tube centre, then the return-map fixed
    point is refined with finite-difference Newton steps.  A return is the
    next crossing of the half plane after the start, which counts as g = 0,
    so the fixed point is a loop that winds once.  The exploration only
    seeds Newton, so it runs at rtol = max(rtol, EXPLORE_RTOL); every
    return, the crossing bisection and the closing loop use rtol and atol
    as given, and so certify the residual and period.  In the B/A = 1
    regime the map has a unit eigenvalue (a continuum of invariant shells),
    Newton stalls, and a LimitCycleNotFound carrying the residual history
    is raised.  A non-positive or non-finite explore_time or eps_cycle, or
    a tolerance out of range, raises ValueError.
    """
    if not (math.isfinite(explore_time) and explore_time > 0.0):
        raise ValueError("explore_time must be positive and finite")
    if not (math.isfinite(eps_cycle) and eps_cycle > 0.0):
        raise ValueError("eps_cycle must be positive and finite")
    axis = slow_manifold(p)

    # seed: centroid of the meridional section trace of a short exploration
    traj = integrate(p, ic, explore_time, rtol=max(rtol, EXPLORE_RTOL), atol=atol)
    prof = winding_profile(traj, axis)
    hs, rs = section_sequence(prof)
    if len(hs) < 3 or abs(prof.total_turns) < 2.0:
        raise LimitCycleNotFound("orbit does not wind around the axis")
    half = len(hs) // 2
    q = np.array([hs[half:].mean(), rs[half:].mean()])

    plane = _half_plane(axis)
    history: list[float] = []
    try:
        for _ in range(MAX_NEWTON_ITERATIONS):
            pq, period = _first_return(p, plane, q, rtol, atol)
            f = pq - q
            res = float(np.linalg.norm(f))
            history.append(res)
            if res < eps_cycle:
                cycle = _package_cycle(p, plane, q, period, res, history, rtol, atol)
                size = float(np.ptp(cycle.loop_states, axis=0).max())
                if size < MIN_CYCLE_SIZE:
                    raise LimitCycleNotFound(
                        "return iteration collapsed onto a steady point on the "
                        "axis; no isolated cycle here"
                    )
                return cycle
            # finite-difference Jacobian of the return map
            delta = 1e-7 * max(1.0, float(np.linalg.norm(q)))
            jac = np.empty((2, 2))
            for col in range(2):
                dq = q.copy()
                dq[col] += delta
                pq_d, _ = _first_return(p, plane, dq, rtol, atol)
                jac[:, col] = (pq_d - pq) / delta
            a = jac - np.eye(2)
            try:
                step = np.linalg.solve(a, -f)
            except np.linalg.LinAlgError:
                raise LimitCycleNotFound("return map is singular (no isolated cycle)")
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 10.0:
                raise LimitCycleNotFound("Newton step diverged (no isolated cycle)")
            # damped update: keep the radius positive
            scale = 1.0
            for _ in range(6):
                if q[1] + scale * step[1] > 1e-9:
                    break
                scale *= 0.5
            q = q + scale * step
        raise LimitCycleNotFound(f"no convergence within {MAX_NEWTON_ITERATIONS} iterations")
    except LimitCycleNotFound as exc:
        exc.history = tuple(history)
        raise


def _package_cycle(p, plane, q, period, res, history, rtol, atol) -> LimitCycle:
    anchor = _embed(plane, q)
    loop = integrate(p, anchor, period, rtol=rtol, atol=atol)
    return LimitCycle(
        anchor=anchor,
        period=period,
        loop_t=loop.t,
        loop_states=loop.states,
        residual=res,
        history=tuple(history),
    )
