"""Adaptive Dormand-Prince 5(4) integration for the three-species system.

The method is the embedded 5(4) pair of Dormand & Prince (J. Comp. Appl.
Math. 6:19, 1980) with FSAL stage reuse, the PI step-size control of
Hairer, Norsett & Wanner (Solving Ordinary Differential Equations I,
sections II.4-II.5), and cubic Hermite dense output between accepted steps.

A trajectory is stored by columns: each accepted step appends its time
and its state to two flat float64 buffers, 32 bytes a step, exposed as
read-only numpy views, t of shape (n,) and states of shape (n, 3).  Dense
output takes the vector field at a step's two ends from `dynamics.rhs`,
which is the step kernel's FSAL stage to the last bit.

The state is only 3-dimensional, so numpy overhead would dominate.  One
step is straight-line code on local floats instead: the tableau, A, C, -B
and sqrt are bound to locals once per call, the vector field is inlined
for the six new stages, and the error norm is written out per component.
Floating-point arithmetic is not associative, and a change in the last bit
of one stage can change the whole step sequence.  So the step keeps the
operation order of a generic loop over the tableau rows that calls
`dynamics.rhs` per stage, and every rewrite in it is exact:

- the inlined field is written exactly as in `rhs`: X * Y and A * Z * X * X
  are computed once a stage and shared by the two components that use
  them (X * X alone is not shared: C * X * X is (C * X) * X);
- every stage sum runs left to right, and the error norm squares with ** 2,
  which is pow() and differs from e * e in the last bit for some e;
- terms whose weight is 0.0 are left out: they only add a signed zero,
  unless the stage they weight is not finite, a case the finiteness check
  catches;
- the finiteness check is one sum of v - v over the new state and the FSAL
  stage, which is 0.0 when all six are finite and NaN otherwise;
- abs of the accepted state is carried to the next step, and each max or
  min is the conditional expression that picks the same operand, so an
  accepted step calls no builtin but abs three times, sqrt once and append
  four times.

Resolution genuinely matters for this system - coarse tolerances visibly
deform the attractor - so the defaults are strict (rtol 1e-9, atol 1e-12).
They are set per call only: no environment variable or module state
changes them.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Callable

from ._lazy import lazy_numpy
from .dynamics import SystemParams, Vec3, rhs

np = lazy_numpy(globals())


class IntegrationError(RuntimeError):
    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t = {t:.6g})")
        self.t = t


_TOL_MIN, _TOL_MAX = 1e-13, 1e-3
MAX_STEPS = 5_000_000  # accepted plus rejected steps in one integration
_BUDGET_CHECK = 2 ** 16  # steps between two projections of the step budget

# Dormand-Prince 5(4) tableau.  The last row of _A is also the 5th-order
# solution's weights (FSAL: the last stage is f at the new state).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class IntegratorStats:
    n_accepted: int
    n_rejected: int

    @property
    def n_rhs(self) -> int:
        """rhs calls: the first slope, the initial step and six a step tried."""
        return 2 + 6 * (self.n_accepted + self.n_rejected)


@dataclass(frozen=True)
class Trajectory:
    """Every accepted step of one integration, the initial state first.

    t is a float64 array of shape (n,) and states a float64 array of shape
    (n, 3), X, Y, Z; both are read-only views of the buffers the step loop
    filled."""

    params: SystemParams
    t: np.ndarray
    states: np.ndarray
    stats: IntegratorStats

    def __len__(self) -> int:
        return len(self.t)

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def state_at(self, tq) -> np.ndarray:
        """Cubic Hermite interpolation at one time, shape (3,), or at an
        array of times, shape (n, 3), within the sampled range."""
        tq = np.asarray(tq, dtype=float)
        i = np.clip(self.t.searchsorted(tq, side="right") - 1, 0, len(self.t) - 2)
        t0, h = self.t[i], self.t[i + 1] - self.t[i]
        h00, h10, h01, h11 = hermite_weights((tq - t0) / h)
        h10, h11 = h10 * h, h11 * h
        f0, f1 = self.slopes(np.stack([i, i + 1]))
        return (h00[..., None] * self.states[i] + h10[..., None] * f0
                + h01[..., None] * self.states[i + 1] + h11[..., None] * f1)

    def slopes(self, i) -> np.ndarray:
        """The vector field at the rows i of states only, shape i.shape + (3,)."""
        return np.stack(rhs(self.states.T[:, i], self.params), axis=-1)


def _column(buf: array, *shape: int) -> np.ndarray:
    view = np.frombuffer(buf, dtype=np.float64).reshape(shape)
    view.flags.writeable = False
    return view


def _initial_step(f0: Vec3, y0: Vec3, p: SystemParams, rtol: float, atol: float) -> float:
    sc = [atol + rtol * abs(y) for y in y0]
    try:
        d0 = math.sqrt(sum((y / s) ** 2 for y, s in zip(y0, sc)) / 3.0)
        d1 = math.sqrt(sum((f / s) ** 2 for f, s in zip(f0, sc)) / 3.0)
        h0 = 1e-6 if d1 < 1e-5 or d0 < 1e-5 else 0.01 * d0 / d1
        y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
        f1 = rhs(y1, p)
        d2 = math.sqrt(sum(((a - b) / s) ** 2 for a, b, s in zip(f1, f0, sc)) / 3.0) / h0
    except (OverflowError, ZeroDivisionError):
        # the derivative at the start is too large to scale a first step by
        raise IntegrationError("derivative overflows at the initial state", 0.0) from None
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def integrate(
    p: SystemParams,
    ic: Vec3,
    t_end: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    stop: Callable[[float, float, float, float], bool] | None = None,
) -> Trajectory:
    """Integrate from a finite state ic at t = 0 to a finite t_end > 0,
    recording every accepted step; a non-finite ic, any other t_end, or a
    tolerance outside [1e-13, 1e-3] raises ValueError.

    A run may take at most 5,000,000 steps, accepted plus rejected.  Every
    65,536 steps the budget is projected from the average step so far: if
    the steps taken, scaled by the model time left over the model time
    done, exceed the steps left, IntegrationError("step budget exhausted")
    is raised there instead of running on to the budget.

    stop(t, X, Y, Z), if given, is called after every accepted step; once
    it returns true the integration ends there, that step included.  The
    steps before it are the ones an integration without stop takes.
    Unless stop ended the run, the last step is clamped to end at t_end
    exactly, so t[-1] == t_end.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    y0 = tuple(float(v) for v in ic)
    if not all(map(math.isfinite, y0)):
        raise ValueError("the initial state must be finite")
    if not (_TOL_MIN <= rtol <= _TOL_MAX) or not (_TOL_MIN <= atol <= _TOL_MAX):
        raise ValueError("tolerances must lie in [1e-13, 1e-3]")

    A, C, nB = p.A, p.C, -p.B
    sqrt, max_steps = math.sqrt, MAX_STEPS
    (
        _,
        (a10,),
        (a20, a21),
        (a30, a31, a32),
        (a40, a41, a42, a43),
        (a50, a51, a52, a53, a54),
        (b0, _, b2, b3, b4, b5),
    ) = _A
    e0, _, e2, e3, e4, e5, e6 = _E

    t = 0.0
    f = rhs(y0, p)
    h = _initial_step(f, y0, p, rtol, atol)

    ts, states = array("d", (t,)), array("d", y0)
    t_append, y_append = ts.append, states.append
    next_check = _BUDGET_CHECK
    n_acc = 0
    n_rej = 0
    err_prev = 1e-4
    X, Y, Z = y0
    aX, aY, aZ = abs(X), abs(Y), abs(Z)
    k0x, k0y, k0z = f

    # Each max(a, b) or min(a, b) of the step is written as the conditional
    # that picks the same operand: b if b > a else a, b if b < a else a.
    # t never falls below 0.0, so abs(t) is t in the underflow guard.
    while t < t_end:
        if h < 1e-14 * (t if t > 1.0 else 1.0):
            raise IntegrationError("step size underflow", t)
        if n_acc + n_rej > next_check:
            n = n_acc + n_rej
            if n > max_steps or n * (t_end - t) > (max_steps - n) * t:
                raise IntegrationError("step budget exhausted", t)
            next_check = min(n + _BUDGET_CHECK, max_steps)
        t_new = t + h
        if t_new > t_end:
            # t + (t_end - t) can round off t_end, and one ulp short of it
            # would take another step, so a clamped step ends at t_end exactly
            h = t_end - t
            t_new = t_end

        x = X + h * (a10 * k0x)
        y = Y + h * (a10 * k0y)
        z = Z + h * (a10 * k0z)
        xy = x * y
        azxx = A * z * x * x
        k1x = x - xy + C * x * x - azxx
        k1y = xy - y
        k1z = nB * z + azxx

        x = X + h * (a20 * k0x + a21 * k1x)
        y = Y + h * (a20 * k0y + a21 * k1y)
        z = Z + h * (a20 * k0z + a21 * k1z)
        xy = x * y
        azxx = A * z * x * x
        k2x = x - xy + C * x * x - azxx
        k2y = xy - y
        k2z = nB * z + azxx

        x = X + h * (a30 * k0x + a31 * k1x + a32 * k2x)
        y = Y + h * (a30 * k0y + a31 * k1y + a32 * k2y)
        z = Z + h * (a30 * k0z + a31 * k1z + a32 * k2z)
        xy = x * y
        azxx = A * z * x * x
        k3x = x - xy + C * x * x - azxx
        k3y = xy - y
        k3z = nB * z + azxx

        x = X + h * (a40 * k0x + a41 * k1x + a42 * k2x + a43 * k3x)
        y = Y + h * (a40 * k0y + a41 * k1y + a42 * k2y + a43 * k3y)
        z = Z + h * (a40 * k0z + a41 * k1z + a42 * k2z + a43 * k3z)
        xy = x * y
        azxx = A * z * x * x
        k4x = x - xy + C * x * x - azxx
        k4y = xy - y
        k4z = nB * z + azxx

        x = X + h * (a50 * k0x + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x)
        y = Y + h * (a50 * k0y + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y)
        z = Z + h * (a50 * k0z + a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z)
        xy = x * y
        azxx = A * z * x * x
        k5x = x - xy + C * x * x - azxx
        k5y = xy - y
        k5z = nB * z + azxx

        # the 5th-order solution, and the FSAL stage at it
        x = X + h * (b0 * k0x + b2 * k2x + b3 * k3x + b4 * k4x + b5 * k5x)
        y = Y + h * (b0 * k0y + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y)
        z = Z + h * (b0 * k0z + b2 * k2z + b3 * k3z + b4 * k4z + b5 * k5z)
        xy = x * y
        azxx = A * z * x * x
        k6x = x - xy + C * x * x - azxx
        k6y = xy - y
        k6z = nB * z + azxx

        # A non-finite k1 already made the new state non-finite.  A
        # non-finite k6 would enter the 5th-order solution through its zero
        # weight as NaN, so it counts as a non-finite state too.  v - v is
        # 0.0 for a finite v and NaN for inf or NaN, so the sum is 0.0
        # exactly when all six are finite.
        if (x - x) + (y - y) + (z - z) + (k6x - k6x) + (k6y - k6y) + (k6z - k6z) != 0.0:
            raise IntegrationError("non-finite state", t)

        ex = h * (e0 * k0x + e2 * k2x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x)
        ey = h * (e0 * k0y + e2 * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y)
        ez = h * (e0 * k0z + e2 * k2z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z)
        ax, ay, az = abs(x), abs(y), abs(z)
        sx = atol + rtol * (ax if ax > aX else aX)
        sy = atol + rtol * (ay if ay > aY else aY)
        sz = atol + rtol * (az if az > aZ else aZ)
        err = sqrt(((ex / sx) ** 2 + (ey / sy) ** 2 + (ez / sz) ** 2) / 3.0)

        if err <= 1.0:
            t = t_new
            X, Y, Z = x, y, z
            aX, aY, aZ = ax, ay, az
            k0x, k0y, k0z = k6x, k6y, k6z
            t_append(t)
            y_append(X)
            y_append(Y)
            y_append(Z)
            n_acc += 1
            fac = 5.0 if err == 0.0 else 0.9 * err ** -0.17 * err_prev ** 0.04
            # min(5.0, max(0.2, fac))
            h *= 5.0 if fac >= 5.0 else fac if fac > 0.2 else 0.2
            err_prev = err if err > 1e-10 else 1e-10
            if stop is not None and stop(t, X, Y, Z):
                break
        else:
            n_rej += 1
            fac = 0.9 * err ** -0.2
            h *= fac if fac > 0.1 else 0.1

    return Trajectory(
        params=p,
        t=_column(ts, -1),
        states=_column(states, -1, 3),
        stats=IntegratorStats(n_acc, n_rej),
    )


# ---------------------------------------------------------------------------
# dense output
# ---------------------------------------------------------------------------

def hermite_weights(s):
    """Cubic Hermite weights h00, h10, h01, h11 at s = (t - t0) / h; squaring
    by r * r, not ** 2, gives Python floats and numpy arrays the same bits."""
    r = 1 - s
    return (1 + 2 * s) * (r * r), s * (r * r), s * s * (3 - 2 * s), s * s * (s - 1)


def resample(traj: Trajectory, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Times (n,) and states (n, 3) on a uniform grid via dense output; n is
    at most 5,000,000, the most steps one integration may take."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("resample points must be an integer") from None
    if not 2 <= n <= MAX_STEPS:
        raise ValueError(f"resample points must lie in [2, {MAX_STEPS}]")
    t0, t1 = float(traj.t[0]), traj.t_end
    ts = t0 + (t1 - t0) * np.arange(n) / (n - 1)
    return ts, traj.state_at(ts)
