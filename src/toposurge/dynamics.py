"""The three-species predator-prey system and its local analysis.

    dX/dt = X - XY + C X^2 - A Z X^2
    dY/dt = -Y + XY
    dZ/dt = -B Z + A Z X^2        (A, B, C > 0)

Two predators Y, Z compete for the prey X without interacting directly.
Besides the origin, the positive steady states are S2 = (1, 1+C, 0) and
S3 = (sqrt(B/A), 0, (1 + C sqrt(B/A)) / sqrt(AB)).  At B/A = 1 the line
L = {X = 1, Z = (1 + C - Y)/A} consists entirely of steady states; it is
the axis the 'hole drilling' trajectories wind around once B/A > 1.

Eigenvalues are taken from the characteristic cubic in closed form and
polished by Newton steps; eigenvectors come from null-space cross products.
The symbolic eigenvector formulas for S3 divide by sqrt(B/A) - 1 and blow
up exactly on the B/A = 1 locus, so everything here is numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]

EPS_LAMBDA = 1e-9       # "zero" threshold for eigenvalue real parts
EPS_REGION = 1e-12      # threshold on |B/A - 1|

SADDLE = "saddle"
UNSTABLE_CENTER = "unstable_center"
STABLE_CENTER = "stable_center"
INWARD_UNSTABLE_VORTEX = "inward_unstable_vortex"
OUTWARD_STABLE_VORTEX = "outward_stable_vortex"
UNCLASSIFIED = "unclassified"

REGION_A = "region_a"
REGION_B = "region_b"
REGION_OTHER = "other"


@dataclass(frozen=True)
class SystemParams:
    A: float
    B: float
    C: float

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.A, self.B, self.C)):
            raise ValueError("parameters A, B, C must all be positive and finite")


def rhs(s: Vec3, p: SystemParams) -> Vec3:
    """The vector field at s, for floats or for numpy arrays of states.

    XY and A Z X^2 are computed once and shared by two components, as in
    the step kernel of `integrate`, whose FSAL stage this is to the last bit:
    dense output takes its slopes from here.  Sharing a product changes no
    bit, and neither does writing -Y + XY as XY - Y (IEEE addition
    commutes) or -B Z as (-B) Z (which is how Python parses it)."""
    X, Y, Z = s
    xy = X * Y
    azxx = p.A * Z * X * X
    return (X - xy + p.C * X * X - azxx, xy - Y, -p.B * Z + azxx)


def jacobian(s: Vec3, p: SystemParams) -> Mat3:
    X, Y, Z = s
    return (
        (1.0 - Y + 2.0 * p.C * X - 2.0 * p.A * Z * X, -X, -p.A * X * X),
        (Y, X - 1.0, 0.0),
        (2.0 * p.A * Z * X, 0.0, -p.B + p.A * X * X),
    )


# ---------------------------------------------------------------------------
# eigen decomposition of a real 3x3 matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenData:
    eigenvalues: tuple[complex, complex, complex]
    eigenvectors: tuple[tuple[complex, complex, complex], ...]
    residuals: tuple[float, float, float]


def _char_coeffs(m: Mat3) -> tuple[float, float, float]:
    """lambda^3 + p2 lambda^2 + p1 lambda + p0 for det(m - lambda I) = 0."""
    (a, b, c), (d, e, f), (g, h, i) = m
    tr = a + e + i
    minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return -tr, minors, -det


def _cubic_roots(p2: float, p1: float, p0: float) -> tuple[complex, complex, complex]:
    """Roots of lambda^3 + p2 lambda^2 + p1 lambda + p0 (real coefficients)."""
    shift = p2 / 3.0
    a = p1 - p2 * p2 / 3.0
    b = p0 - p1 * p2 / 3.0 + 2.0 * p2 ** 3 / 27.0

    disc = -4.0 * a ** 3 - 27.0 * b ** 2
    if disc >= 0.0:
        # three real roots, trigonometric form
        if a == 0.0:
            ys = [0.0, 0.0, 0.0]
        else:
            q = 2.0 * math.sqrt(-a / 3.0)
            arg = 3.0 * b / (a * q)
            arg = max(-1.0, min(1.0, arg))
            theta = math.acos(arg)
            ys = [q * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
        roots = [complex(_polish_real(y - shift, p2, p1, p0), 0.0) for y in ys]
        return tuple(sorted(roots, key=lambda z: z.real))

    # one real root, Cardano with stable sign handling
    s = math.sqrt(b * b / 4.0 + a ** 3 / 27.0)
    u = -b / 2.0 + s if b <= 0 else -b / 2.0 - s
    t = math.copysign(abs(u) ** (1.0 / 3.0), u)
    y1 = t - a / (3.0 * t) if t != 0.0 else 0.0
    x1 = _polish_real(y1 - shift, p2, p1, p0)
    # deflate: lambda^2 + (p2 + x1) lambda + (p1 + x1 (p2 + x1))
    bq = p2 + x1
    cq = p1 + x1 * bq
    disc_q = bq * bq - 4.0 * cq
    im = math.sqrt(max(0.0, -disc_q)) / 2.0
    re = -bq / 2.0
    return (complex(x1, 0.0), complex(re, -im), complex(re, im))


def _polish_real(x: float, p2: float, p1: float, p0: float) -> float:
    for _ in range(3):
        f = ((x + p2) * x + p1) * x + p0
        df = (3.0 * x + 2.0 * p2) * x + p1
        if df == 0.0:
            break
        step = f / df
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _null_vector(m: Mat3, lam: complex) -> tuple[complex, complex, complex]:
    """Best cross product of rows of (m - lam I): bilinear-orthogonal to
    both rows, hence in the null space when the rank is 2."""
    rows = [
        (m[i][0] - (lam if i == 0 else 0), m[i][1] - (lam if i == 1 else 0), m[i][2] - (lam if i == 2 else 0))
        for i in range(3)
    ]
    best = None
    best_norm = -1.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = _cross(rows[i], rows[j])
        n = math.sqrt(sum(abs(x) ** 2 for x in w))
        if n > best_norm:
            best_norm = n
            best = w
    if best_norm <= 0.0:
        return (1.0 + 0j, 0j, 0j)  # defective or zero matrix; flagged by residual
    return tuple(x / best_norm for x in best)


def _residual(m: Mat3, lam: complex, v) -> float:
    out = []
    for i in range(3):
        out.append(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] - lam * v[i])
    return math.sqrt(sum(abs(x) ** 2 for x in out))


def eigen(m: Mat3) -> EigenData:
    for row in m:
        for x in row:
            if not math.isfinite(x):
                raise ValueError("matrix entries must be finite")
    p2, p1, p0 = _char_coeffs(m)
    try:
        lams = _cubic_roots(p2, p1, p0)
    except OverflowError:
        raise ValueError("the characteristic polynomial overflows") from None
    vecs = tuple(_null_vector(m, lam) for lam in lams)
    res = tuple(_residual(m, lam, v) for lam, v in zip(lams, vecs))
    return EigenData(lams, vecs, res)


# ---------------------------------------------------------------------------
# equilibria and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumReport:
    label: str
    coordinates: Vec3
    jacobian: Mat3
    eigen: EigenData
    stability_class: str


def steady_states(p: SystemParams) -> dict[str, Vec3]:
    if p.A * p.B == 0.0:
        raise ValueError("A * B underflows to 0, so S3 has no finite Z")
    root = math.sqrt(p.B / p.A)
    return {
        "S1": (0.0, 0.0, 0.0),
        "S2": (1.0, 1.0 + p.C, 0.0),
        "S3": (root, 0.0, (1.0 + p.C * root) / math.sqrt(p.A * p.B)),
    }


def classify_eigenvalues(lams) -> str:
    """Sign-pattern stability class from one real eigenvalue plus a complex
    pair (centers and vortices) or three mixed-sign reals (saddle)."""
    eps = EPS_LAMBDA
    reals = [z for z in lams if abs(z.imag) <= eps]
    pairs = [z for z in lams if z.imag > eps]
    if len(reals) == 3:
        signs = {1 if z.real > eps else (-1 if z.real < -eps else 0) for z in reals}
        if 1 in signs and -1 in signs:
            return SADDLE
        return UNCLASSIFIED
    if len(reals) == 1 and len(pairs) == 1:
        lam1 = reals[0].real
        re2 = pairs[0].real
        if abs(lam1) <= eps:
            if re2 > eps:
                return UNSTABLE_CENTER
            if re2 < -eps:
                return STABLE_CENTER
        elif lam1 < -eps and re2 > eps:
            return INWARD_UNSTABLE_VORTEX
        elif lam1 > eps and re2 < -eps:
            return OUTWARD_STABLE_VORTEX
    return UNCLASSIFIED


def equilibria(p: SystemParams) -> list[EquilibriumReport]:
    out = []
    for label, coords in steady_states(p).items():
        j = jacobian(coords, p)
        eig = eigen(j)
        out.append(
            EquilibriumReport(label, coords, j, eig, classify_eigenvalues(eig.eigenvalues))
        )
    return out


# ---------------------------------------------------------------------------
# parameter regions and the slow manifold
# ---------------------------------------------------------------------------

def c_window(p: SystemParams) -> bool:
    """(1/(8B) - 1) sqrt(A/B) < C <= 2 (1 + sqrt 2): both complex pairs exist."""
    lower = (1.0 / (8.0 * p.B) - 1.0) * math.sqrt(p.A / p.B)
    upper = 2.0 * (1.0 + math.sqrt(2.0))
    return lower < p.C <= upper


def region(p: SystemParams) -> str:
    ratio = p.B / p.A
    if not c_window(p):
        return REGION_OTHER
    if abs(ratio - 1.0) <= EPS_REGION:
        return REGION_A
    if ratio > 1.0 + EPS_REGION:
        return REGION_B
    return REGION_OTHER


@dataclass(frozen=True)
class SlowManifold:
    """The line of steady states L (when B/A = 1) or, off that locus, the
    S2->S3 chord that trajectories wind around."""

    exists: bool
    params: SystemParams
    s2: Vec3
    s3: Vec3
    center: Vec3

    def axis_frame(self) -> tuple[Vec3, Vec3, Vec3]:
        """Orthonormal (u, e1, e2) with u along the S2->S3 axis."""
        d = tuple(b - a for a, b in zip(self.s2, self.s3))
        n = math.sqrt(sum(x * x for x in d))
        if not 0.0 < n < math.inf:
            raise ValueError("the S2->S3 axis length is zero or overflows")
        u = tuple(x / n for x in d)
        a = (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0)
        e1 = _cross(u, a)
        n1 = math.sqrt(sum(x * x for x in e1))
        e1 = tuple(x / n1 for x in e1)
        e2 = _cross(u, e1)
        return u, e1, e2


def slow_manifold(p: SystemParams) -> SlowManifold:
    ss = steady_states(p)
    return SlowManifold(
        exists=abs(p.B / p.A - 1.0) <= EPS_REGION,
        params=p,
        s2=ss["S2"],
        s3=ss["S3"],
        center=(1.0, 1.0, p.C / p.A),
    )
