"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest`` (the lines print through the capture) or
``pytest -v tests/test_acceptance.py`` for the full picture.
"""

import cmath
import math
import random
import time

import pytest

from toposurge.dynamics import (
    SystemParams,
    equilibria,
    jacobian,
    rhs,
    slow_manifold,
    steady_states,
)
from toposurge.integrate import integrate
from toposurge.manifolds import (
    STOCK,
    globe,
    globe_band,
    globe_north_cap,
    globe_south_cap,
    invariants,
    circle,
    two_circles,
)
from toposurge.morse import morse_frames
from toposurge.orbits import classify_shell, winding_profile
from toposurge.solid import cross_section_check, solid_surgery
from toposurge.surgery import (
    AnnulusSite,
    CurveSite,
    DiscPairSite,
    GluingMap,
    all_disc_pairs,
    attach_tube,
    find_disc_pair,
    surgery_1d_0,
    surgery_2d_0,
    surgery_2d_1,
)

from conftest import ICS_A, ICS_B, PARAMS_A, PARAMS_B


@pytest.fixture
def announce(capsys):
    def _announce(number: int, ok: bool, text: str):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
        assert ok, f"criterion {number}: {text}"

    return _announce


def _sorted_eigs(p, label):
    e = {r.label: r for r in equilibria(p)}[label]
    return sorted(e.eigen.eigenvalues, key=lambda z: (z.imag, z.real))


def test_criterion_1_eigenvalue_reproduction(announce):
    lams = _sorted_eigs(PARAMS_A, "S2")
    published = sorted(
        [complex(0, 0), complex(1.5, -1.3229), complex(1.5, 1.3229)],
        key=lambda z: (z.imag, z.real),
    )
    ok = all(abs(a - b) < 1e-3 for a, b in zip(lams, published))
    s1 = sorted(z.real for z in _sorted_eigs(PARAMS_A, "S1"))
    ok = ok and all(abs(a - b) < 1e-12 for a, b in zip(s1, (-3.0, -1.0, 1.0)))
    ok = ok and all(abs(z.imag) < 1e-12 for z in _sorted_eigs(PARAMS_A, "S1"))
    announce(1, ok, "S2 eigenvalues {0, 1.5 +/- 1.3229i} to 1e-3; S1 {1,-1,-3} to 1e-12")


def test_criterion_2_perturbed_real_eigenvalues(announce):
    s2 = [z for z in _sorted_eigs(PARAMS_B, "S2") if abs(z.imag) < 1e-9]
    s3 = [z for z in _sorted_eigs(PARAMS_B, "S3") if abs(z.imag) < 1e-9]
    ok = abs(s2[0].real - (-0.0149)) < 1e-4 and abs(s3[0].real - 0.0025) < 1e-4
    announce(2, ok, "lambda1(S2) = -0.0149 and lambda1(S3) = +0.0025 to 1e-4")


def test_criterion_3_s3_pair_against_polynomial_oracle(announce):
    # independent oracle: roots of lambda^2 + lambda + 24 = 0
    root = (-1 + cmath.sqrt(complex(1 - 4 * 24, 0))) / 2
    pair = [z for z in _sorted_eigs(PARAMS_A, "S3") if z.imag > 0][0]
    ok = abs(pair - root) < 1e-9
    # for the record: the quoted pair -1.000 +/- 4.8780i disagrees with this
    # oracle; acceptance is against the oracle
    ok = ok and abs(root - complex(-0.5, 4.8734)) < 1e-4
    announce(3, ok, "S3 complex pair equals roots of x^2 + x + 24 (=-0.5 +/- 4.8734i) to 1e-9")


def test_criterion_4_equilibrium_residuals_and_jacobian(announce):
    vals = [0.5 + 4.5 * i / 4 for i in range(5)]
    worst = 0.0
    for a in vals:
        for b in vals:
            for c in vals:
                p = SystemParams(a, b, c)
                for coords in steady_states(p).values():
                    f = rhs(coords, p)
                    worst = max(worst, math.sqrt(sum(x * x for x in f)))
    ok = worst < 1e-12

    rng = random.Random(42)
    fd_worst = 0.0
    for _ in range(100):
        p = SystemParams(rng.uniform(0.5, 5), rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        s = tuple(rng.uniform(-2, 3) for _ in range(3))
        jan = jacobian(s, p)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(s[j]))
            up = list(s)
            dn = list(s)
            up[j] += h
            dn[j] -= h
            fu, fd_ = rhs(tuple(up), p), rhs(tuple(dn), p)
            for i in range(3):
                fd_worst = max(fd_worst, abs(jan[i][j] - (fu[i] - fd_[i]) / (2 * h)))
    ok = ok and fd_worst < 1e-6
    announce(4, ok, f"residuals < 1e-12 on the 5x5x5 grid (worst {worst:.1e}); "
                    f"analytic vs central differences < 1e-6 (worst {fd_worst:.1e})")


def test_criterion_5_surgery_transition(announce, reference_orbits):
    t0 = time.perf_counter()
    verdicts_a = [classify_shell(reference_orbits["a"][ic]).verdict for ic in ICS_A]
    verdict_stationary = classify_shell(reference_orbits["stationary"]).verdict
    verdicts_b = [classify_shell(reference_orbits["b"][ic]).verdict for ic in ICS_B]
    elapsed = reference_orbits["elapsed"] + (time.perf_counter() - t0)
    ok = (
        verdicts_a == ["spherical"] * 4
        and verdicts_b == ["toroidal"] * 4
        and verdict_stationary == "stationary"
        and elapsed < 60.0
    )
    announce(5, ok, f"set (a) all spherical, set (b) all toroidal, centre stationary "
                    f"({elapsed:.1f}s < 60s)")


def test_criterion_6_limit_cycle(announce, cycle_b):
    eps_cycle = 1e-9
    traj = integrate(PARAMS_B, cycle_b.anchor, cycle_b.period, rtol=1e-10, atol=1e-12)
    gap = max(abs(a - b) for a, b in zip(traj.states[-1], cycle_b.anchor))
    prof = winding_profile(traj, slow_manifold(PARAMS_B))
    ok = (
        cycle_b.residual < eps_cycle
        and cycle_b.period > 0
        and gap < 10 * eps_cycle
        and abs(abs(prof.total_turns) - 1.0) < 1e-6
    )
    announce(6, ok, f"cycle found from (1,1,1): period {cycle_b.period:.6f}, loop "
                    f"returns within {gap:.1e} < 1e-8, winding 1 turn/period")


def test_criterion_7_surgery_kernel_invariants(announce):
    t0 = time.perf_counter()
    sph = globe(3, 6)
    polar = DiscPairSite(globe_north_cap(6), globe_south_cap(3, 6))
    r1 = invariants(surgery_2d_0(sph, polar, GluingMap()))
    ok = (r1.components, r1.euler_characteristic, r1.genus) == (1, 0, (1,))

    r2 = invariants(surgery_2d_1(sph, AnnulusSite(globe_band(1, 6)), GluingMap()))
    ok = ok and (r2.components, r2.euler_characteristic, r2.genus) == (2, 4, (0, 0))

    for g in range(5):
        s = STOCK["genus_g"](g)
        out = surgery_2d_0(s, find_disc_pair(s), GluingMap())
        ok = ok and invariants(out).genus == (g + 1,)

    for n in range(4, 13):
        m = circle(n)
        for i in range(n):
            for j in range(i + 1, n):
                if (j - i == 1) or (i == 0 and j == n - 1):
                    continue  # adjacent arcs are not a disjoint embedding
                site = CurveSite((i, j))
                ok = ok and invariants(surgery_1d_0(m, site, GluingMap())).components == 2
                ok = ok and (
                    invariants(
                        surgery_1d_0(m, site, GluingMap(orientation_flip=True))
                    ).components
                    == 1
                )
    for n in range(2, 8):
        m = two_circles(n, n)
        for a in range(n):
            for b in range(n, 2 * n):
                ok = ok and invariants(surgery_1d_0(m, CurveSite((a, b)), GluingMap())).components == 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(7, ok, f"sphere->torus (1,0,1); sphere->two spheres (2,4,0); genus g->g+1 "
                    f"for g=0..4; 1d component table exhaustively ({elapsed:.2f}s < 5s)")


def test_criterion_8_chi_accounting(announce):
    rng = random.Random(2026)
    checked = 0
    ok = True
    while checked < 200:
        rings = rng.randint(3, 5)
        seg = rng.randint(3, 7)
        s = globe(rings, seg)
        # randomize the surface itself: drill 0-2 handles first
        for _ in range(rng.randint(0, 2)):
            pairs = all_disc_pairs(s)
            if not pairs:
                break
            s = surgery_2d_0(s, pairs[rng.randrange(len(pairs))], GluingMap(rng.randint(0, 9)))
        chi0 = invariants(s).euler_characteristic
        if rng.random() < 0.5:
            pairs = all_disc_pairs(s)
            if not pairs:
                continue
            site = pairs[rng.randrange(len(pairs))]
            out = surgery_2d_0(s, site, GluingMap(rng.randint(0, 9)))
            ok = ok and invariants(out).euler_characteristic == chi0 - 2
        else:
            pairs = all_disc_pairs(s)
            if not pairs:
                continue
            t, band = attach_tube(s, pairs[0], GluingMap(rng.randint(0, 9)))
            chi_t = invariants(t).euler_characteristic
            ok = ok and chi_t == chi0 - 2
            out = surgery_2d_1(t, AnnulusSite(band), GluingMap(rng.randint(0, 9)))
            ok = ok and invariants(out).euler_characteristic == chi_t + 2
        checked += 1
    announce(8, ok, f"chi changes by exactly -2 / +2 over {checked} randomized sites")


def test_criterion_9_positive_octant(announce):
    rng = random.Random(20260809)
    worst = math.inf
    for params in (PARAMS_A, PARAMS_B):
        for _ in range(20):
            ic = tuple(rng.uniform(0.1, 2.0) for _ in range(3))
            traj = integrate(params, ic, 1000.0)
            worst = min(worst, float(traj.states.min()))
    ok = worst > -1e-6
    announce(9, ok, f"20 random positive starts per regime stay positive to t=1000 "
                    f"(min coordinate {worst:.1e} > -1e-6)")


def test_criterion_10_solid_and_morse(announce):
    neg, zero, pos = morse_frames([-1.0, 0.0, 1.0])
    ok = neg.branch_count == 2 and zero.degenerate and pos.branch_count == 2

    fi, fo = solid_surgery("solid_2d_0", 3)
    ok = ok and (fi.limit, fo.limit) == ("point", "circle")
    fi, fo = solid_surgery("solid_2d_1", 3)
    ok = ok and (fi.limit, fo.limit) == ("point", "two_points")
    fi, fo = solid_surgery("solid_1d_0", 3)
    ok = ok and (fi.limit, fo.limit) == ("point", "two_points")
    for kind in ("solid_1d_0", "solid_2d_0", "solid_2d_1"):
        di, do = solid_surgery(kind, 3, "dual")
        fi, fo = solid_surgery(kind, 3, "forward")
        ok = ok and di.limit == fo.limit and do.limit == fi.limit
        for fam in (fi, fo, di, do):
            ok = ok and cross_section_check(fam).match
    announce(10, ok, "branch counts (2, degenerate, 2); limit rules exact with exact "
                     "duals; cross-sections match for all three kinds")
