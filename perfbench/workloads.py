"""The four workloads: inputs made from the seed, one timed pass, checks.

Each workload object is built once per process (its inputs are generated in
the constructor, which is timed as set-up), then ``run`` executes one pass
through an ``Api`` and ``verify`` checks that pass's outputs outside the
timed region.  ``verify`` returns the exact counts the pass produced; they
must repeat from pass to pass and from run to run with the same seed.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from toposurge.dynamics import SystemParams
from toposurge.integrate import integrate
from toposurge.manifolds import circle, globe, subdivide, tetra_sphere, two_circles
from toposurge.orbits import LimitCycleNotFound
from toposurge.surgery import AnnulusSite, CurveSite, GluingMap

PARAMS_A = SystemParams(3.0, 3.0, 3.0)        # B/A = 1: spherical shells
PARAMS_B = SystemParams(2.9851, 3.0, 3.0)     # B/A > 1: toroidal scrolls
REGION_A_STARTS = ((1.0, 1.59, 0.81), (1.0, 1.3, 0.89), (1.0, 1.18, 0.95), (1.0, 1.08, 0.98))
REGION_B_STARTS = ((1.1075, 1.0, 1.0), (1.0, 1.0, 0.95), (1.0, 1.0, 0.9), (1.0, 1.0, 1.0))
CENTRE = (1.0, 1.0, 1.0)
JITTER = 1e-3          # per coordinate; seeds 1-3 keep every reference verdict


def _jitter(rng: random.Random, ic):
    return tuple(x + rng.uniform(-JITTER, JITTER) for x in ic)


class ShellTransition:
    """The acceptance reference set: four region-a orbits to t=200 with a
    Poincare section on X=1, four region-b orbits to t=2000, and the exact
    centre.  All nine trajectories stay in memory until the pass ends."""

    min_passes = 1
    section = ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.orbits = [("spherical", PARAMS_A, _jitter(rng, ic), 200.0) for ic in REGION_A_STARTS]
        self.orbits += [("toroidal", PARAMS_B, _jitter(rng, ic), 2000.0) for ic in REGION_B_STARTS]
        self.orbits.append(("stationary", PARAMS_A, CENTRE, 200.0))

    def run(self, api, task):
        out = []
        for expected, p, ic, t_end in self.orbits:
            with task():
                traj = api.integrate(p, ic, t_end)
                verdict = api.classify_shell(traj).verdict
                crossings = api.poincare(traj, *self.section) if expected == "spherical" else None
            out.append((traj, verdict, crossings))
        return out

    def verify(self, out, check):
        lowest = min(min(s) for traj, _, _ in out for s in traj.states)
        check(lowest > -1e-6, f"a coordinate fell to {lowest:.3e}")
        n_cross = 0
        for (expected, p, ic, _), (traj, verdict, crossings) in zip(self.orbits, out):
            check(verdict == expected, f"{ic}: {verdict}, expected {expected}")
            if crossings is not None:
                n_cross += len(crossings)
                off = max((abs(c.state[0] - 1.0) for c in crossings), default=float("inf"))
                check(off <= 1e-9, f"{ic}: section crossing {off:.3e} off the plane X=1")
        stats = [traj.stats for traj, _, _ in out]
        return {
            "integrate.steps": sum(s.n_accepted for s in stats),
            "integrate.rejects": sum(s.n_rejected for s in stats),
            "integrate.rhs_evals": sum(s.n_rhs for s in stats),
            "orbits.poincare.crossings": n_cross,
        }


class LimitCycleSearch:
    """Three region-b cycle searches from the reference starts, and one
    region-a search that must end in LimitCycleNotFound."""

    min_passes = 1
    region_a_start = (1.0, 1.3, 0.89)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.starts = [_jitter(rng, ic) for ic in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.95), (1.0, 1.0, 0.9))]

    def run(self, api, task):
        cycles = []
        for ic in self.starts:
            with task():
                cycles.append(api.detect_limit_cycle(PARAMS_B, ic))
        with task():
            try:
                refused = api.detect_limit_cycle(PARAMS_A, self.region_a_start)
            except LimitCycleNotFound as exc:
                refused = exc
        return cycles, refused

    def verify(self, out, check):
        cycles, refused = out
        for ic, lc in zip(self.starts, cycles):
            check(lc.residual < 1e-9, f"{ic}: residual {lc.residual:.3e}")
            loop = integrate(PARAMS_B, lc.anchor, lc.period, rtol=1e-10, atol=1e-12)
            gap = max(abs(a - b) for a, b in zip(loop.states[-1], lc.anchor))
            check(gap < 1e-8, f"{ic}: loop closes within {gap:.3e}")
        periods = [lc.period for lc in cycles]
        check(max(periods) - min(periods) < 1e-8, f"periods disagree: {periods}")
        check(isinstance(refused, LimitCycleNotFound), "region-a search did not refuse")
        newton = sum(len(lc.history) for lc in cycles)
        newton += len(getattr(refused, "history", ()))
        return {"orbits.newton_iterations": newton,
                "cycle.loop_samples": sum(len(lc.loop_t) for lc in cycles)}


LARGE_SIZES = (4096, 16384)
LARGE_OPS_PER_SIZE = 2
LEDGER_REPEATS = 2      # 72 ledger shapes, each this often per pass
SOLID_LAYERS = 5
MORSE_RESOLUTION = 256
SOLID_LIMITS = {  # kind -> (input limit, output limit) of the forward surgery
    "solid_1d_0": ("point", "two_points"),
    "solid_2d_0": ("point", "circle"),
    "solid_2d_1": ("point", "two_points"),
}


def _pick(pairs, u):
    return pairs[int(u * len(pairs))]


class SurgeryKernel:
    """The combinatorial half, no integration.  Large operations on
    subdivided spheres (validation, invariants, 0-surgery at a searched
    site, 1-surgery back through the tube band), and many small ones: a
    seeded Euler-characteristic ledger on small globes, the 1d component
    table, solid surgery of all kinds, and Morse frames on a fine grid."""

    min_passes = 1

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        spheres = {}
        s = tetra_sphere()
        while len(s.triangles) < max(LARGE_SIZES):
            s = subdivide(s)
            spheres[len(s.triangles)] = s
        self.large = [(spheres[t], rng.randrange(10))
                      for t in LARGE_SIZES for _ in range(LARGE_OPS_PER_SIZE)]
        # entry: globe size, pre-drilled handles (site, rotation), then either
        # a random 0-surgery or a tube and back through its band.  The seed
        # shuffles a balanced set of shapes and draws sites and rotations, so
        # the amount of work hardly depends on the seed.
        shapes = [(rings, seg, drills, random_site)
                  for rings in (4, 5, 6) for seg in (5, 6, 7, 8) for drills in (0, 1, 2)
                  for random_site in (True, False)] * LEDGER_REPEATS
        rng.shuffle(shapes)
        self.ledger = [
            (rings, seg, [(rng.random(), rng.randrange(10)) for _ in range(drills)],
             random_site, rng.random(), rng.randrange(10), rng.randrange(10))
            for rings, seg, drills, random_site in shapes
        ]

    def run(self, api, task):
        large, ledger, table, solids = [], [], [], []
        sites = 0
        for s, rotation in self.large:
            with task():
                s = api.Surface(s.n_vertices, s.triangles)
                before = api.invariants(s)
                torus, band = api.attach_tube(s, api.find_disc_pair(s), GluingMap(rotation))
                sites += 1
                drilled = api.invariants(torus)
            with task():
                healed = api.invariants(api.surgery_2d_1(torus, AnnulusSite(band), GluingMap()))
            large.append((before, drilled, healed))

        for rings, seg, drills, random_site, u, rot, rot_back in self.ledger:
            with task():
                s = globe(rings, seg)
                for du, drot in drills:
                    pairs = api.all_disc_pairs(s)
                    sites += len(pairs)
                    s = api.surgery_2d_0(s, _pick(pairs, du), GluingMap(drot))
                steps = [api.invariants(s)]
                pairs = api.all_disc_pairs(s)
                sites += len(pairs)
                if random_site:
                    steps.append(api.invariants(api.surgery_2d_0(s, _pick(pairs, u), GluingMap(rot))))
                else:
                    t, band = api.attach_tube(s, pairs[0], GluingMap(rot))
                    steps.append(api.invariants(t))
                    steps.append(api.invariants(
                        api.surgery_2d_1(t, AnnulusSite(band), GluingMap(rot_back))))
            ledger.append(steps)

        for n in range(4, 13):
            with task():
                m = circle(n)
                comps = [
                    (flip, api.invariants(api.surgery_1d_0(
                        m, CurveSite((i, j)), GluingMap(orientation_flip=flip))).components)
                    for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1)
                    for flip in (False, True)
                ]
            table.append(("circle", n, comps))
        for n in range(2, 8):
            with task():
                m = two_circles(n, n)
                comps = [(None, api.invariants(api.surgery_1d_0(m, CurveSite((a, b)), GluingMap())).components)
                         for a in range(n) for b in range(n, 2 * n)]
            table.append(("two_circles", n, comps))

        for kind in SOLID_LIMITS:
            for direction in ("forward", "dual"):
                with task():
                    fams = api.solid_surgery(kind, SOLID_LAYERS, direction)
                    reports = [api.cross_section_check(f) for f in fams]
                solids.append((kind, direction, fams, reports))

        with task():
            frames = api.morse_frames([-1.0, 0.0, 1.0], resolution=MORSE_RESOLUTION)
        return large, ledger, table, solids, frames, sites

    def verify(self, out, check):
        large, ledger, table, solids, frames, sites = out

        def key(rep):
            return rep.components, rep.euler_characteristic, rep.genus

        for (s, _), (before, drilled, healed) in zip(self.large, large):
            ok = (key(before), key(drilled), key(healed)) == ((1, 2, (0,)), (1, 0, (1,)), (1, 2, (0,)))
            check(ok, f"T={len(s.triangles)}: invariants {before}, {drilled}, {healed}")

        for (rings, seg, drills, *_), steps in zip(self.ledger, ledger):
            g = len(drills)
            chis = [r.euler_characteristic for r in steps]
            want = [2 - 2 * g, -2 * g] if len(steps) == 2 else [2 - 2 * g, -2 * g, 2 - 2 * g]
            ok = chis == want and all(r.components == 1 for r in steps)
            ok = ok and key(steps[0])[2] == (g,) and key(steps[1])[2] == (g + 1,)
            check(ok, f"ledger globe({rings},{seg}) +{g} handles: chi {chis}, expected {want}")

        for kind, n, comps in table:
            want = [(flip, 1 if flip or kind == "two_circles" else 2) for flip, _ in comps]
            check(comps == want, f"1d table {kind}({n}) components {comps}")

        for kind, direction, (fam_in, fam_out), reports in solids:
            lim_in, lim_out = SOLID_LIMITS[kind]
            if direction == "dual":
                lim_in, lim_out = lim_out, lim_in
            ok = (fam_in.limit, fam_out.limit) == (lim_in, lim_out) and all(r.match for r in reports)
            check(ok, f"{kind} {direction}: limits {fam_in.limit} -> {fam_out.limit}")

        shape = [(f.branch_count, f.degenerate) for f in frames]
        check(shape[0] == (2, False) and shape[1][1] and shape[2] == (2, False),
              f"morse frames {shape}")

        drilled = sum(len(d) + 1 for _, _, d, *_ in self.ledger)
        return {
            "surgery.site_search.sites_enumerated": sites,
            "surgery.sites_used": len(self.large) + drilled,
        }


def _fmt_ic(ic):
    return ",".join(repr(x) for x in ic)


class CliSession:
    """A fixed user session of sequential ``python -m toposurge.cli`` calls,
    each one process; the last one names an invalid site and must exit 2.
    Every pass must produce byte-identical stdout and files."""

    min_passes = 2

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        orbit_ic = _fmt_ic(_jitter(rng, (1.0, 1.0, 0.9)))
        shell_ic = _fmt_ic(_jitter(rng, (1.0, 1.3, 0.89)))
        b = ["--A", "2.9851", "--B", "3", "--C", "3"]
        a = ["--A", "3", "--B", "3", "--C", "3"]
        caps = ["--site-a", "0,1,2,3,4,5", "--site-b", "30,31,32,33,34,35"]
        self.calls = [
            (["equilibria", *a], 0),
            (["equilibria", *b, "--format", "json"], 0),
            (["build", "--kind", "globe", "--rings", "3", "--segments", "6", "--out", "sphere.json"], 0),
            (["surgery", "--input", "sphere.json", "--dim", "2", "--type", "0", *caps,
              "--out", "torus.json"], 0),
            (["surgery", "--input", "torus.json", "--dim", "2", "--type", "1",
              "--site", ",".join(str(i) for i in range(24, 36)), "--out", "sphere_again.json"], 0),
            (["simulate", *b, "--ic", orbit_ic, "--t-end", "500", "--out", "orbit.csv"], 0),
            (["plot", "--in", "orbit.csv", "--projection", "iso", "--out", "orbit.svg"], 0),
            (["classify-shell", *a, "--ic", shell_ic, "--t-end", "200"], 0),
            (["morse-frames", "--t", "-1", "0", "1", "--format", "svg", "--out-dir", "frames"], 0),
            (["solid-demo", "--kind", "2d0", "--layers", "5"], 0),
            (["surgery", "--input", "sphere.json", "--dim", "2", "--type", "0",
              "--site-a", "0,1,2", "--site-b", "2,3,4", "--out", "bad.json"], 2),
        ]
        self.workdir = workdir
        self.passes = 0
        self.reference = None

    def run(self, api, task):
        self.passes += 1
        d = self.workdir / f"pass{self.passes}"
        d.mkdir(parents=True)
        results = []
        for argv, _ in self.calls:
            with task():
                results.append(api.cli(argv, d))
        return d, results

    def verify(self, out, check):
        d, results = out
        for (argv, want), (code, _) in zip(self.calls, results):
            check(code == want, f"{argv[0]} exited {code}, expected {want}")
        files = {p.relative_to(d).as_posix(): p.read_bytes()
                 for p in sorted(d.rglob("*")) if p.is_file()}
        shutil.rmtree(d)

        def genus(name):
            try:
                return json.loads(files[name])["invariants"]["genus"]
            except (KeyError, ValueError):
                return None

        check(genus("torus.json") == [1] and genus("sphere_again.json") == [0],
              "surgery outputs have the wrong genus")
        check(b'"verdict": "spherical"' in results[7][1], "classify-shell verdict is not spherical")
        check(len([f for f in files if f.startswith("frames/")]) == 3, "morse-frames wrote no 3 frames")
        check("bad.json" not in files, "the invalid surgery wrote a file")
        snapshot = ([stdout for _, stdout in results], files)
        if self.reference is None:
            self.reference = snapshot
        else:
            check(snapshot == self.reference, "stdout or files differ from the first pass")
        return {"cli.invocations": len(results),
                "cli.nonzero_exits": sum(1 for code, _ in results if code != 0)}


WORKLOADS = {
    "shell_transition": ShellTransition,
    "limit_cycle": LimitCycleSearch,
    "surgery_kernel": SurgeryKernel,
    "cli_session": CliSession,
}
