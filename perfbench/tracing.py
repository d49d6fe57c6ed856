"""Spans around the public functions of toposurge's modules, and the
per-layer metrics derived from them.

Spans are recorded only from this directory: a workload calls the library
through an ``Api`` whose functions may be wrapped, and ``installed`` swaps
the functions one module takes from another (``toposurge.orbits.integrate``
and so on) for wrapped ones while a traced pass runs.  Nothing under
``src/`` knows about tracing.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

from toposurge import cli, manifolds, morse, orbits, solid, surgery
from toposurge.integrate import integrate

def _all_disc_pairs(s):
    """Every valid disc pair as a list, so that a lazy search would still be
    timed in full inside its span."""
    return list(surgery.all_disc_pairs(s))


# what a workload calls directly
DIRECT = {
    "integrate": integrate,
    "classify_shell": orbits.classify_shell,
    "poincare": orbits.poincare,
    "detect_limit_cycle": orbits.detect_limit_cycle,
    "Surface": manifolds.Surface,
    "invariants": manifolds.invariants,
    "find_disc_pair": surgery.find_disc_pair,
    "all_disc_pairs": _all_disc_pairs,
    "attach_tube": surgery.attach_tube,
    "surgery_2d_0": surgery.surgery_2d_0,
    "surgery_2d_1": surgery.surgery_2d_1,
    "surgery_1d_0": surgery.surgery_1d_0,
    "solid_surgery": solid.solid_surgery,
    "cross_section_check": solid.cross_section_check,
    "morse_frames": morse.morse_frames,
}

# functions one module takes from another, swapped while a traced pass runs.
# orbits._package_cycle is the one private name: wrapping it is what tells
# the closing loop integration of a cycle search apart from its returns.
PATCHED = {
    orbits: ("integrate", "winding_profile", "section_sequence", "_package_cycle"),
    surgery: ("compact_surface", "validate_disc_pair"),
    cli: ("integrate", "classify_shell", "dumps", "trajectory_csv", "read_trajectory_csv",
          "trajectory_svg", "frame_svg", "surgery_2d_0", "surgery_2d_1", "invariants"),
    solid: ("solid_surgery", "cross_section_check"),
    morse: ("morse_frames",),
}


# ---------------------------------------------------------------------------
# counts taken at the boundary
# ---------------------------------------------------------------------------

def _note_integrate(args, traj, exc):
    if traj is None:
        return {}
    st = traj.stats
    return {"steps": st.n_accepted, "rejects": st.n_rejected, "rhs": st.n_rhs,
            "model_time": traj.t_end - traj.t[0]}


def _note_winding(args, prof, exc):
    if prof is None:
        return {}
    return {"added": len(prof.t) + prof.skipped - len(args[0])}


def _note_detect(args, cycle, exc):
    history = cycle.history if cycle is not None else getattr(exc, "history", ())
    return {"newton": len(history)}


def _note_package(args, result, exc):
    return {"period": float(args[3])}


def _note_triangles_in(args, result, exc):
    return {"triangles": len(args[1])}


def _note_triangles_out(args, surface, exc):
    return {"triangles": len(surface.triangles)} if surface is not None else {}


def _note_invariants(args, result, exc):
    return {"triangles": len(getattr(args[0], "triangles", ()))}


def _note_sites(args, result, exc):
    if result is None:
        return {"sites": 0}
    return {"sites": 1 if isinstance(result, surgery.DiscPairSite) else len(result)}


def _note_morse(args, frames, exc):
    if frames is None:
        return {}
    return {"cells": sum(f.resolution ** 2 for f in frames)}


def _note_crossings(args, crossings, exc):
    return {"crossings": len(crossings)} if crossings is not None else {}


def _note_bytes(args, text, exc):
    return {"bytes": len(text.encode())} if text is not None else {}


def _note_exit(args, code, exc):
    if exc is not None:
        code = exc.code if isinstance(exc, SystemExit) else 1
    return {"code": code}


# function name -> (span name, counts taken from its arguments and result)
SPANS = {
    "integrate": ("integrate", _note_integrate),
    "classify_shell": ("orbits.classify_shell", None),
    "poincare": ("orbits.poincare", _note_crossings),
    "detect_limit_cycle": ("orbits.detect_limit_cycle", _note_detect),
    "winding_profile": ("orbits.winding_profile", _note_winding),
    "section_sequence": ("orbits.section_sequence", None),
    "_package_cycle": ("orbits.package_cycle", _note_package),
    "Surface": ("manifolds.validate", _note_triangles_in),
    "compact_surface": ("manifolds.validate", _note_triangles_out),
    "invariants": ("manifolds.invariants", _note_invariants),
    "find_disc_pair": ("surgery.site_search", _note_sites),
    "all_disc_pairs": ("surgery.site_search", _note_sites),
    "validate_disc_pair": ("surgery.validate_site", None),
    "attach_tube": ("surgery.surgery_2d_0", None),
    "surgery_2d_0": ("surgery.surgery_2d_0", None),
    "surgery_2d_1": ("surgery.surgery_2d_1", None),
    "surgery_1d_0": ("surgery.surgery_1d_0", None),
    "solid_surgery": ("solid", None),
    "cross_section_check": ("solid", None),
    "morse_frames": ("morse", _note_morse),
    "dumps": ("serialize", _note_bytes),
    "trajectory_csv": ("serialize", _note_bytes),
    "read_trajectory_csv": ("serialize", None),
    "trajectory_svg": ("svgplot", None),
    "frame_svg": ("svgplot", None),
    "main": ("cli.main", _note_exit),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and task id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.task = None
        self._open: list[int] = []

    def wrap(self, attr, fn):
        name, note = SPANS[attr]
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "fn": attr,
                    "parent": stack[-1] if stack else None, "task": self.task}
            spans.append(span)
            stack.append(span["id"])
            result = exc = None
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span["error"] = type(e).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
                if note is not None:
                    span.update(note(args, result, exc))

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap the cross-module functions for traced ones, then restore them.
    Names a later version of the library no longer has are skipped."""
    saved = []
    try:
        for module, attrs in PATCHED.items():
            for attr in attrs:
                if hasattr(module, attr):
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, tracer.wrap(attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def missing_patches() -> list[str]:
    return [f"{m.__name__}.{a}" for m, attrs in PATCHED.items() for a in attrs
            if not hasattr(m, a)]


# ---------------------------------------------------------------------------
# the calls a workload makes
# ---------------------------------------------------------------------------

def _cli_subprocess(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "toposurge.cli", *argv],
        cwd=cwd, capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout


class Api:
    """The public functions a workload calls, wrapped when a tracer is given.

    ``cli(argv, cwd)`` runs one CLI call and returns (exit code, stdout
    bytes): as a fresh ``python -m toposurge.cli`` process, or in this
    process through ``toposurge.cli.main`` when ``in_process`` is set.
    """

    def __init__(self, tracer: Tracer | None = None, in_process: bool = False):
        self.tracer = tracer
        for attr, fn in DIRECT.items():
            setattr(self, attr, tracer.wrap(attr, fn) if tracer else fn)
        if not in_process:
            self.cli = _cli_subprocess
            return
        main = tracer.wrap("main", cli.main) if tracer else cli.main

        def cli_in_process(argv, cwd):
            out, err = io.StringIO(), io.StringIO()
            home = os.getcwd()
            os.chdir(cwd)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.chdir(home)
            return code, out.getvalue().encode()

        self.cli = cli_in_process

    @contextmanager
    def active(self):
        """Install the cross-module wrappers for the duration of a pass."""
        if self.tracer is None:
            yield
            return
        with installed(self.tracer):
            yield


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], wall: float, sites_used: int) -> dict[str, float]:
    by = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
        if s["parent"] is not None:
            kids[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def busy(name):
        return sum(dur(s) for s in by[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by[name])

    def self_time(name):
        return sum(dur(s) - sum(dur(k) for k in kids[s["id"]]) for s in by[name])

    # a cycle search: its first direct integrate is the exploration, every
    # later direct one a return integration; the closing loop is integrated
    # inside the package span
    explore = returns = return_time = useful = 0.0
    for s in by["orbits.detect_limit_cycle"]:
        children = kids[s["id"]]
        ints = [k for k in children if k["name"] == "integrate"]
        rets = ints[1:]
        explore += sum(dur(k) for k in ints[:1]) + sum(
            dur(k) for k in children
            if k["name"] in ("orbits.winding_profile", "orbits.section_sequence"))
        returns += len(rets)
        periods = [k["period"] for k in children if k["name"] == "orbits.package_cycle"]
        if periods:
            useful += periods[0] * len(rets)
            return_time += sum(k.get("model_time", 0.0) for k in rets)

    int_busy = busy("integrate")
    steps = total("integrate", "steps")
    val_busy = busy("manifolds.validate")
    val_tris = total("manifolds.validate", "triangles")
    surf_inv = [s for s in by["manifolds.invariants"] if s.get("triangles")]
    sites = total("surgery.site_search", "sites")
    cli_calls = by["cli.main"]
    return {
        "integrate.busy_s": int_busy,
        "integrate.us_per_step": _ratio(int_busy, steps) * 1e6,
        "integrate.steps": steps,
        "integrate.rejects": total("integrate", "rejects"),
        "integrate.rhs_evals": total("integrate", "rhs"),
        "integrate.rhs_per_step": _ratio(total("integrate", "rhs"), steps),
        "integrate.model_time": total("integrate", "model_time"),
        "integrate.share": _ratio(int_busy, wall),
        "orbits.detect_limit_cycle.self_s": self_time("orbits.detect_limit_cycle"),
        "orbits.explore_s": explore,
        "orbits.return_integrations": returns,
        "orbits.return_useful_ratio": _ratio(useful, return_time),
        "orbits.newton_iterations": total("orbits.detect_limit_cycle", "newton"),
        "orbits.classify_shell.self_s": self_time("orbits.classify_shell"),
        "orbits.winding_profile.busy_s": busy("orbits.winding_profile"),
        "orbits.winding_profile.added_samples": total("orbits.winding_profile", "added"),
        "orbits.poincare.busy_s": busy("orbits.poincare"),
        "orbits.poincare.crossings": total("orbits.poincare", "crossings"),
        "manifolds.validate.busy_s": val_busy,
        "manifolds.validate.us_per_triangle": _ratio(val_busy, val_tris) * 1e6,
        "manifolds.invariants.busy_s": busy("manifolds.invariants"),
        "manifolds.invariants.us_per_triangle": _ratio(
            sum(dur(s) for s in surf_inv), sum(s["triangles"] for s in surf_inv)) * 1e6,
        "manifolds.triangles": val_tris,
        "surgery.surgery_2d_0.self_s": self_time("surgery.surgery_2d_0"),
        "surgery.surgery_2d_1.self_s": self_time("surgery.surgery_2d_1"),
        "surgery.surgery_1d_0.busy_s": busy("surgery.surgery_1d_0"),
        "surgery.validate_site.busy_s": busy("surgery.validate_site"),
        "surgery.site_search.busy_s": busy("surgery.site_search"),
        "surgery.site_search.sites_enumerated": sites,
        "surgery.site_search.used_ratio": _ratio(sites_used, sites),
        "solid.busy_s": busy("solid"),
        "morse.busy_s": busy("morse"),
        "morse.cells": total("morse", "cells"),
        "cli.invocations": len(cli_calls),
        "cli.nonzero_exits": sum(1 for s in cli_calls if s.get("code") != 0),
        "serialize.busy_s": busy("serialize"),
        "serialize.bytes_out": total("serialize", "bytes"),
        "svgplot.busy_s": busy("svgplot"),
    }


# exact counts: equal on every pass, so the first pass's value is reported
COUNTS = (
    "integrate.steps", "integrate.rejects", "integrate.rhs_evals", "integrate.model_time",
    "orbits.return_integrations", "orbits.newton_iterations",
    "orbits.winding_profile.added_samples", "orbits.poincare.crossings",
    "manifolds.triangles", "surgery.site_search.sites_enumerated", "morse.cells",
    "cli.invocations", "cli.nonzero_exits", "serialize.bytes_out",
)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-pass values over the traced passes: counts from the first pass,
    everything else the median."""
    return {k: per_pass[0][k] if k in COUNTS else statistics.median(m[k] for m in per_pass)
            for k in per_pass[0]}
