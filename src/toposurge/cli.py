"""Command line front end.

Exit codes: 0 success, 1 computational failure (a failed integration, or a
limit-cycle search that does not converge), 2 usage or validation error;
see main.  All numeric output is deterministic.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from dataclasses import asdict

from . import manifolds, morse, solid
from .dynamics import REGION_B, SystemParams, equilibria, region, slow_manifold
from .integrate import MAX_STEPS, IntegrationError, Trajectory, integrate
from .manifolds import invariants
from .orbits import (
    LimitCycleNotFound,
    classify_shell,
    detect_limit_cycle,
    poincare,
    section_plane,
)
from .serialize import (
    atomic_write_text,
    complex_from_dict,
    complex_to_dict,
    cycle_failure_to_dict,
    dumps,
    equilibrium_to_dict,
    family_to_dict,
    fmt,
    limit_cycle_to_dict,
    read_trajectory_csv,
    section_report_to_dict,
    slow_manifold_to_dict,
    trajectory_csv,
)
from .surgery import (
    AnnulusSite,
    CurveSite,
    DiscPairSite,
    GluingMap,
    surgery_1d_0,
    surgery_2d_0,
    surgery_2d_1,
)
from .svgplot import PROJECTIONS, frame_svg, trajectory_svg

USAGE_ERROR = 2
FAILURE = 1


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _params(args) -> SystemParams:
    return SystemParams(args.A, args.B, args.C)


def _triple(text: str, name: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{name} must be three comma-separated numbers")
    try:
        return tuple(float(x) for x in parts)
    except ValueError:
        raise ValueError(f"{name}: could not parse {text!r}") from None


def _int_list(text: str | None, name: str) -> tuple[int, ...]:
    if not text:
        raise ValueError(f"this surgery needs {name}")
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise ValueError(f"{name}: could not parse {text!r}") from None


def _given(args, *names) -> dict:
    """The options in names that the command line set, by name.  Options
    default to None, "not given", so that an unset one keeps the default of
    the library call it is passed to."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _reject_unread(args, names, where: str) -> None:
    """Raise for the first option in names that the command line set."""
    for name in _given(args, *names):
        raise ValueError(f"--{name.replace('_', '-')} does not apply to {where}")


def _emit_complex(m, out: str | None) -> None:
    doc = {"complex": complex_to_dict(m), "invariants": asdict(invariants(m))}
    _emit(dumps(doc), out)


def _orbit(args) -> Trajectory:
    """The orbit that --A/--B/--C, --ic, --t-end and --rtol/--atol name."""
    return integrate(_params(args), _triple(args.ic, "--ic"), args.t_end,
                     **_given(args, "rtol", "atol"))


# ---------------------------------------------------------------------------
# subcommand handlers: each raises ValueError or OSError for bad input and
# IntegrationError for a failed integration; main maps them to exit codes
# ---------------------------------------------------------------------------

def cmd_equilibria(args) -> int:
    p = _params(args)
    reports = equilibria(p)
    doc = {
        "params": asdict(p),
        "region": region(p),
        "equilibria": [equilibrium_to_dict(e) for e in reports],
        "slow_manifold": slow_manifold_to_dict(slow_manifold(p)),
    }
    if args.format == "json":
        _emit(dumps(doc), args.out)
    else:
        lines = [f"region: {doc['region']}"]
        for e in reports:
            lams = ", ".join(
                f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}i"
                if z.imag else fmt(z.real)
                for z in e.eigen.eigenvalues
            )
            coords = ", ".join(fmt(x) for x in e.coordinates)
            lines.append(f"{e.label} = ({coords})  eigenvalues {{{lams}}}  {e.stability_class}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.resample and not 2 <= args.resample <= MAX_STEPS:
        raise ValueError(f"--resample must be 0 (raw steps) or in [2, {MAX_STEPS}]")
    _emit(trajectory_csv(_orbit(args), resample_n=args.resample), args.out)
    return 0


def cmd_classify_shell(args) -> int:
    traj = _orbit(args)
    doc = asdict(classify_shell(traj))
    doc["params"] = asdict(traj.params)
    doc["ic"] = traj.states[0].tolist()
    doc["t_end"] = args.t_end
    _emit(dumps(doc), args.out)
    return 0


def cmd_poincare(args) -> int:
    point = _triple(args.plane_point, "--plane-point")
    normal = _triple(args.plane_normal, "--plane-normal")
    section_plane(point, normal)  # a bad plane is refused before the orbit is integrated
    crossings = poincare(_orbit(args), point, normal)
    doc = {"count": len(crossings), "crossings": [asdict(c) for c in crossings]}
    _emit(dumps(doc), args.out)
    return 0


def cmd_limit_cycle(args) -> int:
    p = _params(args)
    ic = _triple(args.ic, "--ic")
    try:
        lc = detect_limit_cycle(
            p, ic, **_given(args, "explore_time", "eps_cycle", "rtol", "atol")
        )
        doc, code = limit_cycle_to_dict(lc), 0
    except (LimitCycleNotFound, IntegrationError) as exc:
        # a failed search is still a result: a JSON report with the history
        doc, code = cycle_failure_to_dict(str(exc), getattr(exc, "history", ())), FAILURE
    _emit(dumps(doc), args.out)
    # warned after the search, so that a rejected input leaves one stderr line
    if region(p) != REGION_B:
        print(f"warning: parameters lie in {region(p)}, not {REGION_B}; "
              "an isolated cycle is not expected", file=sys.stderr)
    return code


# surgery -> the options it does not read, which it therefore rejects
_SURGERY_UNUSED = {
    "1-dimensional 0-surgery": ("type", "rotation", "site_a", "site_b"),
    "2-dimensional 0-surgery": ("site",),
    "2-dimensional 1-surgery": ("site_a", "site_b", "rotation", "flip"),
}


def cmd_surgery(args) -> int:
    kind = ("1-dimensional 0-surgery" if args.dim == 1
            else f"2-dimensional {args.type or 0}-surgery")
    _reject_unread(args, _SURGERY_UNUSED[kind], kind)
    if args.dim == 1:
        surgery, site = surgery_1d_0, CurveSite(_int_list(args.site, "--site"))
    elif args.type == 1:
        surgery, site = surgery_2d_1, AnnulusSite(_int_list(args.site, "--site"))
    else:
        surgery, site = surgery_2d_0, DiscPairSite(
            _int_list(args.site_a, "--site-a"), _int_list(args.site_b, "--site-b"))
    with open(args.input) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too deeply") from None
    if isinstance(doc, dict) and "kind" not in doc:
        doc = doc.get("complex", doc)  # accept our own output documents back
    m = complex_from_dict(doc)
    if (args.dim == 1) != isinstance(m, manifolds.OneManifold):
        raise ValueError(f"--dim {args.dim} needs a {'curve' if args.dim == 1 else 'surface'}")
    g = GluingMap(orientation_flip=bool(args.flip), **_given(args, "rotation"))
    _emit_complex(surgery(m, site, g), args.out)
    return 0


# a build kind's size options are its builder's parameters; _SIZE_OPTIONS has
# every kind's, each once, in the order the kinds name them
_SIZE_OPTIONS = tuple(dict.fromkeys(
    o for build in manifolds.STOCK.values() for o in inspect.signature(build).parameters))


def cmd_build(args) -> int:
    build = manifolds.STOCK[args.kind]
    sizes = inspect.signature(build).parameters
    _reject_unread(args, [o for o in _SIZE_OPTIONS if o not in sizes], f"--kind {args.kind}")
    _emit_complex(build(**_given(args, *sizes)), args.out)
    return 0


def cmd_morse_frames(args) -> int:
    if args.format == "svg" and not args.out_dir:
        raise ValueError("--format svg requires --out-dir")
    if args.format == "svg" and args.out is not None:
        raise ValueError("--out does not apply to --format svg; use --out-dir")
    if args.format == "json" and args.out_dir is not None:
        raise ValueError("--out-dir does not apply to --format json; use --out")
    frames = morse.morse_frames(args.t, **_given(args, "box", "resolution"))
    if args.format == "json":
        doc = {"frames": [{**asdict(f), "degenerate": f.degenerate,
                           "branch_count": f.branch_count} for f in frames]}
        _emit(dumps(doc), args.out)
    else:
        for i, f in enumerate(frames):
            atomic_write_text(f"{args.out_dir}/frame_{i:03d}.svg", frame_svg(f))
        print(f"wrote {len(frames)} frames to {args.out_dir}")
    return 0


# solid-demo's --kind names each of solid.KINDS without "solid_" and "_"
_SOLID_KINDS = {k.removeprefix("solid_").replace("_", ""): k for k in solid.KINDS}


def cmd_solid_demo(args) -> int:
    fam_in, fam_out = solid.solid_surgery(
        _SOLID_KINDS[args.kind], args.layers, **_given(args, "direction"))
    rep_in = solid.cross_section_check(fam_in)
    rep_out = solid.cross_section_check(fam_out)
    doc = {
        "input": family_to_dict(fam_in),
        "output": family_to_dict(fam_out),
        "limit": fam_out.limit,
        "cross_sections": {
            "input": section_report_to_dict(rep_in),
            "output": section_report_to_dict(rep_out),
        },
    }
    _emit(dumps(doc), args.out)
    return 0


def cmd_plot(args) -> int:
    markers = None
    if args.equilibria:
        p = SystemParams(*_triple(args.equilibria, "--equilibria"))
        markers = [(e.label, e.coordinates) for e in equilibria(p)]
    with open(args.infile) as f:
        rows = read_trajectory_csv(f.read())
    _emit(trajectory_svg(rows, markers=markers, **_given(args, "projection")), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_param_args(sp, with_ic=False, with_t_end=True):
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--C", type=float, required=True)
    if with_ic:
        sp.add_argument("--ic", required=True, help="initial state X,Y,Z")
        if with_t_end:
            sp.add_argument("--t-end", dest="t_end", type=float, default=200.0)
        sp.add_argument("--rtol", type=float)
        sp.add_argument("--atol", type=float)


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, for main to report.

    A token that starts with "-" and a digit, ".", "inf" or "nan" in any
    case is a value, as in --ic -1,0,0, --t -1e-3 or --ic -inf,1,1:
    argparse alone takes only a plain negative integer or decimal for one.
    No option of this CLI starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="toposurge",
        description="Topological surgery on combinatorial manifolds and the "
        "three-species system whose orbits drill holes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("equilibria", help="steady states, eigenvalues, stability")
    _add_param_args(sp)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_equilibria)

    sp = sub.add_parser("simulate", help="integrate and write trajectory CSV")
    _add_param_args(sp, with_ic=True)
    sp.add_argument("--resample", type=int, default=0, help="uniform rows (0 = raw steps)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("classify-shell", help="spherical/toroidal/stationary verdict")
    _add_param_args(sp, with_ic=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_classify_shell)

    sp = sub.add_parser("poincare", help="plane-crossing section of an orbit")
    _add_param_args(sp, with_ic=True)
    sp.add_argument("--plane-point", required=True)
    sp.add_argument("--plane-normal", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_poincare)

    sp = sub.add_parser("limit-cycle", help="locate the periodic orbit (region b)")
    _add_param_args(sp, with_ic=True, with_t_end=False)
    sp.add_argument("--eps-cycle", dest="eps_cycle", type=float)
    sp.add_argument("--explore-time", dest="explore_time", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_limit_cycle)

    sp = sub.add_parser("surgery", help="cut-and-glue on a complex JSON file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--dim", type=int, choices=(1, 2), required=True)
    # --type, --rotation and --flip default to None, "not given": a surgery
    # rejects the ones it does not read; unset --type means 0, and an unset
    # --rotation takes GluingMap's default
    sp.add_argument("--type", type=int, choices=(0, 1))
    sp.add_argument("--site", help="arc pair (1d) or annulus triangles (2d type 1)")
    sp.add_argument("--site-a", dest="site_a", help="first disc triangles (2d type 0)")
    sp.add_argument("--site-b", dest="site_b", help="second disc triangles (2d type 0)")
    sp.add_argument("--rotation", type=int)
    sp.add_argument("--flip", action="store_true", default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_surgery)

    sp = sub.add_parser("build", help="emit a standard complex as JSON")
    sp.add_argument("--kind", choices=tuple(manifolds.STOCK), required=True)
    for option in _SIZE_OPTIONS:  # None, "not given": the builder's default
        sp.add_argument(f"--{option}", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("morse-frames", help="level sets of x^2 - y^2 = t")
    sp.add_argument("--t", type=float, nargs="+", required=True)
    sp.add_argument("--box", type=float)
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--format", choices=("json", "svg"), default="json")
    sp.add_argument("--out")
    sp.add_argument("--out-dir", dest="out_dir")
    sp.set_defaults(func=cmd_morse_frames)

    sp = sub.add_parser("solid-demo", help="layered surgery family with limits")
    sp.add_argument("--kind", choices=tuple(_SOLID_KINDS), required=True)
    sp.add_argument("--layers", type=int, default=5)
    sp.add_argument("--direction", choices=solid.DIRECTIONS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solid_demo)

    sp = sub.add_parser("plot", help="render a trajectory CSV to SVG")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--projection", choices=PROJECTIONS)
    sp.add_argument("--equilibria", help="overlay steady states for A,B,C")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    """Run one command.  This is the one place that maps failures to exit
    codes: an IntegrationError is exit 1; a ValueError (bad arguments, values
    or files, including InvalidManifold, InvalidSite, CsvFormatError and
    json.JSONDecodeError) or an OSError is exit 2.  Either prints one line on
    stderr.  Anything else is a bug and keeps its traceback."""
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from None


if __name__ == "__main__":
    sys.exit(main())
