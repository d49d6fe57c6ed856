"""File formats: complex JSON, report JSON, trajectory CSV, atomic writes.

All floats are emitted with 12 significant digits and all JSON keys are
sorted, so identical invocations produce byte-identical files.

Complex schema, every count and id a JSON integer:
    {"kind": "surface", "vertices": N, "triangles": [[i, j, k], ...]}
    {"kind": "curve", "cycles": [[a0, ...], ...], "chains": [[...], ...]}

Trajectory CSV: header ``t,X,Y,Z``, one row per accepted integrator step
(or per resampled point when uniform output was requested).
"""

from __future__ import annotations

import json
import math
import os
from typing import Union

from .dynamics import EquilibriumReport, SlowManifold
from .integrate import Trajectory, resample
from .manifolds import InvariantReport, OneManifold, Surface
from .morse import LevelSetFrame
from .orbits import LimitCycle, SectionCrossing, ShellClassification
from .solid import SectionReport, SolidFamily


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.  The temp
    file is created with mode 0666 less the umask, as ``open`` would."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def complex_to_dict(m: Union[OneManifold, Surface]) -> dict:
    if isinstance(m, Surface):
        return {
            "kind": "surface",
            "vertices": m.n_vertices,
            "triangles": [list(t) for t in m.triangles],
        }
    out = {"kind": "curve", "cycles": [list(c) for c in m.cycles]}
    if m.chains:
        out["chains"] = [list(c) for c in m.chains]
    return out


def _int(v) -> int:
    """v if it is a JSON integer; a float, string or bool is refused, not
    converted."""
    if type(v) is not int:
        raise TypeError(v)
    return v


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(_int(v) for v in row) for row in rows)


def _field(convert, value, key: str):
    """convert(value) for the complex field key; ValueError if the field is
    missing (None) or of the wrong type."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"complex field {key!r} is missing or malformed") from None


def complex_from_dict(d: dict) -> Union[OneManifold, Surface]:
    """Parse the complex schema above; a malformed document raises
    ValueError, an invalid complex InvalidManifold (a ValueError too)."""
    if not isinstance(d, dict):
        raise ValueError("a complex document must be a JSON object")
    kind = d.get("kind")
    if kind == "surface":
        return Surface(_field(_int, d.get("vertices"), "vertices"),
                       _field(_int_rows, d.get("triangles"), "triangles"))
    if kind == "curve":
        return OneManifold(_field(_int_rows, d.get("cycles"), "cycles"),
                           _field(_int_rows, d.get("chains", []), "chains"))
    raise ValueError(f"unknown complex kind {kind!r}")


def invariants_to_dict(rep: InvariantReport) -> dict:
    return {
        "components": rep.components,
        "euler_characteristic": rep.euler_characteristic,
        "orientable": rep.orientable,
        "genus": list(rep.genus) if rep.genus is not None else None,
    }


# ---------------------------------------------------------------------------
# dynamics reports
# ---------------------------------------------------------------------------

def _c2(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def equilibrium_to_dict(e: EquilibriumReport) -> dict:
    return {
        "label": e.label,
        "coordinates": [float(x) for x in e.coordinates],
        "jacobian": [[float(x) for x in row] for row in e.jacobian],
        "eigenvalues": [_c2(z) for z in e.eigen.eigenvalues],
        "eigenvectors": [[_c2(z) for z in v] for v in e.eigen.eigenvectors],
        "residuals": [float(r) for r in e.eigen.residuals],
        "class": e.stability_class,
    }


def slow_manifold_to_dict(sm: SlowManifold) -> dict:
    return {
        "exists": sm.exists,
        "line": {"X": 1.0, "Z": "(1 + C - Y) / A"},
        "s2": [float(x) for x in sm.s2],
        "s3": [float(x) for x in sm.s3],
        "center": [float(x) for x in sm.center],
        "attracting_segment_Y": [0.0, 1.0],
        "repelling_segment_Y": [1.0, 1.0 + sm.params.C],
    }


def classification_to_dict(c: ShellClassification) -> dict:
    return {
        "verdict": c.verdict,
        "evidence": {k: float(v) for k, v in sorted(c.evidence.items())},
    }


def crossings_to_dict(crossings: list[SectionCrossing]) -> dict:
    return {
        "count": len(crossings),
        "crossings": [
            {
                "t": float(c.t),
                "state": [float(x) for x in c.state],
                "direction": c.direction,
            }
            for c in crossings
        ],
    }


def limit_cycle_to_dict(lc: LimitCycle) -> dict:
    return {
        "converged": True,
        "anchor": [float(x) for x in lc.anchor],
        "period": float(lc.period),
        "residual": float(lc.residual),
        "residual_history": [float(h) for h in lc.history],
        "loop_points": lc.loop_states.tolist(),
    }


def cycle_failure_to_dict(message: str, history) -> dict:
    return {
        "converged": False,
        "error": message,
        "residual_history": [float(h) for h in history],
    }


# ---------------------------------------------------------------------------
# solid families and frames
# ---------------------------------------------------------------------------

def family_to_dict(f: SolidFamily) -> dict:
    return {
        "kind": f.kind,
        "role": f.role,
        "direction": f.direction,
        "limit": f.limit,
        "layers": [
            {
                "radius": float(l.radius),
                "type": l.layer_type,
                "complex": complex_to_dict(l.manifold),
            }
            for l in f.layers
        ],
    }


def section_report_to_dict(rep: SectionReport) -> dict:
    return {
        "kind": rep.kind,
        "match": rep.match,
        "limit_section": rep.limit_section,
        "expected_limit": rep.expected_limit,
        "layers": [
            {
                "radius": float(e.radius),
                "type": e.layer_type,
                "section_circles": e.section_circles,
                "expected_circles": e.expected_circles,
                "match": e.match,
            }
            for e in rep.entries
        ],
    }


def frame_to_dict(f: LevelSetFrame) -> dict:
    return {
        "t": float(f.t),
        "box": float(f.box),
        "resolution": f.resolution,
        "degenerate": f.degenerate,
        "branch_count": f.branch_count,
        "polylines": [
            [[float(x), float(y)] for x, y in pl] for pl in f.polylines
        ],
    }


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

_CSV_CHUNK = 65_536  # rows formatted per join: bounds the Python lists alive at once


def trajectory_csv(traj: Trajectory, resample_n: int) -> str:
    ts, states = resample(traj, resample_n) if resample_n else (traj.t, traj.states)
    chunks = ["t,X,Y,Z\n"]
    for k in range(0, len(ts), _CSV_CHUNK):
        rows = zip(ts[k:k + _CSV_CHUNK].tolist(), states[k:k + _CSV_CHUNK].tolist())
        chunks.append("".join(f"{fmt(t)},{fmt(x)},{fmt(y)},{fmt(z)}\n" for t, (x, y, z) in rows))
    return "".join(chunks)


class CsvFormatError(ValueError):
    pass


def read_trajectory_csv(text: str) -> list[tuple[float, float, float, float]]:
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("empty CSV")
    if lines[0].strip() != "t,X,Y,Z":
        raise CsvFormatError("line 1: expected header 't,X,Y,Z'")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise CsvFormatError(f"line {ln}: expected 4 fields, got {len(parts)}")
        try:
            row = tuple(float(x) for x in parts)
        except ValueError as exc:
            raise CsvFormatError(f"line {ln}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise CsvFormatError(f"line {ln}: fields must be finite")
        rows.append(row)
    if not rows:
        raise CsvFormatError("no data rows")
    return rows
