import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toposurge
from toposurge.cli import main
from toposurge.dynamics import SystemParams
from toposurge.integrate import integrate, resample
from toposurge.manifolds import STOCK, OneManifold, circle, globe, invariants
from toposurge.serialize import complex_from_dict, complex_to_dict, dumps, fmt, trajectory_csv

GOLDEN = Path(__file__).parent / "golden"

_FLOAT = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")


def numeric_aware_equal(a: str, b: str, rel: float = 1e-10) -> bool:
    """Texts match if non-numeric parts are identical and numbers are close."""
    pa, pb = _FLOAT.split(a), _FLOAT.split(b)
    na, nb = _FLOAT.findall(a), _FLOAT.findall(b)
    if pa != pb or len(na) != len(nb):
        return False
    for x, y in zip(na, nb):
        fx, fy = float(x), float(y)
        if not math.isclose(fx, fy, rel_tol=rel, abs_tol=1e-12):
            return False
    return True


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_equilibria_text_output(capsys):
    code, out, _ = run(["equilibria", "--A", "3", "--B", "3", "--C", "3"], capsys)
    assert code == 0
    assert "unstable_center" in out
    assert "1.32287565553" in out  # the published 1.3229 pair, full precision


def test_equilibria_json_schema(capsys):
    code, out, _ = run(
        ["equilibria", "--A", "2.9851", "--B", "3", "--C", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == "region_b"
    s2 = next(e for e in doc["equilibria"] if e["label"] == "S2")
    assert s2["class"] == "inward_unstable_vortex"
    reals = [lam for lam in s2["eigenvalues"] if abs(lam[1]) < 1e-9]
    assert reals[0][0] == pytest.approx(-0.0149, abs=1e-10)
    assert all(len(lam) == 2 for lam in s2["eigenvalues"])
    assert max(s2["residuals"]) < 1e-9


def test_nonpositive_parameter_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["equilibria", "--A", "0", "--B", "3", "--C", "3"], capsys)
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# simulate / plot
# ---------------------------------------------------------------------------

def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(
        ["simulate", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1,1",
         "--t-end", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,X,Y,Z"
    assert all(line.split(",")[1:] == ["1", "1", "1"] for line in lines[1:])


def test_simulate_is_deterministic(tmp_path, capsys):
    args = ["simulate", "--A", "2.9851", "--B", "3", "--C", "3",
            "--ic", "1,1,0.9", "--t-end", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_ic_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["simulate", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1",
             "--t-end", "5"], capsys)
    assert exc_info.value.code == 2


def test_tolerances_come_from_the_command_line_only(monkeypatch):
    argv = ["simulate", *P3, "--ic", "1,1.3,0.89", "--t-end", "1"]
    code, want, err = run_in_process(argv)
    assert code == 0 and err == ""
    for value in ("abc", "1", "1e-3"):
        monkeypatch.setenv("TOPOSURGE_RTOL", value)
        monkeypatch.setenv("TOPOSURGE_ATOL", value)
        assert run_in_process(argv) == (0, want, "")


def test_overflowing_start_is_exit_1_with_one_line(capsys):
    code, out, err = run(
        ["simulate", "--A", "0.001", "--B", "3", "--C", "3", "--ic", "1e200,0,0",
         "--t-end", "1"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("integration failed:") and err.count("\n") == 1


def test_non_finite_state_is_exit_1_with_one_line(capsys):
    code, out, err = run(
        ["simulate", "--A", "0.001", "--B", "3", "--C", "3", "--ic", "1e160,1e160,1e160",
         "--t-end", "1", "--rtol", "1e-3", "--atol", "1e-3"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "integration failed: non-finite state (at t = 0)\n"


def test_simulate_ends_on_one_row_at_t_end(tmp_path, capsys):
    # t + (t_end - t) is one ulp below t_end here: a last step that ended
    # there would be followed by a step of one ulp, and the row would repeat
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["simulate", "--A", "2.290520512893875", "--B", "1.468973077334825",
         "--C", "2.1586916125965576",
         "--ic", "1.0710441771061572,1.2937631620454297,1.2508606405692506",
         "--t-end", "0.2297503861450196", "--rtol", "1e-3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert rows[-1] == "0.229750386145,0.814771841319,1.27578910804,1.42389947912"


def test_huge_horizon_is_exit_1_with_one_line(capsys):
    code, out, err = run(
        ["simulate", "--A", "2.9851", "--B", "3", "--C", "3", "--ic", "1,1,0.9",
         "--t-end", "1e9"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("integration failed: step budget exhausted")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", ["1", "-3"])
def test_simulate_bad_resample_is_usage_error(capsys, n):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1,1",
              "--t-end", "1", "--resample", n])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "--resample" in err and err.count("\n") == 1


def test_plot_rejects_empty_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SystemExit) as exc_info:
        run(["plot", "--in", str(empty), "--projection", "xz"], capsys)
    assert exc_info.value.code == 2


def test_plot_reports_malformed_row_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,X,Y,Z\n0,1,1,1\n1,oops,1,1\n")
    with pytest.raises(SystemExit) as exc_info:
        run(["plot", "--in", str(bad), "--projection", "xz"], capsys)
    assert exc_info.value.code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e999"])
def test_plot_refuses_a_non_finite_field_by_line(tmp_path, field):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,X,Y,Z\n0,1,1,1\n1,1,{field},1\n")
    assert run_in_process(["plot", "--in", str(bad)]) == (
        2, "", "error: line 3: fields must be finite\n")


def test_golden_region_a_xz(tmp_path, capsys):
    out = tmp_path / "a.svg"
    code, _, _ = run(
        ["plot", "--in", str(GOLDEN / "regiona_t50.csv"), "--projection", "xz",
         "--equilibria", "3,3,3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert numeric_aware_equal(out.read_text(), (GOLDEN / "regiona_xz.svg").read_text())


def test_golden_region_b_iso(tmp_path, capsys):
    out = tmp_path / "b.svg"
    code, _, _ = run(
        ["plot", "--in", str(GOLDEN / "regionb_t600.csv"), "--projection", "iso",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert numeric_aware_equal(out.read_text(), (GOLDEN / "regionb_iso.svg").read_text())


@pytest.mark.parametrize("golden, argv", [
    ("regiona_t50.csv", ["--A", "3", "--B", "3", "--C", "3", "--ic", "1,1.3,0.89",
                         "--t-end", "50", "--resample", "400"]),
    ("regionb_t600.csv", ["--A", "2.9851", "--B", "3", "--C", "3", "--ic", "1,1,0.9",
                          "--t-end", "600", "--resample", "1200"]),
])
def test_simulate_reproduces_the_golden_csv(tmp_path, capsys, golden, argv):
    out = tmp_path / golden
    code, _, _ = run(["simulate", *argv, "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_trajectory_csv_longer_than_one_chunk_is_the_row_join():
    traj = integrate(SystemParams(3, 3, 3), (1.0, 1.3, 0.89), 5.0)
    for n in (0, 100_000):
        ts, states = resample(traj, n) if n else (traj.t, traj.states)
        lines = ["t,X,Y,Z"]
        for t, s in zip(ts.tolist(), states.tolist()):
            lines.append(",".join((fmt(t), fmt(s[0]), fmt(s[1]), fmt(s[2]))))
        assert trajectory_csv(traj, n) == "\n".join(lines) + "\n"


# Runs in a fresh interpreter: the commands that build no trajectory must
# leave numpy unimported, simulate must import it, and afterwards integrate
# and orbits must hold numpy itself, not the stand-in.
COLD_START = """
import json, sys
from toposurge.cli import main
calls = [
    ["equilibria", "--A", "3", "--B", "3", "--C", "3", "--out", "eq.txt"],
    ["build", "--kind", "globe", "--out", "globe.json"],
    ["build", "--kind", "genus_g", "--g", "2", "--out", "genus.json"],
    ["surgery", "--input", "globe.json", "--dim", "2", "--type", "0",
     "--site-a", "0,1,2,3,4,5", "--site-b", "30,31,32,33,34,35", "--out", "torus.json"],
    ["morse-frames", "--t", "-1", "0", "1", "--out", "frames.json"],
    ["solid-demo", "--kind", "2d0", "--layers", "2", "--out", "solid.json"],
    ["plot", "--in", sys.argv[1], "--equilibria", "3,3,3", "--out", "orbit.svg"],
]
codes = [main(argv) for argv in calls]
before = "numpy" in sys.modules
codes.append(main(["simulate", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1.3,0.89",
                   "--t-end", "5", "--out", "orbit.csv"]))
import numpy
print(json.dumps({"codes": codes, "before": before,
                  "np": [sys.modules[m].np is numpy
                         for m in ("toposurge.integrate", "toposurge.orbits")]}))
"""


def test_only_commands_that_build_a_trajectory_import_numpy(tmp_path):
    src = str(Path(toposurge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(GOLDEN / "regiona_t50.csv")],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0] * 8, "before": False, "np": [True, True]}


# ---------------------------------------------------------------------------
# surgery round trips
# ---------------------------------------------------------------------------

def test_surgery_json_round_trip(tmp_path, capsys):
    globe_file = tmp_path / "globe.json"
    torus_file = tmp_path / "torus.json"
    code, _, _ = run(["build", "--kind", "globe", "--out", str(globe_file)], capsys)
    assert code == 0
    code, _, _ = run(
        ["surgery", "--input", str(globe_file), "--dim", "2", "--type", "0",
         "--site-a", "0,1,2,3,4,5", "--site-b", "30,31,32,33,34,35",
         "--out", str(torus_file)],
        capsys,
    )
    assert code == 0
    doc = json.loads(torus_file.read_text())
    assert doc["invariants"]["genus"] == [1]
    # emitted complex re-parses and re-validates
    s = complex_from_dict(doc["complex"])
    assert invariants(s).euler_characteristic == 0
    # and can be cut straight back to a sphere (tube indices follow the 24
    # remaining triangles)
    back_file = tmp_path / "back.json"
    tube = ",".join(str(i) for i in range(24, 36))
    code, _, _ = run(
        ["surgery", "--input", str(torus_file), "--dim", "2", "--type", "1",
         "--site", tube, "--out", str(back_file)],
        capsys,
    )
    assert code == 0
    assert json.loads(back_file.read_text())["invariants"]["euler_characteristic"] == 2


def test_every_complex_written_loads_back():
    curve = OneManifold(cycles=((0, 1, 2),), chains=((3, 4), (5,)))
    for m in [circle(6), curve, globe(), STOCK["genus_g"](2),
              STOCK["torus"](), STOCK["two_circles"](3, 4)]:
        assert complex_from_dict(json.loads(dumps(complex_to_dict(m)))) == m


SURFACE_TEXT = '{"kind": "surface", "vertices": %s, "triangles": %s}'
TETRA = "[[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]"


NOT_INTEGERS = {
    "vertices_1e999": (SURFACE_TEXT % ("1e999", TETRA), "vertices"),
    "vertices_4.9": (SURFACE_TEXT % ("4.9", TETRA), "vertices"),
    "vertices_4.0": (SURFACE_TEXT % ("4.0", TETRA), "vertices"),
    "vertices_string": (SURFACE_TEXT % ('"4"', TETRA), "vertices"),
    "vertices_true": (SURFACE_TEXT % ("true", TETRA), "vertices"),
    "vertex_2.7": (SURFACE_TEXT % ("4", TETRA.replace("3, 2]]", "3, 2.7]]")), "triangles"),
    "vertex_string": (SURFACE_TEXT % ("4", TETRA.replace("[0, 1, 2]", '[0, 1, "2"]')), "triangles"),
    "vertex_false": (SURFACE_TEXT % ("4", TETRA.replace("[0, 1, 2]", "[0, 1, false]")), "triangles"),
    "arc_1e400": ('{"kind": "curve", "cycles": [[0, 1e400]]}', "cycles"),
    "chain_arc_2.5": ('{"kind": "curve", "cycles": [[0, 1]], "chains": [[2.5]]}', "chains"),
}


@pytest.mark.parametrize("text, field", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_complex_fields_are_json_integers(text, field):
    """Counts and ids are taken as JSON integers, never converted: a float
    is not truncated, and neither a string nor a bool is read as a number."""
    with pytest.raises(ValueError, match=f"^complex field '{field}' is missing or malformed$"):
        complex_from_dict(json.loads(text))


def test_out_file_takes_the_umask_and_the_stdout_bytes(tmp_path):
    argv = ["solid-demo", "--kind", "2d0", "--layers", "2"]
    code, want, _ = run_in_process(argv)
    assert code == 0
    path = tmp_path / "s.json"
    old = os.umask(0o022)
    try:
        for _ in range(2):  # a new file, then one written over
            assert run_in_process([*argv, "--out", str(path)]) == (0, "", "")
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
    finally:
        os.umask(old)
    assert path.read_bytes() == want.encode()
    assert os.listdir(tmp_path) == ["s.json"]  # no temp file is left


def test_twisted_1d_surgery_via_cli(tmp_path, capsys):
    c6 = tmp_path / "c6.json"
    out = tmp_path / "out.json"
    run(["build", "--kind", "circle", "--n", "6", "--out", str(c6)], capsys)
    code, _, _ = run(
        ["surgery", "--input", str(c6), "--dim", "1", "--site", "1,4", "--flip",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(out.read_text())["invariants"]["components"] == 1


def test_bad_site_is_usage_error(tmp_path, capsys):
    globe_file = tmp_path / "globe.json"
    run(["build", "--kind", "globe", "--out", str(globe_file)], capsys)
    with pytest.raises(SystemExit) as exc_info:
        run(["surgery", "--input", str(globe_file), "--dim", "2", "--type", "0",
             "--site-a", "0", "--site-b", "1"], capsys)
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# morse frames and solid demos
# ---------------------------------------------------------------------------

def test_morse_frames_json_and_svg(tmp_path, capsys):
    code, out, _ = run(["morse-frames", "--t", "-1", "0", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    counts = [(f["branch_count"], f["degenerate"]) for f in doc["frames"]]
    assert counts[0] == (2, False)
    assert counts[1][1] is True
    assert counts[2] == (2, False)

    outdir = tmp_path / "frames"
    code, _, _ = run(
        ["morse-frames", "--t", "-1", "0", "1", "--format", "svg",
         "--out-dir", str(outdir)],
        capsys,
    )
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "frame_000.svg", "frame_001.svg", "frame_002.svg",
    ]


def test_huge_t_beyond_the_box_is_one_empty_frame(capsys):
    # x^2 - y^2 <= 4 in the box, so the level set at t = 1e308 is empty
    code, out, _ = run(["morse-frames", "--t", "1e308", "--box", "2", "--resolution", "8"],
                       capsys)
    assert code == 0
    (frame,) = json.loads(out)["frames"]
    assert frame["branch_count"] == 0 and frame["t"] == 1e308


def test_golden_morse_frame(capsys):
    from toposurge.morse import morse_frames
    from toposurge.svgplot import frame_svg

    (f,) = morse_frames([1.0])
    assert numeric_aware_equal(frame_svg(f), (GOLDEN / "morse_t1.svg").read_text())


def test_solid_demo_limits(capsys):
    code, out, _ = run(["solid-demo", "--kind", "2d0", "--layers", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] == "circle"
    assert len(doc["output"]["layers"]) == 5
    assert doc["cross_sections"]["output"]["match"] is True

    code, out, _ = run(["solid-demo", "--kind", "2d1", "--layers", "1"], capsys)
    assert json.loads(out)["limit"] == "two_points"


@pytest.mark.parametrize("kind", ["1d0", "2d0", "2d1"])
@pytest.mark.parametrize("direction", ["forward", "dual"])
def test_golden_solid_demo(kind, direction, capsys):
    code, out, _ = run(
        ["solid-demo", "--kind", kind, "--direction", direction, "--layers", "2"], capsys
    )
    assert code == 0
    assert out == (GOLDEN / f"solid_{kind}_{direction}_layers2.json").read_text()


# ---------------------------------------------------------------------------
# classify / poincare / limit-cycle
# ---------------------------------------------------------------------------

def test_classify_shell_cli_stationary(capsys):
    code, out, _ = run(
        ["classify-shell", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1,1",
         "--t-end", "50"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "stationary"


def test_poincare_cli(capsys):
    code, out, _ = run(
        ["poincare", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1.3,0.89",
         "--t-end", "30", "--plane-point", "1,1,1", "--plane-normal", "1,0,0"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] > 10
    assert {c["direction"] for c in doc["crossings"]} == {1, -1}


def test_poincare_normal_of_any_finite_scale_is_the_same_plane():
    argv = ["poincare", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1.3,0.89",
            "--t-end", "20", "--plane-point", "1,1,1", "--plane-normal"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or underflow warning fails
        code, want, err = run_in_process(argv + ["1,0,0"])
        assert code == 0 and err == "" and json.loads(want)["count"] > 10
        for normal in ("1e200,0,0", "1e-170,0,0", "5e-324,0,0"):
            assert run_in_process(argv + [normal]) == (0, want, "")
    code, out, err = run_in_process(argv + ["0,0,0"])
    assert code == 2 and out == "" and err == "error: plane normal must be nonzero\n"


def test_a_value_may_start_with_a_minus_sign():
    argv = ["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "20", "--plane-point", "1,1,1"]
    code, want, err = run_in_process(argv + ["--plane-normal=-1,0,0"])
    assert code == 0 and err == "" and json.loads(want)["count"] > 10
    assert run_in_process(argv + ["--plane-normal", "-1,0,0"]) == (0, want, "")
    code, out, err = run_in_process(["morse-frames", "--t", "-1e-3", "0", "--resolution", "8"])
    assert (code, err) == (0, "")
    assert [f["t"] for f in json.loads(out)["frames"]] == [-1e-3, 0.0]


def test_a_value_may_start_with_minus_inf_or_nan():
    poincare_argv = ["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "20",
                     "--plane-point", "1,1,1"]
    for argv, flag, value in [(["simulate", *P3, "--t-end", "1"], "--ic", "-inf,1,1"),
                              (poincare_argv, "--plane-normal", "-nan,0,0")]:
        code, out, err = run_in_process(argv + [f"{flag}={value}"])
        assert code == 2 and out == "" and "must be finite" in err
        assert run_in_process(argv + [flag, value]) == (code, out, err)


def test_limit_cycle_failure_is_exit_1_with_report(capsys):
    code, out, err = run(
        ["limit-cycle", "--A", "3", "--B", "3", "--C", "3", "--ic", "1,1.3,0.89",
         "--explore-time", "120"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["converged"] is False
    assert "residual_history" in doc
    assert "region_a" in err  # the precondition warning names the region


LIMIT_CYCLE_B = ["limit-cycle", "--A", "2.9851", "--B", "3", "--C", "3", "--ic", "1,1,1"]


@pytest.mark.parametrize("flag, value", [
    ("--explore-time", "0"),
    ("--explore-time", "nan"),
    ("--eps-cycle", "-1"),
    ("--eps-cycle", "nan"),
    ("--rtol", "1"),
])
def test_limit_cycle_bad_value_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        main(LIMIT_CYCLE_B + [flag, value])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


def test_limit_cycle_passes_tolerances_through(monkeypatch, capsys):
    import toposurge.cli as cli
    from toposurge.orbits import LimitCycleNotFound

    seen = []

    def fake(p, ic, **kwargs):
        seen.append((kwargs.get("rtol"), kwargs.get("atol")))
        raise LimitCycleNotFound("stub", ())

    monkeypatch.setattr(cli, "detect_limit_cycle", fake)
    assert run(LIMIT_CYCLE_B, capsys)[0] == 1
    assert run(LIMIT_CYCLE_B + ["--rtol", "1e-8", "--atol", "1e-11"], capsys)[0] == 1
    # unset, the search keeps its own 1e-10 / 1e-12
    assert seen == [(None, None), (1e-8, 1e-11)]


def test_limit_cycle_offers_no_t_end(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(LIMIT_CYCLE_B + ["--t-end", "5"])
    assert exc_info.value.code == 2
    assert "--t-end" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad input: exit 2 with one stderr line and nothing on stdout
# ---------------------------------------------------------------------------

P3 = ["--A", "3", "--B", "3", "--C", "3"]


def input_files(d: Path) -> dict[str, str]:
    """Good and bad input files written under d, by name, plus two paths
    that cannot be read or written."""
    texts = {
        "surface": json.dumps(complex_to_dict(globe())),
        "curve": json.dumps(complex_to_dict(circle(6))),
        "list": "[1, 2]",
        "badfield": '{"kind": "surface", "vertices": 4, "triangles": 5}',
        "huge": json.dumps({**complex_to_dict(globe()), "vertices": 10**12}),
        "csv": (GOLDEN / "regiona_t50.csv").read_text(),
        "badcsv": "t,X,Y,Z\n0,1,1,1\n1,oops,1,1\n",
        "nancsv": "t,X,Y,Z\n0,1,1,1\n1,nan,nan,nan\n",
        # finite rows whose X range is wider than the largest float
        "hugecsv": "t,X,Y,Z\n0,1e308,1,1\n1,-1e308,2,1\n2,0,3,1\n",
        # finite rows whose iso projection X - Y overflows
        "overflowcsv": "t,X,Y,Z\n0,1.7e308,-1.7e308,0\n1,0,0,0\n",
        "deep": "[" * 100_000,
        "infvertices": SURFACE_TEXT % ("1e999", TETRA),
        "floatvertex": json.dumps(complex_to_dict(globe())).replace("[0, 2, 3]", "[0, 2, 3.7]", 1),
        "infarc": '{"kind": "curve", "cycles": [[0, 1e400]]}',
        "shortrow": '{"kind": "surface", "vertices": 3, "triangles": [[0, 1], [1, 2]]}',
        "file": "not a directory\n",
    }
    paths = {"missing": str(d / "missing"), "under_file": str(d / "file" / "out")}
    for name, text in texts.items():
        (d / name).write_text(text)
        paths[name] = str(d / name)
    return paths


def run_in_process(argv):
    """(exit code, stdout, stderr) of one main call; any exception but
    SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# (a valid surgery, a flag it does not read and so must reject)
CURVE_SURGERY = ["surgery", "--input", "{curve}", "--dim", "1", "--site", "1,4"]
DISC_SURGERY = ["surgery", "--input", "{surface}", "--dim", "2", "--type", "0",
                "--site-a", "0,1,2,3,4,5", "--site-b", "30,31,32,33,34,35"]
BAND_SURGERY = ["surgery", "--input", "{surface}", "--dim", "2", "--type", "1",
                "--site", ",".join(str(i) for i in range(6, 18))]
UNREAD_SURGERY_FLAGS = [
    (CURVE_SURGERY, ["--type", "0"]),
    (CURVE_SURGERY, ["--rotation", "0"]),
    (CURVE_SURGERY, ["--site-a", "0"]),
    (CURVE_SURGERY, ["--site-b", "3"]),
    (DISC_SURGERY, ["--site", "6"]),
    (BAND_SURGERY, ["--site-a", "0"]),
    (BAND_SURGERY, ["--site-b", "30"]),
    (BAND_SURGERY, ["--rotation", "1"]),
    (BAND_SURGERY, ["--flip"]),
]
# (a valid build, a size flag its kind does not read and so must reject)
UNREAD_BUILD_FLAGS = [
    (["build", "--kind", "circle"], ["--m", "3"]),
    (["build", "--kind", "two_circles", "--n", "4"], ["--g", "2"]),
    (["build", "--kind", "sphere"], ["--g", "3", "--rings", "9"]),
    (["build", "--kind", "torus"], ["--n", "50"]),
    (["build", "--kind", "genus_g", "--g", "2"], ["--rings", "3"]),
    (["build", "--kind", "globe", "--rings", "4", "--segments", "5"], ["--n", "6"]),
]


@pytest.mark.parametrize("argv", [
    ["equilibria", "--A", "inf", "--B", "3", "--C", "3"],
    ["plot", "--in", "{csv}", "--equilibria", "3,3,inf"],
    ["surgery", "--input", "{surface}", "--dim", "1", "--site", "1,4"],
    ["surgery", "--input", "{curve}", "--dim", "2", "--site-a", "0", "--site-b", "3"],
    ["equilibria", *P3, "--out", "{under_file}"],
    ["simulate", *P3, "--ic", "1,1,1", "--t-end", "nan"],
    ["simulate", *P3, "--ic", "1,1,1", "--t-end", "inf"],
    ["morse-frames", "--t", "1", "--box", "inf"],
    ["morse-frames", "--t", "0", "nan"],
    ["surgery", "--input", "{list}", "--dim", "2", "--site-a", "0", "--site-b", "3"],
    ["surgery", "--input", "{badfield}", "--dim", "2", "--site-a", "0", "--site-b", "3"],
    ["surgery", "--input", "{curve}", "--dim", "1"],
    # the region warning of limit-cycle must not add a second line
    ["limit-cycle", *P3, "--ic", "1,1,1", "--explore-time", "0"],
    # a command line argparse rejects is reported the same way
    ["simulate", *P3, "--ic", "1,1,1", "--t-end", "abc"],
    ["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "5",
     "--plane-point", "nan,1,1", "--plane-normal", "1,0,0"],
    *[surgery + flag for surgery, flag in UNREAD_SURGERY_FLAGS],
    ["morse-frames", "--t", "1", "--format", "svg", "--out-dir", "{missing}", "--out", "{missing}"],
    ["morse-frames", "--t", "1", "--out-dir", "{missing}"],
    *[build + flag for build, flag in UNREAD_BUILD_FLAGS],
    # finite parameters whose steady states, spectra or S2->S3 axis overflow
    ["equilibria", "--A", "1e-300", "--B", "3", "--C", "3"],
    ["equilibria", "--A", "1e300", "--B", "3", "--C", "3"],
    ["equilibria", "--A", "3", "--B", "1e300", "--C", "3"],
    ["equilibria", "--A", "3", "--B", "3", "--C", "1e300"],
    ["equilibria", "--A", "1e-300", "--B", "1e-300", "--C", "3"],
    ["plot", "--in", "{csv}", "--equilibria", "1e300,3,3"],
    ["classify-shell", "--A", "1e-300", "--B", "1", "--C", "1", "--ic", "1,1,1", "--t-end", "1"],
    ["limit-cycle", "--A", "1e300", "--B", "1e300", "--C", "1e300", "--ic", "1,1,1",
     "--explore-time", "5"],
    # a vertex count nothing may size a structure by before it is checked
    ["surgery", "--input", "{huge}", "--dim", "2", "--site-a", "0", "--site-b", "30"],
    # a finite box whose saddle values overflow
    ["morse-frames", "--t", "1", "--box", "1e200", "--resolution", "8"],
    ["morse-frames", "--t", "1", "--box", "1e308", "--resolution", "8"],
    # more uniform rows than one integration may have steps
    ["simulate", *P3, "--ic", "1,1,1", "--t-end", "1", "--resample", "30000000"],
    # sizes that would take the host's memory are refused before anything is built
    ["morse-frames", "--t", "0", "--resolution", "20000"],
    ["solid-demo", "--kind", "2d0", "--layers", "100000000"],
    ["build", "--kind", "globe", "--rings", "100000", "--segments", "100000"],
    ["build", "--kind", "genus_g", "--g", "100000000"],
    ["build", "--kind", "circle", "--n", "1000000000"],
    # JSON nested past the parser's recursion limit
    ["surgery", "--input", "{deep}", "--dim", "2", "--site-a", "0", "--site-b", "3"],
    # numbers that are not JSON integers, one of them past float range
    ["surgery", "--input", "{infvertices}", "--dim", "2", "--site-a", "0", "--site-b", "3"],
    [DISC_SURGERY[0], "--input", "{floatvertex}", *DISC_SURGERY[3:]],
    ["surgery", "--input", "{infarc}", "--dim", "1", "--site", "0,1"],
    ["plot", "--in", "{nancsv}"],
    # a triangle row that is not three vertices
    ["surgery", "--input", "{shortrow}", "--dim", "2", "--site-a", "0", "--site-b", "1"],
    # finite rows whose projection is not
    ["plot", "--in", "{overflowcsv}", "--projection", "iso"],
    # a start that is not finite, in every command that integrates
    ["simulate", *P3, "--ic", "1,-inf,1", "--t-end", "1"],
    ["classify-shell", *P3, "--ic", "nan,1,1"],
    ["poincare", *P3, "--ic", "1,1,nan", "--plane-point", "1,1,1", "--plane-normal", "1,0,0"],
    ["limit-cycle", *P3, "--ic", "inf,1,1"],
    # a kind that is not a key of manifolds.STOCK
    ["build", "--kind", "klein", "--out", "{missing}"],
    # options are checked before an integration that would run out of steps
    ["simulate", *P3, "--ic", "1,1.3,0.89", "--t-end", "1e9", "--resample", "30000000"],
    ["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "1e9",
     "--plane-point", "1,1,1", "--plane-normal", "0,0,0"],
    ["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "1e9",
     "--plane-point", "nan,1,1", "--plane-normal", "1,0,0"],
])
def test_bad_input_is_exit_2_with_one_line(tmp_path, argv):
    files = input_files(tmp_path)
    code, out, err = run_in_process([a.format(**files) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (["plot", "--in", "{missing}", "--equilibria", "3,3,inf"],
     "error: parameters A, B, C must all be positive and finite\n"),
    (["surgery", "--input", "{missing}", "--dim", "2", "--type", "1"],
     "error: this surgery needs --site\n"),
])
def test_options_are_checked_before_the_input_file_is_read(tmp_path, argv, err):
    files = input_files(tmp_path)
    assert run_in_process([a.format(**files) for a in argv]) == (2, "", err)


def test_surgery_names_the_flag_it_does_not_read(tmp_path):
    files = input_files(tmp_path)
    for surgery, flag in UNREAD_SURGERY_FLAGS:
        # without the flag the surgery succeeds
        assert run_in_process([a.format(**files) for a in surgery])[0] == 0
        code, _, err = run_in_process([a.format(**files) for a in surgery + flag])
        assert code == 2 and err.startswith(f"error: {flag[0]} does not apply to ")


def test_build_names_the_size_flag_its_kind_does_not_read():
    for build, flag in UNREAD_BUILD_FLAGS:
        assert run_in_process(build)[0] == 0
        assert run_in_process(build + flag) == (
            2, "", f"error: {flag[0]} does not apply to --kind {build[2]}\n")
    # an unset size takes the value it took as the old default
    for kind, sizes in [("circle", ["--n", "6"]), ("two_circles", ["--n", "6", "--m", "6"]),
                        ("genus_g", ["--g", "1"]), ("globe", ["--rings", "3", "--segments", "6"])]:
        assert run_in_process(["build", "--kind", kind]) == run_in_process(
            ["build", "--kind", kind, *sizes])
    # the size options, between --kind and --out, in the order the kinds name them
    code, out, _ = run_in_process(["build", "--help"])
    assert code == 0
    assert re.findall(r"^  (--\w+)", out, re.M) == [
        "--kind", "--n", "--m", "--g", "--rings", "--segments", "--out"]


@pytest.mark.parametrize("unset, default", [
    (["solid-demo", "--kind", "1d0", "--layers", "2"], ["--direction", "forward"]),
    (["solid-demo", "--kind", "2d1", "--layers", "2"], ["--direction", "forward"]),
    (["plot", "--in", str(GOLDEN / "regiona_t50.csv")], ["--projection", "iso"]),
    (["plot", "--in", str(GOLDEN / "regiona_t50.csv"), "--equilibria", "3,3,3"],
     ["--projection", "iso"]),
])
def test_an_unset_option_takes_the_library_default(unset, default):
    got = run_in_process(unset)
    assert got[0] == 0 and got == run_in_process(unset + default)


@pytest.mark.parametrize("projection", ["xy", "iso"])
def test_plot_of_a_range_past_float_range_stays_finite(tmp_path, projection):
    files = input_files(tmp_path)
    code, out, err = run_in_process(["plot", "--in", files["hugecsv"], "--projection", projection])
    assert (code, err) == (0, "")
    path = re.search(r'<path d="([^"]*)"', out).group(1)
    coords = [float(x) for x in _FLOAT.findall(path)]
    assert len(coords) == 6
    assert all(60 <= c <= 580 for c in coords)
    assert "nan" not in out and "inf" not in out


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

def key_paths(doc, path="") -> set[str]:
    """Every key path in a JSON document; a list's items share its path + "[]"."""
    if isinstance(doc, dict):
        return {p for k, v in doc.items() for p in {f"{path}/{k}", *key_paths(v, f"{path}/{k}")}}
    if isinstance(doc, list):
        return set().union(*(key_paths(v, path + "[]") for v in doc))
    return set()


INVARIANT_KEYS = {"/invariants", "/invariants/components", "/invariants/euler_characteristic",
                  "/invariants/orientable", "/invariants/genus"}
EVIDENCE = ["max_displacement", "diameter", "azimuth_turns", "monotone_fraction", "tube_turns",
            "axis_touch_ratio", "section_spread", "section_points", "min_return_distance"]
CLASSIFY_KEYS = {"/verdict", "/evidence", "/params", "/params/A", "/params/B", "/params/C",
                 "/ic", "/t_end"}


# The documents whose JSON keys are the fields of a report dataclass: a
# renamed or added field changes CLI output and must fail here.
@pytest.mark.parametrize("argv, keys", [
    (["build", "--kind", "circle"], {"/complex", "/complex/kind", "/complex/cycles",
                                     *INVARIANT_KEYS}),
    (["build", "--kind", "globe"], {"/complex", "/complex/kind", "/complex/vertices",
                                    "/complex/triangles", *INVARIANT_KEYS}),
    (["surgery", "--input", "{surface}", "--dim", "2", "--type", "0", "--site-a", "0",
      "--site-b", "30"], {"/complex", "/complex/kind", "/complex/vertices",
                          "/complex/triangles", *INVARIANT_KEYS}),
    (["surgery", "--input", "{curve}", "--dim", "1", "--site", "1,4"],
     {"/complex", "/complex/kind", "/complex/cycles", *INVARIANT_KEYS}),
    (["classify-shell", *P3, "--ic", "1,1,1", "--t-end", "5"],
     {*CLASSIFY_KEYS, "/evidence/max_displacement"}),
    (["classify-shell", *P3, "--ic", "1,1.3,0.89", "--t-end", "20"],
     {*CLASSIFY_KEYS, *(f"/evidence/{k}" for k in EVIDENCE)}),
    (["poincare", *P3, "--ic", "1,1.3,0.89", "--t-end", "5", "--plane-point", "1,1,1",
      "--plane-normal", "1,0,0"], {"/count", "/crossings", "/crossings[]/t",
                                   "/crossings[]/state", "/crossings[]/direction"}),
    (["morse-frames", "--t", "-1", "0", "--resolution", "8", "--format", "json"],
     {"/frames", *(f"/frames[]/{k}" for k in ("t", "box", "resolution", "polylines",
                                               "degenerate", "branch_count"))}),
])
def test_report_documents_keep_their_key_tree(tmp_path, argv, keys):
    files = input_files(tmp_path)
    code, out, err = run_in_process([a.format(**files) for a in argv])
    assert (code, err) == (0, "")
    assert key_paths(json.loads(out)) == keys


# ---------------------------------------------------------------------------
# any command line
# ---------------------------------------------------------------------------

HOSTILE = ["nan", "inf", "-1", "0", "abc", "", "1,2"]
OMIT, FLAG = "<omit>", "<flag>"
PARAM = (["3", "2.9851", "0.5"], HOSTILE + ["1e-300", "1e300"])
PARAMS = {"--A": PARAM, "--B": PARAM, "--C": PARAM}
START = {**PARAMS,
         "--ic": (["1,1,1", "1,1,0.9", "1,1.3,0.89", "0.5,0.5,0.5"], HOSTILE + ["1e200,0,0"]),
         "--rtol": ([OMIT, "1e-8"], HOSTILE + ["1"]), "--atol": ([OMIT, "1e-11"], HOSTILE)}
ORBIT = {**START, "--t-end": ([OMIT, "0.5", "5", "20"], HOSTILE)}
OUT = {"--out": ([OMIT, "{out}"], ["{under_file}", "{missing}/x", "{file}", "", "."])}
SIZE = ["-1", "0", "1", "abc", ""]
FILES = (["{surface}", "{curve}"], ["{list}", "{badfield}", "{csv}", "{missing}", "{file}/x"])
BANDS = [",".join(map(str, range(6, 18))), ",".join(map(str, range(18, 30)))]


def unread(*values):
    """An option the shape does not read: omitted, or set when spoiled."""
    return ([OMIT], list(values))


# the shapes of a surgery on circle(6) or globe(): curve, disc pair, band
SURGERIES = [
    {"--input": (["{curve}"], [*FILES[1], "{surface}"]), "--dim": (["1"], ["2", "0", "abc"]),
     "--site": (["1,4", "0,2", "2,5"], HOSTILE + ["1,2", "1,4,5"]),
     "--flip": ([OMIT, FLAG], []), "--type": unread("0", "2"), "--rotation": unread("0", "abc"),
     "--site-a": unread("0"), "--site-b": unread("30"), **OUT},
    {"--input": (["{surface}"], [*FILES[1], "{curve}"]), "--dim": (["2"], ["1", "0", "abc"]),
     "--type": ([OMIT, "0"], ["1", "2"]),
     "--site-a": (["0,1,2,3,4,5", "0", "2"], HOSTILE + ["30", "2,3,4"]),
     "--site-b": (["30,31,32,33,34,35", "30", "33"], HOSTILE + ["1", "2,3,4"]),
     "--rotation": ([OMIT, "0", "1", "-1"], ["abc"]), "--flip": ([OMIT, FLAG], []),
     "--site": unread("1,4", BANDS[0]), **OUT},
    {"--input": (["{surface}"], [*FILES[1], "{curve}"]), "--dim": (["2"], ["1", "0", "abc"]),
     "--type": (["1"], ["0", "2"]), "--site": (BANDS, HOSTILE + ["0,1,2,3,4,5"]),
     "--site-a": unread("0"), "--site-b": unread("30"), "--rotation": unread("0", "1"),
     "--flip": unread(FLAG), **OUT},
]
# build kind -> the sizes it reads; it is drawn with the others set only when spoiled
SIZES = {"--n": ([OMIT, "2", "7"], SIZE), "--m": ([OMIT, "3"], SIZE),
         "--g": ([OMIT, "0", "2"], SIZE), "--rings": ([OMIT, "3", "5"], SIZE),
         "--segments": ([OMIT, "4", "6"], SIZE)}
BUILD_READS = {"circle": ["--n"], "two_circles": ["--n", "--m"], "sphere": [], "torus": [],
               "genus_g": ["--g"], "globe": ["--rings", "--segments"]}
BUILDS = [{"--kind": ([kind], ["abc"]),
           **{o: SIZES[o] if o in reads else unread(*SIZES[o][0][1:]) for o in SIZES}, **OUT}
          for kind, reads in BUILD_READS.items()]
# subcommand -> its shapes, each a map option -> (sane values, hostile
# values); a command line draws one shape and sane values for all but at
# most two of its options
COMMANDS = {
    "equilibria": [{**PARAMS, "--format": ([OMIT, "json", "text"], ["abc"]), **OUT}],
    "simulate": [{**ORBIT, "--resample": ([OMIT, "0", "2", "50"], SIZE), **OUT}],
    "classify-shell": [{**ORBIT, **OUT}],
    "poincare": [{**ORBIT, "--plane-point": (["1,1,1", "0,0,0"], HOSTILE),
                  "--plane-normal": (["1,0,0", "0,1,1"], HOSTILE + ["0,0,0"]), **OUT}],
    "limit-cycle": [{**START, "--explore-time": ([OMIT, "5", "20"], HOSTILE),
                     "--eps-cycle": ([OMIT, "1e-9", "1e-6"], HOSTILE), **OUT},
                    # region b, explored long enough to wind: the search converges
                    {**START, "--A": (["2.9851"], PARAM[1]), "--B": (["3"], PARAM[1]),
                     "--C": (["3"], PARAM[1]),
                     "--explore-time": ([OMIT, "60"], HOSTILE),
                     "--eps-cycle": ([OMIT, "1e-6"], HOSTILE), **OUT}],
    "surgery": SURGERIES,
    "build": BUILDS,
    "morse-frames": [{"--t": (["-1", "1", "-1 0 1", "0.25"], HOSTILE + ["1 nan"]),
                      "--box": ([OMIT, "2", "0.5"], HOSTILE),
                      "--resolution": ([OMIT, "8", "16"], SIZE + ["7"]),
                      "--format": ([OMIT, "json", "svg"], ["abc"]),
                      "--out-dir": ([OMIT, "{out}"], ["{under_file}", "{file}"]), **OUT}],
    "solid-demo": [{"--kind": (["1d0", "2d0", "2d1"], ["abc"]),
                    "--layers": ([OMIT, "1", "5"], SIZE),
                    "--direction": ([OMIT, "forward", "dual"], ["abc"]), **OUT}],
    "plot": [{"--in": (["{csv}"], FILES[1] + ["{badcsv}", "{nancsv}", "{hugecsv}",
                                               "{overflowcsv}", "{surface}"]),
              "--projection": ([OMIT, "xy", "iso"], ["abc"]),
              "--equilibria": ([OMIT, "3,3,3", "2.9851,3,3"], HOSTILE), **OUT}],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = draw(st.sampled_from(COMMANDS[command]))
    spoiled = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = [command]
    for option, (sane, hostile) in options.items():
        choices = [OMIT, *hostile] if option in spoiled else sane
        value = draw(st.sampled_from(choices))
        if value == FLAG:
            argv.append(option)
        elif value != OMIT:
            argv += [option, *value.split(" ")]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_any_command_line_ends_in_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as d:
        files = input_files(Path(d))
        files["out"] = str(Path(d) / "out")
        code, out, err = run_in_process([a.format(**files) for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1
