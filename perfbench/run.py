#!/usr/bin/env python3
"""toposurge benchmark: one workload per call, in its own worker process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment, the task tail, fail_frac and the exact counts.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("shell_transition", "limit_cycle", "surgery_kernel", "cli_session")
SETUPS = 4           # fresh set-up processes before the timed run, and as many after
TIME_LIMIT = 170.0   # the whole command, seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
UNSET_VARS = ("TOPOSURGE_RTOL", "TOPOSURGE_ATOL")  # read by integrate at import

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "integrate.busy_s": "s", "integrate.us_per_step": "us", "integrate.steps": "count",
    "integrate.rejects": "count", "integrate.rhs_evals": "count",
    "integrate.rhs_per_step": "rhs/step", "integrate.model_time": "t_model",
    "integrate.share": "ratio",
    "orbits.detect_limit_cycle.self_s": "s", "orbits.explore_s": "s",
    "orbits.return_integrations": "count", "orbits.return_useful_ratio": "ratio",
    "orbits.newton_iterations": "count",
    "orbits.classify_shell.self_s": "s", "orbits.winding_profile.busy_s": "s",
    "orbits.winding_profile.added_samples": "count", "orbits.poincare.busy_s": "s",
    "orbits.poincare.crossings": "count",
    "manifolds.validate.busy_s": "s", "manifolds.validate.us_per_triangle": "us",
    "manifolds.invariants.busy_s": "s", "manifolds.invariants.us_per_triangle": "us",
    "manifolds.triangles": "count",
    "surgery.surgery_2d_0.self_s": "s", "surgery.surgery_2d_1.self_s": "s",
    "surgery.surgery_1d_0.busy_s": "s", "surgery.validate_site.busy_s": "s",
    "surgery.site_search.busy_s": "s", "surgery.site_search.sites_enumerated": "count",
    "surgery.site_search.used_ratio": "ratio",
    "solid.busy_s": "s", "morse.busy_s": "s", "morse.cells": "count",
    "cli.cold_start_s": "s", "cli.invocations": "count", "cli.nonzero_exits": "count",
    "serialize.busy_s": "s", "serialize.bytes_out": "bytes", "svgplot.busy_s": "s",
    "trace.overhead_s": "s",
}


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker(args, env, extra, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    # own process group, so a timeout also stops the CLI processes it runs
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def task_tail(latencies: list[float]):
    """Highest percentile with at least ten tasks beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "unit": "s", "percentile": 100.0 * (n - 10) / n,
            "tasks": n}


def typical_pass(passes: list[list[float]]) -> float:
    """Each task's median latency over the passes, summed: one pass at the
    run's typical speed.  The medians draw on every pass of the run, and a
    pass hit by a short burst of load does not move them."""
    return sum(statistics.median(task) for task in zip(*passes))


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "toposurge" / "__init__.py").is_file():
        print(f"error: no toposurge sources under {SRC}", file=sys.stderr)
        return 2

    env = pinned_env()

    def run_worker(extra):
        return worker(args, env, extra, TIME_LIMIT - (time.monotonic() - start))

    # set-up is sampled before and after the timed run, so that its median
    # does not rest on one moment of the host
    setups = []
    for _ in range(0 if args.trace else SETUPS):
        setups.append(run_worker(["--setup-only"])["setup_s"])
    res = run_worker(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(res["setup_s"])
    for _ in range(0 if args.trace else SETUPS):
        setups.append(run_worker(["--setup-only"])["setup_s"])

    latencies = [t for one_pass in res["tasks"] for t in one_pass]
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": typical_pass(res["tasks"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_walls_s": res["walls"],
        "fail_frac": {"value": res["failed"] / max(res["attempted"], 1), "unit": "ratio"},
        "task_p50_s": ({"value": statistics.median(latencies), "unit": "s",
                        "tasks": len(latencies)} if latencies else None),
        "task_tail_s": task_tail(latencies),
        "setup_samples_s": setups,
        "counts": res["counts"],
        "failures": res["failures"],
        "unpatched": res["unpatched"],
        "env": {
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "pinned": {k: env[k] for k in THREAD_VARS},
            "unset": [k for k in UNSET_VARS if k in os.environ],
        },
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
