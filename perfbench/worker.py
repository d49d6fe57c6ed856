"""One workload in one process: set-up, timed passes, checks, and (with
--trace 1) the traced passes that give the per-layer metrics.

Run by run.py with a pinned environment; prints one JSON line.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402  (imports all of toposurge)
from workloads import WORKLOADS  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
MAX_FAILURES_SHOWN = 20


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Tasks:
    """Per-task latencies of one pass; tags spans with the task id."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.tracer = tracer

    @contextmanager
    def __call__(self):
        if self.tracer is not None:
            self.tracer.task = len(self.latencies)
        t0 = perf_counter()
        yield
        self.latencies.append(perf_counter() - t0)


def peak_rss_mb():
    """High-water RSS of this process, or of its largest finished child if
    that is larger (the CLI processes of cli_session)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_pass(wl, api, checks):
    """One timed pass, then its checks (untimed).  Returns wall, task
    latencies, exact counts, and the time the pass and checks took."""
    tasks = Tasks(api.tracer)
    t0 = perf_counter()
    with api.active():
        out = wl.run(api, tasks)
    wall = perf_counter() - t0
    counts = wl.verify(out, checks)
    return wall, tasks.latencies, counts, perf_counter() - t0


def same_counts(checks, first, counts, label):
    for key, value in first.items():
        if key in counts:
            checks(counts[key] == value,
                   f"count {key} = {counts[key]} on {label}, {value} on the first pass")


def measure(wl, seconds, checks):
    """Timed passes, at least ``min_passes``, until the next one would
    overrun ``seconds``."""
    api = tracing.Api()
    deadline = perf_counter() + seconds
    walls, tasks, cycle = [], [], []
    first = None
    while True:
        wall, lat, counts, spent = run_pass(wl, api, checks)
        walls.append(wall)
        tasks.append(lat)
        cycle.append(spent)
        if first is None:
            first = counts
            rss = peak_rss_mb()
        else:
            same_counts(checks, first, counts, f"pass {len(walls)}")
        if len(walls) >= wl.min_passes and perf_counter() + statistics.median(cycle) > deadline:
            return {"walls": walls, "tasks": tasks, "counts": first, "peak_rss_mb": rss}


def measure_traced(wl, name, seconds, seed, checks):
    """Rounds of an untraced and a traced pass.  For the CLI session the
    session is also replayed as processes first; both in-process passes go
    through ``toposurge.cli.main``, so their difference is the tracing cost
    and the process pass minus the untraced in-process pass is cold start."""
    cli = name == "cli_session"
    plain = tracing.Api(in_process=cli)
    deadline = perf_counter() + seconds
    base_walls, traced_walls, per_pass, cold, cycle = [], [], [], [], []
    all_spans = []
    first = None
    while True:
        t0 = perf_counter()
        if cli:
            _, sub_lat, _, _ = run_pass(wl, tracing.Api(), checks)
        tracer = tracing.Tracer()
        traced = tracing.Api(tracer, in_process=cli)
        # alternate which of the pair goes first, so a drift in machine
        # speed does not read as tracing cost
        if len(base_walls) % 2 == 0:
            wall, lat, counts, _ = run_pass(wl, plain, checks)
            t_wall, _, t_counts, _ = run_pass(wl, traced, checks)
        else:
            t_wall, _, t_counts, _ = run_pass(wl, traced, checks)
            wall, lat, counts, _ = run_pass(wl, plain, checks)
        base_walls.append(wall)
        traced_walls.append(t_wall)
        if cli:
            cold.extend(a - b for a, b in zip(sub_lat, lat))
        layers = tracing.layer_metrics(tracer.spans, t_wall, counts.get("surgery.sites_used", 0))
        per_pass.append(layers)
        if first is None:
            first = counts
        same_counts(checks, first, counts, f"untraced pass {len(base_walls)}")
        same_counts(checks, first, t_counts, f"traced pass {len(traced_walls)}")
        same_counts(checks, first, layers, f"traced pass {len(traced_walls)} (spans)")
        if len(per_pass) > 1:
            same_counts(checks, {k: per_pass[0][k] for k in tracing.COUNTS},
                        layers, f"traced pass {len(traced_walls)}")
        t0_rel = tracer.spans[0]["start"] if tracer.spans else 0.0
        for s in tracer.spans:
            all_spans.append({**s, "pass": len(per_pass), "start": s["start"] - t0_rel,
                              "end": s["end"] - t0_rel})
        cycle.append(perf_counter() - t0)
        if perf_counter() + statistics.median(cycle) > deadline:
            break
    metrics = tracing.median_metrics(per_pass)
    metrics["cli.cold_start_s"] = statistics.median(cold) if cold else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(base_walls)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(all_spans))
    return {"layers": metrics, "counts": first, "walls": traced_walls, "tasks": [],
            "peak_rss_mb": peak_rss_mb()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    checks = Checks()
    try:
        if args.trace:
            result = measure_traced(wl, args.workload, args.seconds, args.seed, checks)
        else:
            result = measure(wl, args.seconds, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        setup_s=setup_s,
        attempted=checks.attempted,
        failed=len(checks.failures),
        failures=checks.failures[:MAX_FAILURES_SHOWN],
        numpy=numpy.__version__,
        unpatched=tracing.missing_patches(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
