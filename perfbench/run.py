"""Time-to-certificate benchmark of sawcount.

    python3 perfbench/run.py --workload marginal --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # each workload in its own process

A run builds one workload's inputs from the seed, runs every op of it once,
and then keeps cycling through the op list, running an op again whenever
its last time still fits in what is left of --seconds, until none fits.
Ops run one at a time in this one process (a closed loop with a single
client).  Every answer is checked against its reference (see workloads.py).
A calibration kernel timed before and after every op run gives the host's
speed during the run, and the reported timings are the wall figures
rescaled to a reference host speed (see metrics.host_speed).
Stdout carries one `row` line per op run (its certified output next to its
time, and the machine context), one line per metric, and last the result
object.  The exit code is 1 when an answer disagrees with its reference and
2 when the program cannot be imported from ./src.

--trace 0 measures the end-to-end metrics.  --trace 1 runs each op once
untraced and then once under the timing wrappers of layers.py, whatever
--seconds says, and reports the per-layer metrics, the tracing overhead,
and a JSONL trace under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("marginal", "partition", "growth", "readme")
SETUP_SAMPLES = 7
CALIBRATION_WALK_LENGTH = 8  # 9304 walks, 7-14 ms on a 2.1 GHz Xeon
CALIBRATION_REPEATS = 2
_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "total_s": "s", "op_p50_s": "s",
              "certified_share": "ratio", "peak_rss_mb": "MB"}


def import_program():
    """Import sawcount from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sawcount
    except ImportError as exc:
        fail(f"cannot import sawcount from {SRC}: {exc}")
    if not Path(sawcount.__file__).resolve().is_relative_to(SRC):
        fail(f"sawcount imported from {sawcount.__file__}, not from {SRC}")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    """HEAD of the git repository this checkout is, or None when it is none."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def context(args):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit(),
    }


def _calibration_kernel() -> int:
    """Fixed pure-Python work of the program's kind, independent of it:
    count the self-avoiding walks of up to CALIBRATION_WALK_LENGTH steps
    on Z^2 by depth-first search with an explicit stack."""
    path = [(0, 0)]
    on_path = {(0, 0)}
    stack = [0]  # index into _STEPS of the next step to try at each level
    count = 0
    while stack:
        k = stack[-1]
        if k == len(_STEPS) or len(path) > CALIBRATION_WALK_LENGTH:
            stack.pop()
            on_path.discard(path.pop())
            if stack:
                stack[-1] += 1
            continue
        x, y = path[-1]
        dx, dy = _STEPS[k]
        site = (x + dx, y + dy)
        if site in on_path:
            stack[-1] += 1
            continue
        count += 1
        path.append(site)
        on_path.add(site)
        stack.append(0)
    return count


def calibration_seconds() -> float:
    """Best of a few timings of the calibration kernel, collector off: how
    fast the host runs Python right now."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            _calibration_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def setup_seconds(args):
    """Start-to-first-op wall times of fresh processes doing this run's
    set-up, and the calibrations taken around them."""
    samples, calibrations = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        calibrations.append(calibration_seconds())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or ready.strip() != "ready":
            fail(f"set-up process failed with code {code}")
        samples.append(elapsed)
        calibrations.append(calibration_seconds())
    return samples, calibrations


def run_op(op, wl, metrics) -> dict:
    """Run one op between two calibrations; return its row."""
    gc.collect()
    before = calibration_seconds()
    t0 = time.perf_counter()
    try:
        out = op.call()
    except wl.BUDGET_ERRORS as exc:
        out = wl.outcome_of_error(exc)
    seconds = time.perf_counter() - t0
    after = calibration_seconds()
    verdict = op.check(out)
    certified = out.error is None and out.converged and verdict.accurate and verdict.agrees
    return {
        "op": op.name, "seconds": seconds, "calibration_s": [before, after],
        "charged_s": metrics.op_seconds(seconds, certified),
        "lo": out.lo, "hi": out.hi, "value": out.value, "depth": out.depth,
        "nodes": out.nodes, "converged": out.converged, "certified": certified,
        "agrees": verdict.agrees, "accurate": verdict.accurate,
        "error": out.error, "reference": verdict.note,
    }


def measure(ops, wl, metrics, seconds) -> list:
    """Every op once, then again while its last time fits before the
    deadline; one list of rows per op."""
    runs = [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    ran = True
    while ran:
        ran = False
        for op, rows in zip(ops, runs):
            if rows and time.perf_counter() + rows[-1]["seconds"] > deadline:
                continue
            rows.append(run_op(op, wl, metrics))
            ran = True
    return runs


def measure_traced(ops, wl, metrics, tracer):
    """Each op once untraced and then once traced, back to back, so the
    overhead compares runs made under the same host load."""
    plain, traced = [], []
    for op in ops:
        plain.append([run_op(op, wl, metrics)])
        tracer.op = op.name
        with tracer.installed():
            traced.append([run_op(op, wl, metrics)])
    return plain, traced


def print_rows(runs, ctx, traced=False):
    for rows in runs:
        for i, row in enumerate(rows):
            print("row", json.dumps({**row, "run": i, "traced": traced, **ctx}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_program()
    import metrics
    import workloads as wl

    if args.setup_only:
        wl.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    ctx = context(args)
    if args.trace:
        import layers
        from sawcount import connconst, counting, graph, recurrence

        tracer = layers.Tracer({"recurrence": recurrence, "counting": counting,
                                "graph": graph, "connconst": connconst})
        with tracer.installed():
            ops = wl.build(args.workload, args.seed)
        plain, traced = measure_traced(ops, wl, metrics, tracer)
        print_rows(traced, ctx, traced=True)
    else:
        ops = wl.build(args.workload, args.seed)
        setup, setup_calibrations = setup_seconds(args)
        plain, traced = measure(ops, wl, metrics, args.seconds), []
    print_rows(plain, ctx)
    rows = [r for per_op in plain + traced for r in per_op]
    attempted = len(rows)
    failed = sum(1 for r in rows if not r["certified"])
    correct = all(r["agrees"] for r in rows)
    e2e = metrics.end_to_end([[r["charged_s"] for r in per_op] for per_op in plain])

    if args.trace:
        # wall seconds, not charged ones, so a failed op still shows its overhead
        untraced_s, traced_s = (math.fsum(r["seconds"] for per_op in side for r in per_op)
                                for side in (plain, traced))
        values = layers.layer_metrics(tracer.spans, tracer.absent_spans())
        values["trace.overhead_s"] = traced_s - untraced_s
        units = layers.UNITS
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "context", **ctx, "missing": tracer.missing}) + "\n")
            for s in tracer.spans:
                fh.write(json.dumps({"kind": "span", **s}) + "\n")
            for r in layers.trace_rows(tracer.spans):
                fh.write(json.dumps(r) + "\n")
        print(f"trace {path.relative_to(ROOT)} ({len(tracer.spans)} spans;"
              f" ops took {untraced_s:.6g} s untraced, {traced_s:.6g} s traced)")
        for name in tracer.missing:
            print(f"absent: {name} is not in this program; its metrics are reported as absent")
    else:
        speed = metrics.host_speed(c for r in rows for c in r["calibration_s"])
        setup_speed = metrics.host_speed(setup_calibrations)
        values = {
            "setup_s": metrics.median(setup) * setup_speed,
            "total_s": e2e["total_s"] * speed,
            "op_p50_s": e2e["op_p50_s"] * speed,
            "certified_share": e2e["certified_share"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(metrics.format_metric("failed_share", e2e["failed_share"], "ratio",
                                    e2e["attempted"], "op runs"))
        print(metrics.format_metric("host_speed", speed, "x reference", 2 * len(rows),
                                    "calibrations"))
        print(metrics.format_metric("setup_host_speed", setup_speed, "x reference",
                                    len(setup_calibrations), "calibrations"))
        print(metrics.format_metric("wall_setup_s", metrics.median(setup), "s"))
        print(metrics.format_metric("wall_total_s", e2e["total_s"], "s"))
        print(metrics.format_metric("wall_op_p50_s", e2e["op_p50_s"], "s"))

    counts = {"total_s": (e2e["runs_per_op"], "runs of each op at least"),
              "op_p50_s": (e2e["ops"], "ops"),
              "certified_share": (e2e["attempted"], "op runs"),
              "setup_s": (SETUP_SAMPLES, "set-ups")}
    for name, value in values.items():
        print(metrics.format_metric(name, value, units[name], *counts.get(name, (None,))))
    print(metrics.result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; exit 1 when any answer disagrees."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines:
            if not line.startswith("row "):
                print(line)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"!! {name} exited with code {done.returncode}")
        worst = max(worst, done.returncode)
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
