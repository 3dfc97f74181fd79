"""Arithmetic of the benchmark's metrics, kept apart from the runs so the
tests in perfbench/tests can check it directly.

A failed op (no certificate, or an answer that disagrees with its
reference) counts as taking +inf seconds: it misses every time limit, so a
change that turns a failure into a slow success can never read as a
regression, and a change that turns a success into a failure always does.
"""

from __future__ import annotations

import json
import math
import statistics


# The reference host speed: the host on which run.py's calibration kernel
# takes this long.  Timings are reported as seconds on such a host.
REFERENCE_CALIBRATION_S = 0.010


def host_speed(calibrations) -> float:
    """How fast the host ran during a phase of a run, relative to the
    reference host: the reference kernel time over the mean of the kernel
    times measured between the phase's steps.  Wall seconds of the phase
    times this factor are seconds on the reference host.

    The shared host this benchmark was tuned on switches between speeds
    that differ by up to 1.8x, for seconds to tens of minutes at a time;
    unadjusted, that drift swamps any change to the program.
    """
    calibrations = list(calibrations)
    if not calibrations:
        raise ValueError("no calibrations")
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def op_seconds(seconds: float, certified: bool) -> float:
    """Seconds an op is charged: its wall time, or +inf when it failed."""
    return seconds if certified else math.inf


def median(values) -> float:
    """Median that accepts +inf entries (statistics.median sorts them last)."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def end_to_end(samples) -> dict:
    """End-to-end figures of a run from the seconds charged to each op.

    `samples` holds, in op-list order, one list per op of the seconds
    charged to each of its runs (see op_seconds); every op has at least one.
    Each op is taken at its median over its runs, which drops the runs a
    burst of host load slowed down; total_s is the sum of these per-op
    medians (the op list run once) and op_p50_s their median.
    """
    if not samples or not all(samples):
        raise ValueError("a run needs at least one op, each run at least once")
    per_op = [median(s) for s in samples]
    attempted = sum(len(s) for s in samples)
    failed = sum(1 for s in samples for x in s if math.isinf(x))
    return {
        "total_s": math.fsum(per_op),
        "op_p50_s": median(per_op),
        "ops": len(per_op),
        "runs_per_op": min(len(s) for s in samples),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "certified_share": (attempted - failed) / attempted,
    }


def self_seconds(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    their durations add up to the part of the parent they cover.
    """
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def ratio(num, den):
    """num / den, or None (absent) when the base is missing or zero."""
    if num is None or not den:
        return None
    return num / den


def format_metric(name: str, value, unit: str, count: int | None = None,
                  noun: str = "ops") -> str:
    """One printed metric line; a median carries its sample count."""
    shown = "absent" if value is None else f"{value:.6g}"
    line = f"{name} = {shown} {unit}"
    if count is not None:
        line += f" (n={count} {noun})"
    return line


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    """The run's last stdout line: one JSON object that carries only numbers.

    +inf is written 1e999, valid JSON that parsers read back as infinity,
    and a metric that is absent in this run (see layers.py) is written 0;
    the metric lines printed before it say `absent`.
    """
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": 0 if v is None else v, "unit": units[k]}
                    for k, v in values.items()},
    }
    return json.dumps(result).replace("Infinity", "1e999")
