"""Tests of the benchmark's own arithmetic and wrappers.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import metrics  # noqa: E402

INF = math.inf


def test_failed_op_is_charged_inf():
    assert metrics.op_seconds(1.5, True) == 1.5
    assert metrics.op_seconds(1.5, False) == INF


def test_host_speed_is_the_reference_over_the_mean_calibration():
    ref = metrics.REFERENCE_CALIBRATION_S
    assert metrics.host_speed([ref, ref]) == pytest.approx(1.0)
    # half the phase at half speed: the kernel took 1.5x as long on average
    assert metrics.host_speed([ref, 2 * ref]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        metrics.host_speed([])


def test_one_failed_op_makes_total_inf_but_not_the_median():
    e2e = metrics.end_to_end([[1.0], [INF], [2.0]])
    assert e2e["total_s"] == INF
    assert e2e["op_p50_s"] == 2.0
    assert e2e["ops"] == 3


def test_median_is_inf_when_most_ops_failed():
    assert metrics.end_to_end([[INF], [1.0], [INF]])["op_p50_s"] == INF
    # an even count averages the two middle values; one of them inf gives inf
    assert metrics.end_to_end([[1.0], [INF]])["op_p50_s"] == INF


def test_an_op_failing_in_one_run_of_two_is_inf():
    e2e = metrics.end_to_end([[1.0, 1.0], [2.0, INF]])
    assert e2e["total_s"] == INF
    assert e2e["failed"] == 1


def test_each_op_is_taken_at_its_median_over_its_runs():
    # op 0 ran three times, one of them in a slow spell; op 1 ran once
    e2e = metrics.end_to_end([[1.0, 9.0, 1.2], [2.2]])
    assert e2e["total_s"] == 1.2 + 2.2
    assert e2e["op_p50_s"] == (1.2 + 2.2) / 2
    assert e2e["runs_per_op"] == 1
    assert e2e["attempted"] == 4
    assert e2e["ops"] == 2


def test_an_op_that_never_ran_is_an_error():
    with pytest.raises(ValueError):
        metrics.end_to_end([[1.0], []])


def test_failed_share_counts_failures_against_attempts():
    e2e = metrics.end_to_end([[1.0, 1.0], [INF, 1.0]])
    assert e2e["failed"] == 1
    assert e2e["failed_share"] == 0.25
    assert e2e["certified_share"] == 0.75
    assert metrics.end_to_end([[1.0]])["failed_share"] == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    selfs = metrics.self_seconds(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_percentile_lines_carry_the_op_count():
    assert metrics.format_metric("op_p50_s", 1.25, "s", 16) == "op_p50_s = 1.25 s (n=16 ops)"
    assert metrics.format_metric("total_s", INF, "s") == "total_s = inf s"
    assert metrics.format_metric("x", None, "count") == "x = absent count"


def test_ratio_is_absent_without_a_base():
    assert metrics.ratio(3, 0) is None
    assert metrics.ratio(None, 2) is None
    assert metrics.ratio(3, 2) == 1.5


def test_result_line_is_json_with_numbers_only():
    units = {"total_s": "s", "x": "count"}
    line = metrics.result_line(True, 3, 1, {"total_s": INF, "x": None}, units)
    assert "Infinity" not in line
    assert json.loads(line) == {
        "correct": True, "attempted": 3, "failed": 1,
        "metrics": {"total_s": {"value": INF, "unit": "s"}, "x": {"value": 0, "unit": "count"}},
    }


def _fake_program(with_delete=True):
    def sandwich_values(g, v, model, activities, depth, boundary=None, budget=10**7):
        return [(0.25, 0.5)], 100, True

    def marginal_adaptive(g, v, params, boundary=None, tol=1e-6, budget=10**7):
        pairs, nodes, _ = recurrence.sandwich_values(g, v, params.model, [1.0], 1)
        pairs, nodes2, _ = recurrence.sandwich_values(g, v, params.model, [1.0], 2)
        return SimpleNamespace(depth_max_used=2, nodes_expanded=nodes + nodes2,
                               lo=0.3, hi=0.3 + tol)

    def delete_vertex(g, v):
        return g

    def partition_md(g, gamma, eps, budget=None):
        counting.marginal_adaptive(g, 0, SimpleNamespace(model="monomerdimer"), tol=0.5)
        if hasattr(counting, "delete_vertex"):
            counting.delete_vertex(g, 0)
        return SimpleNamespace(converged=True, lo=1.0, hi=math.exp(eps / 2), nodes_expanded=200)

    recurrence = SimpleNamespace(sandwich_values=sandwich_values,
                                 marginal_adaptive=marginal_adaptive)
    counting = SimpleNamespace(marginal_adaptive=marginal_adaptive, partition_md=partition_md,
                               partition_hc=partition_md)
    if with_delete:
        counting.delete_vertex = delete_vertex
    modules = {"recurrence": recurrence, "counting": counting,
               "graph": SimpleNamespace(), "connconst": SimpleNamespace()}
    return modules, SimpleNamespace(n=2)


def test_wrappers_record_layers_and_restore_the_originals():
    modules, g = _fake_program()
    original = modules["counting"].partition_md
    tracer = layers.Tracer(modules)
    with tracer.installed():
        tracer.op = "op1"
        modules["counting"].partition_md(g, 1.0, eps=0.01)
    assert modules["counting"].partition_md is original
    m = layers.layer_metrics(tracer.spans, tracer.absent_spans())
    assert m["recurrence.sandwich.calls"] == 2
    assert m["recurrence.sandwich.md.nodes"] == 200
    assert m["recurrence.sandwich.hc.nodes"] == 0
    assert m["recurrence.sandwich.hc.nodes_per_s"] is None
    assert m["recurrence.adaptive.passes"] == 2.0
    assert m["recurrence.adaptive.final_pass_share"] == 0.5
    assert m["recurrence.adaptive.width_slack_p50"] == pytest.approx(0.5)
    assert m["recurrence.adaptive.depth_max"] == 2
    assert m["counting.factors"] == 1
    assert m["counting.eps_used"] == pytest.approx(0.5)
    assert m["counting.factor_coverage"] == 0.5
    assert m["graph.delete_vertex.calls"] == 1
    rows = layers.trace_rows(tracer.spans)
    assert [r["kind"] for r in rows] == ["factor", "depth", "depth"]
    assert rows[0]["index"] == 0 and rows[0]["op"] == "op1"


def test_a_removed_name_is_reported_absent_not_a_crash():
    modules, g = _fake_program(with_delete=False)
    tracer = layers.Tracer(modules)
    with tracer.installed():
        modules["counting"].partition_md(g, 1.0, eps=0.01)
    assert "counting.delete_vertex" in tracer.missing
    m = layers.layer_metrics(tracer.spans, tracer.absent_spans())
    assert m["graph.delete_vertex.calls"] is None
    assert m["graph.delete_vertex.busy_s"] is None
    assert m["recurrence.sandwich.calls"] == 2
    assert set(m) == set(layers.UNITS) - {"trace.overhead_s"}


def test_a_call_that_raises_keeps_its_arguments_and_partial_work():
    class Budget(RuntimeError):
        nodes_expanded = 70

    def sandwich_values(g, v, model, activities, depth, boundary=None, budget=10**7):
        raise Budget()

    modules = {"recurrence": SimpleNamespace(sandwich_values=sandwich_values),
               "counting": SimpleNamespace(), "graph": SimpleNamespace(),
               "connconst": SimpleNamespace()}
    tracer = layers.Tracer(modules)
    with tracer.installed(), pytest.raises(Budget):
        modules["recurrence"].sandwich_values(None, 0, "monomerdimer", [1.0], 5)
    m = layers.layer_metrics(tracer.spans, tracer.absent_spans())
    assert m["recurrence.sandwich.md.nodes"] == 70
    assert m["recurrence.sandwich.budget_exhausted"] == 1
    row = layers.trace_rows(tracer.spans)[0]
    assert (row["model"], row["depth"], row["error"]) == ("monomerdimer", 5, "Budget")
