import argparse
import json

import pytest

from sawcount.cli import _HANDLERS, _OPTIONAL, _SCHEMAS, build_parser, main, validate_record
from sawcount.connconst import conn_profile, spectral_bound, truncate3, z2_branching_matrix
from sawcount.counting import partition_hc, partition_md
from sawcount.decay import lambda_c
from sawcount.graph import gen_graph, graph_from_edges, graph_to_edge_list
from sawcount.recurrence import (
    HARDCORE,
    hardcore,
    marginal_adaptive,
    monomerdimer,
    sandwich_values,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_path(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    code = main(["gen", "--kind", "cycle", "--n", "4", "--out", str(path)])
    assert code == 0
    capsys.readouterr()  # flush the gen confirmation line
    return str(path)


def test_gen_writes_parseable_graph(capsys, tmp_path):
    path = tmp_path / "g.edges"
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "gnp", "--n", "30", "--d", "2.5",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    assert "# seed = 7" in text  # config echo, incl. the generator name
    assert "PCG64" in text
    from sawcount.graph import gen_graph, graph_from_edge_list

    assert graph_from_edge_list(text) == gen_graph("gnp", n=30, d=2.5, seed=7)


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "complete", "--n", "3")
    assert code == 0
    assert "0 1" in out and "# kind = complete" in out


def test_md_count_json(capsys, c4_path):
    code, out, _ = run_cli(
        capsys, "md-count", "--graph", c4_path, "--gamma", "1", "--eps", "0.01"
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    assert abs(rec["value"] - 7.0) <= 0.07
    assert rec["lo"] <= 7.0 <= rec["hi"]
    assert rec["config"]["eps"] == 0.01
    assert rec["converged"] is True
    assert "failed_vertex" not in rec


def test_hc_count_json(capsys, c4_path):
    code, out, _ = run_cli(
        capsys, "hc-count", "--graph", c4_path, "--lam", "1", "--eps", "0.01"
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    assert abs(rec["value"] - 7.0) <= 0.07


def test_marginal_commands(capsys, c4_path):
    code, out, _ = run_cli(
        capsys, "md-marginal", "--graph", c4_path, "--gamma", "1",
        "--vertex", "0", "--tol", "1e-8",
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    assert rec["lo"] <= rec["value"] <= rec["hi"]
    assert abs(rec["value"] - 3.0 / 7.0) <= 1e-8
    # fixed-depth mode
    code, out, _ = run_cli(
        capsys, "hc-marginal", "--graph", c4_path, "--lam", "1", "--depth", "2",
    )
    rec = json.loads(out)
    assert rec["depth"] == 2 and rec["lo"] < rec["hi"]


def test_z2_branching_text(capsys):
    code, out, _ = run_cli(
        capsys, "z2-branching", "--L", "2", "--pruning", "none"
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("eigenvalue"))
    assert float(line.split()[1]) == pytest.approx(3.0, abs=1e-6)
    assert "# L = 2" in out


def test_z2_branching_json(capsys):
    code, out, _ = run_cli(
        capsys, "z2-branching", "--L", "4", "--format", "json"
    )
    rec = json.loads(out)
    validate_record(rec)
    assert 2.429 <= rec["eigenvalue"] <= 3.0
    assert rec["ssm_bound"] == truncate3(lambda_c(rec["eigenvalue"]))
    del rec["ssm_bound"]
    with pytest.raises(ValueError, match="ssm_bound"):
        validate_record(rec)


def test_lattice_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "lattice-bounds")
    assert code == 0
    for token in ("0.961", "4.976", "2.082", "0.822", "0.508", "0.367",
                  "0.288", "2.538", "2.529"):
        assert token in out


def test_lattice_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "lattice-bounds", "--format", "json")
    rec = json.loads(out)
    validate_record(rec)
    assert len(rec["rows"]) == 9


def test_decay_table(capsys):
    code, out, _ = run_cli(
        capsys, "decay-table", "--model", "monomerdimer", "--gamma", "1",
        "--delta", "2", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    row = rec["rows"][0]
    assert row["q"] == pytest.approx(3.0)
    assert row["alpha"] == pytest.approx(1.0 / 16.0)


def test_conn_const(capsys, tmp_path):
    path = tmp_path / "c10.edges"
    main(["gen", "--kind", "cycle", "--n", "10", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "conn-const", "--graph", str(path), "--lmax", "5",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    assert rec["rows"][-1]["cumulative"] == 10
    assert rec["complete"] is True
    assert "failed_root" not in rec
    # a gnp graph's counts come from the blocked enumeration and must
    # serialize as plain ints
    path = tmp_path / "gnp.edges"
    main(["gen", "--kind", "gnp", "--n", "30", "--d", "3", "--seed", "7",
          "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "conn-const", "--graph", str(path), "--lmax", "6",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    validate_record(rec)
    assert [r["cumulative"] for r in rec["rows"]] == [7, 20, 46, 93, 175, 358]
    # 14 of the 30 roots are walked; the others are covered by their
    # non-backtracking bound
    assert rec["roots"] == list(range(30))
    assert rec["walked"] == [0, 1, 3, 6, 7, 10, 11, 12, 13, 18, 22, 23, 24, 25]
    assert rec["walks"] == 4279
    # a profile that runs out of budget still emits a valid record
    code, out, _ = run_cli(
        capsys, "conn-const", "--graph", str(path), "--lmax", "6",
        "--budget", "300", "--format", "json",
    )
    assert code == 1
    rec = json.loads(out)
    validate_record(rec)
    assert rec["complete"] is False
    # vertex 28 is isolated: its bound, 0 at every length, is within the
    # profile, so it is covered without a walk
    assert rec["roots"] == [28] and rec["walked"] == [] and rec["walks"] == 301
    assert rec["failed_root"] == 7  # the root with the largest bound
    rec["failed_root"] = "7"
    with pytest.raises(ValueError):
        validate_record(rec)


def test_oracle_command(capsys, c4_path):
    code, out, _ = run_cli(
        capsys, "oracle", "--model", "monomerdimer", "--graph", c4_path,
        "--gamma", "1",
    )
    rec = json.loads(out)
    assert rec["value"] == 7.0
    code, out, _ = run_cli(
        capsys, "oracle", "--model", "hardcore", "--graph", c4_path,
        "--lam", "1", "--vertex", "0",
    )
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(2.0 / 7.0)
    assert rec["ratio"] == pytest.approx(0.4)


def test_usage_errors(capsys, c4_path):
    assert run_cli(capsys, "md-count", "--graph", "/missing.edges",
                   "--gamma", "1")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "md-count", "--graph", c4_path)[0] == 2
    assert run_cli(capsys, "decay-table", "--model", "hardcore",
                   "--delta", "2")[0] == 2  # missing --lam
    assert run_cli(capsys, "gen", "--kind", "gnp", "--n", "5")[0] == 2
    assert run_cli(capsys, "hc-marginal", "--graph", c4_path, "--lam", "inf",
                   "--vertex", "0", "--depth", "3")[0] == 2
    assert run_cli(capsys, "decay-table", "--model", "hardcore", "--lam", "inf",
                   "--delta", "2")[0] == 2
    # an adaptive marginal at a vertex the graph lacks, a state cap below 1
    for cmd, activity in (("md-marginal", "--gamma"), ("hc-marginal", "--lam")):
        code, _, err = run_cli(capsys, cmd, "--graph", c4_path, activity, "1", "--vertex", "4")
        assert (code, err) == (2, "error: vertex 4 out of range\n")
    for cap in ("0", "-5"):
        code, _, err = run_cli(capsys, "z2-branching", "--L", "4", "--state-cap", cap)
        assert (code, err) == (2, "error: state_cap must be positive\n")


def test_non_integral_sizes_exit_2(capsys):
    # --d is a float option, for gnp; a dary tree's arity must be integral
    code, out, err = run_cli(capsys, "gen", "--kind", "dary_tree", "--d", "2.5",
                             "--depth", "2")
    assert (code, out) == (2, "")
    assert "d must be an integer" in err
    code, out, _ = run_cli(capsys, "gen", "--kind", "dary_tree", "--d", "2",
                           "--depth", "2")
    assert code == 0 and "# n 7" in out


def test_negative_tol_is_a_usage_error(capsys):
    # a negative tol would run the power iteration to its cap
    code, out, err = run_cli(capsys, "z2-branching", "--L", "4", "--tol", "-1")
    assert (code, out) == (2, "")
    assert "tol must be nonnegative" in err


def test_command_tables_agree():
    # a subcommand has a parser, a handler and a record schema, and every
    # optional-field entry names a command
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_HANDLERS) == set(_SCHEMAS)
    assert set(_OPTIONAL) <= set(_HANDLERS)


# every API that takes a node budget: a call on C4 at a given budget, and
# the CLI command that hands its --budget to it
_BUDGETED = {
    "sandwich_values": (lambda g, b: sandwich_values(g, 0, HARDCORE, [1.0], 3, budget=b),
                        ("hc-marginal", "--lam", "1", "--depth", "3")),
    "marginal_adaptive hc": (lambda g, b: marginal_adaptive(g, 0, hardcore(1.0), budget=b),
                             ("hc-marginal", "--lam", "1")),
    "marginal_adaptive md": (lambda g, b: marginal_adaptive(g, 0, monomerdimer(1.0), budget=b),
                             ("md-marginal", "--gamma", "1")),
    "partition_hc": (lambda g, b: partition_hc(g, 1.0, 0.01, budget=b), ("hc-count", "--lam", "1")),
    "partition_md": (lambda g, b: partition_md(g, 1.0, 0.01, budget=b), ("md-count", "--gamma", "1")),
    "conn_profile": (lambda g, b: conn_profile(g, 3, budget=b), ("conn-const", "--lmax", "3")),
}


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("api", sorted(_BUDGETED))
def test_budget_below_1_is_a_usage_error(capsys, c4_path, api, budget):
    # a budget below 1 is a usage error, not a run out of budget
    call, argv = _BUDGETED[api]
    with pytest.raises(ValueError, match="budget must be positive"):
        call(gen_graph("cycle", n=4), budget)
    code, out, err = run_cli(capsys, *argv, "--graph", c4_path, "--budget", str(budget))
    assert (code, out) == (2, "")
    assert "budget must be positive" in err


def test_huge_hard_core_activity_runs(capsys, tmp_path):
    # at lambda 1e32 the root of lambda_c(t) = lambda lies below float
    # resolution above 1; the count still completes, with its advisory
    path = tmp_path / "g.edges"
    path.write_text(graph_to_edge_list(graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])))
    code, out, err = run_cli(capsys, "hc-count", "--graph", str(path), "--lam", "1e32")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    validate_record(rec)
    assert rec["converged"] is True
    assert "decay factor bound 2 >= 1" in rec["advisory"]
    code, out, err = run_cli(capsys, "decay-table", "--model", "hardcore", "--lam", "1e32",
                             "--delta", "3", "--format", "json")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    validate_record(rec)
    assert rec["rows"][0]["supercritical"] is True


def test_malformed_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    code, _, err = run_cli(capsys, "md-count", "--graph", str(bad), "--gamma", "1")
    assert code == 2
    assert "self-loop" in err


def test_budget_failure_emits_partial(capsys, c4_path):
    code, out, _ = run_cli(
        capsys, "md-count", "--graph", c4_path, "--gamma", "1",
        "--budget", "2",
    )
    assert code == 1
    rec = json.loads(out)
    validate_record(rec)
    assert rec["converged"] is False
    assert rec["failed_vertex"] == 0
    assert rec["lo"] <= 7.0 <= rec["hi"]
    # a fixed-depth marginal that runs out keeps the a-priori bracket
    code, out, _ = run_cli(
        capsys, "hc-marginal", "--graph", c4_path, "--lam", "1",
        "--depth", "3", "--budget", "2",
    )
    assert code == 1
    rec = json.loads(out)
    validate_record(rec)
    assert rec["converged"] is False
    assert (rec["lo"], rec["hi"], rec["depth"], rec["nodes"]) == (0.0, 1.0, 0, 3)


def test_adaptive_budget_failure_keeps_the_a_priori_bracket(capsys, c4_path):
    # an adaptive marginal that runs out after its depth-0 pass reports
    # that pass's pins narrowed by the a-priori bracket, as a fixed-depth
    # one that completes no pass does: a monomer probability at a vertex
    # of degree 2 is at least 1/(1 + gamma*2)
    for extra in ((), ("--depth", "3")):
        code, out, _ = run_cli(
            capsys, "md-marginal", "--graph", c4_path, "--gamma", "1",
            "--vertex", "0", "--budget", "1", "--format", "json", *extra,
        )
        assert code == 1
        rec = json.loads(out)
        validate_record(rec)
        assert rec["converged"] is False
        assert (rec["lo"], rec["hi"], rec["depth"]) == (0.333333333333, 1.0, 0)
    # the hard-core a-priori bracket is the pins' own (0, lambda)
    code, out, _ = run_cli(
        capsys, "hc-marginal", "--graph", c4_path, "--lam", "1",
        "--vertex", "0", "--budget", "1", "--format", "json",
    )
    assert code == 1
    rec = json.loads(out)
    validate_record(rec)
    assert (rec["lo"], rec["hi"], rec["depth"], rec["nodes"]) == (0.0, 1.0, 0, 1)


def test_output_deterministic(capsys, c4_path):
    args = ("hc-count", "--graph", c4_path, "--lam", "0.5", "--eps", "0.05")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_validate_record_rejects_bad_records():
    with pytest.raises(ValueError):
        validate_record({"command": "md-count", "config": {}})
    with pytest.raises(ValueError):
        validate_record({"command": "bogus", "config": {}})
    with pytest.raises(ValueError):
        validate_record([1, 2])


def test_printed_bounds_round_outward(capsys, tmp_path):
    # 12 printed digits round a bound's upper end up and its lower end down
    for memory in range(2, 13, 2):
        for pruning in ("none", "weitz"):
            code, out, _ = run_cli(capsys, "z2-branching", "--L", str(memory),
                                   "--pruning", pruning, "--format", "json")
            assert code == 0
            bm = z2_branching_matrix(memory, pruning=pruning)
            assert json.loads(out)["eigenvalue"] >= spectral_bound(bm)
    g = gen_graph("gnp", n=12, d=3.0, seed=2)
    path = tmp_path / "g.edges"
    path.write_text(graph_to_edge_list(g))
    for cmd, flag, partition in (("hc-count", "--lam", partition_hc),
                                 ("md-count", "--gamma", partition_md)):
        code, out, _ = run_cli(capsys, cmd, "--graph", str(path), flag, "0.7")
        assert code == 0
        rec = json.loads(out)
        res = partition(g, 0.7, 0.01)
        assert rec["lo"] <= res.lo and rec["hi"] >= res.hi
        assert rec["log_lo"] <= res.log_lo and rec["log_hi"] >= res.log_hi


def test_count_beyond_float_range_emits_logs(capsys, tmp_path):
    # Z = 2^1050 and 3^1050 overflow a float: the record keeps the logs and
    # leaves out value, lo and hi
    path = tmp_path / "edges.edges"
    path.write_text(graph_to_edge_list(
        graph_from_edges(2100, [(2 * i, 2 * i + 1) for i in range(1050)])))
    for cmd, flag, log_z in (("md-count", "--gamma", 727.8045395879),
                             ("hc-count", "--lam", 1153.5429031015)):
        code, out, _ = run_cli(capsys, cmd, "--graph", str(path), flag, "1")
        assert code == 0
        rec = json.loads(out)
        validate_record(rec)
        assert not {"value", "lo", "hi"} & rec.keys()
        assert rec["log_lo"] <= log_z <= rec["log_hi"]
        rec["lo"] = "1e999"
        with pytest.raises(ValueError, match="lo"):
            validate_record(rec)
