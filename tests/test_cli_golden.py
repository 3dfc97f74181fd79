"""Every subcommand's output and exit code, frozen byte for byte.

Each case runs `sawcount` in a fresh directory holding two graphs, C4
(`c4.edges`) and gnp(30, 3, seed 7) (`gnp30.edges`), and compares
stdout, stderr and the exit code with `cli_golden.json`.  The cases
cover the JSON record of every command, the text output of every
command whose default is text, budget failures and usage errors.

After a deliberate change of output, rewrite the expected values with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of `tests/cli_golden.json`.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from sawcount.cli import main
from sawcount.graph import gen_graph, graph_to_edge_list

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

CASES = {
    # gen: text to stdout, a confirmation line or a record with --out
    "gen-cycle": "gen --kind cycle --n 4",
    "gen-dary": "gen --kind dary_tree --d 2 --depth 2",
    "gen-grid-out": "gen --kind grid --width 3 --height 2 --out grid.edges",
    "gen-gnp-json": "gen --kind gnp --n 30 --d 3 --seed 7 --out g.edges --format json",
    # counts: C4 and gnp(30, 3, 7), and a budget failure
    "hc-count-c4": "hc-count --graph c4.edges --lam 1",
    "md-count-c4": "md-count --graph c4.edges --gamma 1",
    "hc-count-gnp": "hc-count --graph gnp30.edges --lam 0.5 --eps 0.05",
    "md-count-gnp": "md-count --graph gnp30.edges --gamma 1 --eps 0.05",
    "hc-count-advisory-text": "hc-count --graph gnp30.edges --lam 1 --eps 0.5 --format text",
    "md-count-budget": "md-count --graph c4.edges --gamma 1 --budget 2",
    # marginals: fixed depth, adaptive, and budget failures of both
    "hc-marginal-depth": "hc-marginal --graph c4.edges --lam 1 --depth 3",
    "md-marginal-depth": "md-marginal --graph gnp30.edges --gamma 1 --vertex 3 --depth 4",
    "hc-marginal-adaptive": "hc-marginal --graph gnp30.edges --lam 0.5 --vertex 3",
    "md-marginal-adaptive": "md-marginal --graph c4.edges --gamma 1 --tol 1e-8",
    "md-marginal-text": "md-marginal --graph c4.edges --gamma 2 --format text",
    "md-marginal-budget": "md-marginal --graph c4.edges --gamma 1 --budget 1",
    "hc-marginal-depth-budget": "hc-marginal --graph c4.edges --lam 1 --depth 3 --budget 2",
    # a depth-0 pass and a fixed depth with no pass completed: both [1/3, 1]
    "md-marginal-depth0": "md-marginal --graph c4.edges --gamma 1 --depth 0",
    "md-marginal-depth-budget": "md-marginal --graph c4.edges --gamma 1 --depth 3 --budget 1",
    # decay tables of both models
    "decay-hc-text": "decay-table --model hardcore --lam 1 --delta 3 --delta 6",
    "decay-hc-json": "decay-table --model hardcore --lam 1 --delta 3 --delta 6 --format json",
    "decay-md-text": "decay-table --model monomerdimer --gamma 1 --delta 2 --delta 5",
    "decay-md-json": "decay-table --model monomerdimer --gamma 1 --delta 2 --format json",
    # walk counts: complete, sampled and out of budget
    "conn-const-text": "conn-const --graph gnp30.edges --lmax 6",
    "conn-const-json": "conn-const --graph gnp30.edges --lmax 6 --format json",
    "conn-const-sample": "conn-const --graph gnp30.edges --lmax 5 --roots 5 --seed 3 --format json",
    "conn-const-budget": "conn-const --graph gnp30.edges --lmax 6 --budget 300 --format json",
    # walk automata at memory 4 and 6, and one over its state cap
    "z2-4-text": "z2-branching --L 4",
    "z2-4-json": "z2-branching --L 4 --format json",
    "z2-6-text": "z2-branching --L 6 --pruning none --ordering uniform",
    "z2-6-json": "z2-branching --L 6 --no-merge --format json",
    "z2-cap": "z2-branching --L 6 --state-cap 10",
    # the lattice table
    "lattice-text": "lattice-bounds",
    "lattice-json": "lattice-bounds --format json",
    # exact oracle of both models
    "oracle-md-z": "oracle --model monomerdimer --graph c4.edges --gamma 1",
    "oracle-hc-vertex": "oracle --model hardcore --graph c4.edges --lam 1 --vertex 0",
    "oracle-md-vertex": "oracle --model monomerdimer --graph c4.edges --gamma 2 --vertex 1",
    "oracle-hc-text": "oracle --model hardcore --graph c4.edges --lam 0.5 --format text",
    # usage errors: the message and exit code 2
    "err-decay-no-lam": "decay-table --model hardcore --delta 2",
    "err-oracle-no-gamma": "oracle --model monomerdimer --graph c4.edges",
    "err-gen-gnp-no-d": "gen --kind gnp --n 5",
    "err-gen-cycle-no-n": "gen --kind cycle",
    "err-gen-dary-no-depth": "gen --kind dary_tree --d 2",
    "err-gen-grid-no-height": "gen --kind grid --width 2",
    "err-missing-graph": "md-count --graph missing.edges --gamma 1",
    "err-lam-inf": "hc-marginal --graph c4.edges --lam inf --depth 3",
}


def _setup(workdir):
    for name, g in (("c4.edges", gen_graph("cycle", n=4)),
                    ("gnp30.edges", gen_graph("gnp", n=30, d=3, seed=7))):
        (workdir / name).write_text(graph_to_edge_list(g))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # one list entry per line, so that a change reads as a line diff
    return {"code": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_frozen(case, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _setup(tmp_path)
    assert _run(CASES[case].split()) == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    cwd = os.getcwd()
    results = {}
    for case, line in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            _setup(Path(tmp))
            results[case] = _run(line.split())
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
