import json
import math
import re
import shlex
from pathlib import Path

from sawcount.cli import build_parser, main, validate_record

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs_under_default_budgets():
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    res, z = ns["res"], ns["z"]
    assert res.hi - res.lo <= 2e-6
    assert z.converged
    assert math.log(z.hi / z.lo) <= 0.01


def _cli_block():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sawcount ")]


def _default_format(argv):
    return build_parser().parse_args(argv).format


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block, in order (the graph files
    # of the first commands feed the later ones); each record passes the
    # shipped validator, and a command whose default output is text is
    # run once more with --format json for its record
    monkeypatch.chdir(tmp_path)
    commands = _cli_block()
    assert len(commands) == 9
    runs = []
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        if _default_format(argv) == "text":
            assert main(argv + ["--format", "json"]) == code
            out = capsys.readouterr().out
        record = json.loads(out)
        validate_record(record)
        runs.append((argv[0], code, record))
    # two commands on gnp(2000, 3, 1) run out of their default budget of
    # 10^7 nodes per marginal and emit a partial record; ROADMAP item 2
    # flips these asserts once they converge under the default budgets
    assert [cmd for cmd, code, _ in runs if code != 0] == ["md-count", "hc-marginal"]
    for cmd, code, record in runs:
        if code != 0:
            assert code == 1
            assert record["converged"] is False
            assert record["nodes"] > 10**7
