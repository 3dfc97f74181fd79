import math
import re
from pathlib import Path

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
