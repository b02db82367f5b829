"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    value, se = (float(v) for v in capsys.readouterr().out.split())
    estimate, population = namespace["estimate"], namespace["population"]
    assert (value, se) == (estimate.value, estimate.se)
    assert estimate.target == "mean" and se > 0
    assert abs(value - population.mean) < 4 * se
