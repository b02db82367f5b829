"""Output checks: stored references at the default seed, invariants at every seed.

Numbers are compared at a relative 1e-12, the tolerance the roadmap allows for
reordered floating-point sums; all other text must match exactly.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")
_ESTIMATOR_LINE = re.compile(r"^estimator: (\S+)$", re.MULTILINE)


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def load_reference(directory: Path, workload: str) -> dict:
    return json.loads((directory / f"{workload}.json").read_text(encoding="utf-8"))


def write_reference(directory: Path, workload: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    (directory / f"{workload}.json").write_text(text, encoding="utf-8")


def summary_problems(summary, rows: list) -> list[str]:
    """Invariants of one Monte Carlo block: no estimator failures, finite values."""
    problems = [f"{est.estimator}: {est.failures} failed replicates"
                for est in summary.estimators if est.failures]
    problems += [f"{metric} {estimator} = {value!r} is not finite"
                 for metric, estimator, value in rows if not math.isfinite(value)]
    return problems


def compare_rows(rows: list, reference: list) -> list[str]:
    """(metric, estimator, value) rows against their stored reference."""
    if [r[:2] for r in rows] != [tuple(r[:2]) for r in reference]:
        return ["summary rows differ in metric or estimator from the reference"]
    return [f"{m} {e}: {v!r} != reference {ref[2]!r}"
            for (m, e, v), ref in zip(rows, reference) if not close(v, ref[2])]


def estimate_problems(code, stdout: str, estimators: tuple[str, ...]) -> list[str]:
    """Invariants of one ``greglink estimate`` call."""
    problems = []
    if code != 0:
        problems.append(f"estimate exited with {code!r}")
    printed = tuple(_ESTIMATOR_LINE.findall(stdout))
    if printed != estimators:
        problems.append(f"printed estimators {printed}, expected {estimators}")
    bad = [tok for tok in _NUMBER.findall(stdout) if not math.isfinite(float(tok))]
    if bad:
        problems.append(f"non-finite numbers in the output: {bad[:5]}")
    return problems


def compare_text(text: str, reference: str) -> list[str]:
    """Numbers at a relative 1e-12, every other character exactly."""
    if _NUMBER.split(text) != _NUMBER.split(reference):
        return ["output text differs from the reference"]
    numbers = zip(_NUMBER.findall(text), _NUMBER.findall(reference))
    return [f"{a} != reference {b}" for a, b in numbers if not close(float(a), float(b))]
