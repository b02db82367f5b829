"""Tests of the benchmark itself, at smoke size.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from greglink.harness import load_scenario_file  # noqa: E402
from perfbench import checks, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def smoke(workload: str, *args: str) -> tuple[dict, dict]:
    return run_bench("--workload", workload, "--smoke", *args)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_passes_reference_check_and_reports_every_metric(workload, trace):
    result, detail = smoke(workload, "--seed", str(workloads.DEFAULT_SEED), "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.accounted_share"]["value"] > 0.9


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_other_seed_checks_invariants(workload):
    result, detail = smoke(workload, "--seed", "3")
    assert result["correct"] and detail["failed_share"] == 0


def _perturbed_reference(workload: str) -> dict:
    payload = checks.load_reference(HERE / "reference" / "smoke", workload)
    if "blocks" in payload:
        row = next(iter(payload["blocks"].values()))[0]
        row[2] *= 1 + 1e-9
    else:
        payload["stdout"] = re.sub(r"point estimate: (\S+)",
                                   lambda m: f"point estimate: {float(m[1]) * 1.001:.6g}",
                                   payload["stdout"], count=1)
    return payload


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_perturbed_reference_is_caught(workload, tmp_path):
    reference = _perturbed_reference(workload)
    bench = workloads.make(workload, workloads.DEFAULT_SEED, True, reference, tmp_path)
    try:
        ops = bench.w1_round()
    finally:
        bench.close()
    assert any(op.problems for op in ops)
    assert all("reference" in p for op in ops for p in op.problems)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = [smoke(workload, "--seed", "5", "--trace", "1")[0]["metrics"] for _ in range(2)]
    counts = [{name: run[name]["value"] for name in COUNT_METRICS} for run in runs]
    assert counts[0] == counts[1]
    c = counts[0]
    if workload.startswith("mc_"):
        assert c["harness.estimator_evals"] == 8 * c["harness.replicates"] > 0
        assert c["estimators.greg.calls"] == 5 * c["harness.replicates"]
        assert c["linkage.LinkageStructure.restrict.calls"] == c["harness.replicates"]
        assert c["dataio.rows_read"] == c["dataio.bytes_read"] == 0
    else:
        assert c["harness.replicates"] == 0 and c["dataio.rows_read"] > 0


def test_text_comparison_tolerance():
    text = "point estimate: 3.43248\nz 0.296\n"
    assert checks.compare_text(text, text) == []
    assert checks.compare_text(text, text.replace("0.296", "0.297"))
    assert checks.compare_text(text, text.replace("point", "Point"))
    assert checks.close(1.0, 1.0 + 5e-13) and not checks.close(1.0, 1.0 + 1e-11)


def test_estimate_invariants_flag_missing_and_non_finite_output():
    good = "".join(f"estimator: {e}\npoint estimate: 1.5\n\n" for e in workloads.FILE_ESTIMATORS)
    assert checks.estimate_problems(0, good, workloads.FILE_ESTIMATORS) == []
    assert checks.estimate_problems(1, good, workloads.FILE_ESTIMATORS)
    assert checks.estimate_problems(0, good.replace("1.5", "nan"), workloads.FILE_ESTIMATORS)
    assert checks.estimate_problems(0, good.split("\n\n", 1)[1], workloads.FILE_ESTIMATORS)


def test_table_blocks_match_bundled_scenarios():
    size = workloads.SIZES["mc_tables"][0]
    for block in workloads.TABLE_BLOCKS:
        bundled = load_scenario_file(ROOT / "scenarios" / f"{block}.scenario")[0]
        ours = workloads.block_config(block, size, workloads.DEFAULT_SEED, block)
        assert ours == bundled


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
