"""The benchmark recorder, bench/record.py, at smoke size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_record_writes_every_metric_with_its_spread_and_provenance(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "record.py"), "--label", "smoke",
         "--repeats", "1", "--smoke", "--workload", "mc_setup_large",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{tmp_path / 'BENCH_smoke.json'}\n"
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))

    assert set(record) == {"label", "provenance", "workloads", "workloads_one_arena",
                           "startup"}
    assert record["label"] == "smoke"
    assert set(record["provenance"]) == {"commit", "dirty", "nproc", "python", "numpy",
                                         "date", "command", "repeats", "seconds", "smoke"}
    assert record["provenance"]["command"] == spec["command"]
    assert record["provenance"]["repeats"] == 1 and record["provenance"]["smoke"] is True

    # the runs with MALLOC_ARENA_MAX=1 are summarised in the same shape
    for workloads in (record["workloads"], record["workloads_one_arena"]):
        assert list(workloads) == ["mc_setup_large"]
        summary = workloads["mc_setup_large"]
        assert set(summary) == {"metrics", "minor_faults", "slowdown", "correct",
                                "attempted", "failed", "runs"}
        assert summary["correct"] is True and summary["failed"] == 0
        assert summary["attempted"] > 0 and summary["slowdown"] > 0
        assert summary["minor_faults"]["median"] > 0
        assert list(summary["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        for metric in spec["end_to_end"]:
            spread = summary["metrics"][metric["name"]]
            assert spread["unit"] == metric["unit"]
            assert spread["q1"] <= spread["median"] <= spread["q3"]
            assert spread["median"] == summary["runs"][0]["metrics"][metric["name"]]
        assert len(summary["runs"]) == 1

    # start-up: the import alone, and each reference block's simulate
    assert list(record["startup"]) == ["import_cli", "simulate_table1_block1",
                                       "simulate_table2_block2", "simulate_table3_block3"]
    for spread in record["startup"].values():
        assert spread["unit"] == "s"
        assert 0 < spread["q1"] == spread["median"] == spread["q3"]
