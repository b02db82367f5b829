"""Monte Carlo driver: aggregation, reproducibility, scenario files."""

import json
from pathlib import Path

import numpy as np
import pytest

import greglink.harness as harness
from greglink.errors import NumericalError, ValidationError
from greglink.harness import (
    ESTIMATOR_ORDER,
    MonteCarloSummary,
    ScenarioConfig,
    parse_scenario_text,
    run_scenario,
    se_drift,
    summarize_to_table,
    summary_csv_rows,
)

SMALL = dict(n_population=400, sample_size=60, replicates=60,
             link_share=(0.5, 0.3, 0.2), match_rate=0.7, correct_best_rate=0.6,
             best_link_weight=0.5, sigma=1.0, gamma=0.0, seed=77)

# summary rows of SMALL from the one-replicate-at-a-time engine, which called
# greg / sub_greg / sls_greg / ht_total per replicate and estimator
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_summaries.json")
                    .read_text(encoding="utf-8"))
GOLDEN_REL = 1e-12  # reordered floating-point sums, as in perfbench/checks.py


def test_run_scenario_bitwise_reproducible():
    cfg = ScenarioConfig(name="a", **SMALL)
    s1 = run_scenario(cfg)
    s2 = run_scenario(cfg)
    assert s1.truth == s2.truth
    for e1, e2 in zip(s1.estimators, s2.estimators):
        assert e1 == e2


def test_run_scenario_worker_invariance():
    cfg = ScenarioConfig(name="a", **SMALL)
    sequential = run_scenario(cfg, workers=1)
    parallel = run_scenario(cfg, workers=2)
    for e1, e2 in zip(sequential.estimators, parallel.estimators):
        assert e1 == e2


@pytest.mark.parametrize("key, extra", [("small", {}),
                                        ("small_redraw", {"redraw_linkage": True})])
def test_summaries_match_golden_fixture(key, extra):
    cfg = ScenarioConfig(name=key, **SMALL, **extra)
    rows = summary_csv_rows(run_scenario(cfg))
    golden = GOLDEN[key]
    assert [row[:2] for row in rows] == [tuple(row[:2]) for row in golden]
    for (metric, tag, value), (_, _, expected) in zip(rows, golden):
        assert value == pytest.approx(expected, rel=GOLDEN_REL, abs=0), (metric, tag)


def test_near_deterministic_population_collapses_regression_variance():
    cfg = ScenarioConfig(name="det", n_population=400, sample_size=50,
                         replicates=80, sigma=1e-12, seed=5,
                         estimators=("ht", "ideal"))
    summary = run_scenario(cfg)
    assert summary.get("ht").se > 0
    assert summary.get("ideal").re == pytest.approx(0.0, abs=1e-12)


def test_ht_only_run_has_unit_ratios():
    cfg = ScenarioConfig(name="htonly", estimators=("ht",), **SMALL)
    summary = run_scenario(cfg)
    est = summary.get("ht")
    assert est.re == 1.0
    assert est.rmse == 1.0


def test_replicate_minimum():
    with pytest.raises(ValidationError, match="replicates"):
        ScenarioConfig(name="bad", n_population=100, sample_size=10, replicates=1)


def test_unknown_estimator_rejected():
    with pytest.raises(ValidationError, match="unknown estimators"):
        ScenarioConfig(name="bad", n_population=100, sample_size=10,
                       replicates=10, estimators=("ht", "mystery"))


def test_failed_replicates_counted(monkeypatch):
    calls = {"n": 0}
    original = harness.sub_greg_batch

    def flaky(*args, **kwargs):
        fit = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 1:
            values = fit.values.copy()
            values[0] = np.nan  # forced failure of one replicate
            fit = fit._replace(values=values)
        return fit

    monkeypatch.setattr(harness, "sub_greg_batch", flaky)
    cfg = ScenarioConfig(name="flaky", estimators=("ht", "sub"),
                         **{**SMALL, "replicates": 150})
    summary = run_scenario(cfg)
    assert summary.get("sub").failures == 1
    assert summary.get("ht").failures == 0


def test_failure_threshold_aborts(monkeypatch):
    original = harness.sub_greg_batch

    def broken(*args, **kwargs):
        fit = original(*args, **kwargs)
        return fit._replace(values=np.full_like(fit.values, np.nan))

    monkeypatch.setattr(harness, "sub_greg_batch", broken)
    cfg = ScenarioConfig(name="broken", estimators=("ht", "sub"), **SMALL)
    with pytest.raises(NumericalError, match="failed in"):
        run_scenario(cfg)


@pytest.mark.parametrize("replicates", [2, harness.REPLICATE_CHUNK - 1,
                                        harness.REPLICATE_CHUNK,
                                        harness.REPLICATE_CHUNK + 1,
                                        2 * harness.REPLICATE_CHUNK + 3])
def test_chunk_boundaries_worker_invariance(replicates):
    cfg = ScenarioConfig(name="chunks", **{**SMALL, "replicates": replicates})
    sequential = run_scenario(cfg, workers=1)
    parallel = run_scenario(cfg, workers=2)
    assert sequential.estimators == parallel.estimators
    assert all(est.failures == 0 for est in sequential.estimators)


def test_redraw_linkage_runs_and_differs():
    cfg_fixed = ScenarioConfig(name="fixed", **SMALL)
    cfg_redraw = ScenarioConfig(name="redraw", redraw_linkage=True, **SMALL)
    fixed = run_scenario(cfg_fixed)
    redraw = run_scenario(cfg_redraw)
    assert fixed.get("sri-q").variance != redraw.get("sri-q").variance


def test_empty_estimator_list_gives_empty_table():
    cfg = ScenarioConfig(name="empty", estimators=(), **SMALL)
    summary = run_scenario(cfg)
    assert summary.estimators == ()
    table = summarize_to_table([summary])
    assert "empty" in table
    assert summary_csv_rows(summary) == []


def test_table_column_order_and_metrics():
    cfg = ScenarioConfig(name="order", **SMALL)
    summary = run_scenario(cfg)
    table = summarize_to_table([summary])
    header = next(line for line in table.splitlines() if "HT" in line)
    labels = header.split()[1:]
    assert labels == ["HT", "Ideal", "Sub", "PI-m", "PI-q", "SBL", "SRI-q", "SLS"]
    for metric in ("SE", "ESE", "RE", "RMSE"):
        assert any(line.startswith(metric) for line in table.splitlines())
    rows = summary_csv_rows(summary)
    assert ("RE", "ht", 1.0) in rows


def test_se_drift_groups_blocks():
    base = {**SMALL, "replicates": 50}
    s1 = run_scenario(ScenarioConfig(name="b1", **base))
    s2 = run_scenario(ScenarioConfig(name="b2", **{**base, "seed": 78,
                                                   "match_rate": 0.9,
                                                   "correct_best_rate": 0.9}))
    drift = se_drift([s1, s2])
    assert len(drift) == 1
    per_est = next(iter(drift.values()))
    assert set(per_est) == {"ht", "ideal"}
    assert per_est["ht"] >= 0
    assert se_drift([s1]) == {}


SCENARIO_TEXT = """\
# a pair of blocks
name = first
population = 400
sample = 60
replicates = 50
p1 = 0.5
p2 = 0.3
p3 = 0.2
match_rate = 0.7
correct_best_rate = 0.6
q = 0.5
sigma = 1.0
gamma = 0.0
seed = 77
target = mean
estimators = ht,ideal,sri-q

name = second
population = 400
sample = 60
replicates = 50
seed = 78
"""


def test_parse_scenario_text_blocks():
    configs = parse_scenario_text(SCENARIO_TEXT, source="inline")
    assert [c.name for c in configs] == ["first", "second"]
    assert configs[0].estimators == ("ht", "ideal", "sri-q")
    assert configs[0].link_share == (0.5, 0.3, 0.2)
    assert configs[1].estimators == ESTIMATOR_ORDER
    assert configs[1].seed == 78


def test_parse_scenario_unknown_key_names_line():
    bad = "population = 10\nsample = 2\nreplicates = 5\nbogus = 3\n"
    with pytest.raises(ValidationError, match=r"inline:4.*bogus"):
        parse_scenario_text(bad, source="inline")


def test_parse_scenario_bad_value_names_line():
    bad = "population = ten\nsample = 2\nreplicates = 5\n"
    with pytest.raises(ValidationError, match=r"inline:1.*population"):
        parse_scenario_text(bad, source="inline")


def test_parse_scenario_missing_required():
    with pytest.raises(ValidationError, match="missing required key"):
        parse_scenario_text("population = 10\nsample = 2\n", source="inline")


def test_parse_scenario_duplicate_key():
    bad = "population = 10\npopulation = 12\nsample = 2\nreplicates = 5\n"
    with pytest.raises(ValidationError, match="duplicate key"):
        parse_scenario_text(bad, source="inline")


def test_mse_decomposition_identity():
    # MSE = (K-1)/K * variance + squared bias, by the chosen conventions
    cfg = ScenarioConfig(name="mse", estimators=("ht", "sri-q"), **SMALL)
    summary = run_scenario(cfg)
    k = cfg.replicates
    for est in summary.estimators:
        bias = est.mean - summary.truth
        assert est.mse == pytest.approx(
            (k - 1) / k * est.variance + bias**2, rel=1e-12)


def test_run_scenario_from_parsed_config():
    configs = parse_scenario_text(SCENARIO_TEXT, source="inline")
    summary = run_scenario(configs[0])
    assert isinstance(summary, MonteCarloSummary)
    assert summary.get("sri-q").se > 0
    assert {e.estimator for e in summary.estimators} == {"ht", "ideal", "sri-q"}
