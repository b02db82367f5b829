"""Monte Carlo driver: aggregation, reproducibility, scenario files."""

import dataclasses
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import greglink.estimators as estimators
import greglink.harness as harness
from greglink.cli import build_file_estimators, estimate_from_inputs
from greglink.dataio import (
    assemble_estimation_inputs,
    write_aux_csv,
    write_links_csv,
    write_sample_csv,
)
from greglink.design import Sample, SurveyDesign, replicate_ids, rng_stream
from greglink.errors import NumericalError, ValidationError
from greglink.linkage import WeightScheme
from greglink.harness import (
    ESTIMATOR_ORDER,
    MonteCarloSummary,
    ScenarioConfig,
    load_scenario_file,
    parse_scenario_text,
    run_scenario,
    summarize_to_table,
    summary_csv_rows,
)
from greglink.synthpop import (
    aux_from_population,
    gen_linkage,
    gen_pi_q_weights,
    gen_population,
)

SMALL = dict(n_population=400, sample_size=60, replicates=60,
             link_share=(0.5, 0.3, 0.2), match_rate=0.7, correct_best_rate=0.6,
             best_link_weight=0.5, sigma=1.0, gamma=0.0, seed=77)

# summary rows of SMALL from the one-replicate-at-a-time engine, which fitted
# each replicate and estimator through a single-sample wrapper
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


def test_single_chunk_runs_without_a_pool(monkeypatch):
    cfg = ScenarioConfig(name="one_chunk", **{**SMALL, "replicates": 25})
    sequential = summary_csv_rows(run_scenario(cfg, workers=1))

    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk must not start a thread pool")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    assert summary_csv_rows(run_scenario(cfg, workers=2)) == sequential


@pytest.mark.parametrize("workers", [1, 2])
def test_error_in_a_chunk_surfaces_unchanged(monkeypatch, workers):
    # the second chunk holds the last 7 replicates, so only its batches have 7 rows
    original = estimators.sub_greg_batch

    def fails_in_second_chunk(x, *args, **kwargs):
        if x.shape[0] == 7:
            raise ValidationError("sub fit rejected chunk 2")
        return original(x, *args, **kwargs)

    monkeypatch.setattr(estimators, "sub_greg_batch", fails_in_second_chunk)
    cfg = ScenarioConfig(name="chunk_error", estimators=("ht", "sub"),
                         **{**SMALL, "replicates": harness.REPLICATE_CHUNK + 7})
    with pytest.raises(ValidationError) as info:
        run_scenario(cfg, workers=workers)
    assert type(info.value) is ValidationError
    assert str(info.value) == "sub fit rejected chunk 2"


@pytest.mark.parametrize("key, extra", [("small", {})])
def test_summaries_match_golden_fixture(key, extra):
    cfg = ScenarioConfig(name=key, **SMALL, **extra)
    rows = summary_csv_rows(run_scenario(cfg))
    golden = GOLDEN[key]
    assert [row[:2] for row in rows] == [tuple(row[:2]) for row in golden]
    for (metric, tag, value), (_, _, expected) in zip(rows, golden):
        assert value == pytest.approx(expected, rel=GOLDEN_REL, abs=0), (metric, tag)


def test_bundled_tables_match_their_full_precision_fixture():
    # every value that `greglink simulate scenarios/tables_full.scenario
    # --k 300 --out res` wrote to its per-block CSV files before the design
    # matrix was built column by column; tables_full_k30.txt pins these blocks
    # only to the 6 significant digits of stdout
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "tests" / "data" / "tables_full_k300.json")
                        .read_text(encoding="utf-8"))
    configs = load_scenario_file(root / "scenarios" / "tables_full.scenario")
    assert [c.name for c in configs] == list(golden)
    for cfg in configs:
        rows = summary_csv_rows(run_scenario(dataclasses.replace(cfg, replicates=300)))
        assert [row[:2] for row in rows] == [tuple(row[:2]) for row in golden[cfg.name]]
        for (metric, tag, value), (_, _, expected) in zip(rows, golden[cfg.name]):
            assert value == pytest.approx(expected, rel=GOLDEN_REL, abs=0), \
                (cfg.name, metric, tag)


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


def test_total_target_scales_the_mean_target_by_n():
    # the estimates are the same fits on the total scale, so truth, SE and
    # ESE scale by N and the ratios RE and RMSE do not move
    mean, total = (run_scenario(ScenarioConfig(name=target, target=target, **SMALL))
                   for target in ("mean", "total"))
    n_population = SMALL["n_population"]
    assert total.truth == pytest.approx(n_population * mean.truth, rel=1e-12, abs=0)
    for est_mean, est_total in zip(mean.estimators, total.estimators, strict=True):
        assert est_total.estimator == est_mean.estimator
        for field in ("se", "ese"):
            assert getattr(est_total, field) == pytest.approx(
                n_population * getattr(est_mean, field), rel=1e-12, abs=0)
        for field in ("re", "rmse"):
            assert getattr(est_total, field) == pytest.approx(
                getattr(est_mean, field), rel=1e-12, abs=0)


def test_q_of_1_runs_with_sri_q_equal_to_sbl():
    # the pi-q weight draw alone demanded q < 1, so such a block drew its
    # population and linkage and then failed; at q = 1 the reverse weights
    # are the best-link indicator, so SRI-q's rows are SBL's, bit for bit
    summary = run_scenario(ScenarioConfig(name="q1", **{**SMALL, "best_link_weight": 1.0}))
    rows = {row.estimator: row for row in summary.estimators}
    assert set(rows) == set(ESTIMATOR_ORDER)
    assert dataclasses.replace(rows["sri-q"], estimator="sbl") == rows["sbl"]


def test_failed_replicates_counted(monkeypatch):
    calls = {"n": 0}
    original = estimators.sub_greg_batch

    def flaky(*args, **kwargs):
        fit = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 1:
            values = fit.values.copy()
            values[0] = np.nan  # forced failure of one replicate
            fit = fit._replace(values=values)
        return fit

    monkeypatch.setattr(estimators, "sub_greg_batch", flaky)
    cfg = ScenarioConfig(name="flaky", estimators=("ht", "sub"),
                         **{**SMALL, "replicates": 150})
    summary = run_scenario(cfg)
    assert summary.get("sub").failures == 1
    assert summary.get("ht").failures == 0
    # the table names the failing estimators only, by label, below the metrics
    assert summarize_to_table([summary]).splitlines()[-1] == "failed replicates: {'Sub': 1}"


def test_failure_threshold_aborts(monkeypatch):
    original = estimators.sub_greg_batch

    def broken(*args, **kwargs):
        fit = original(*args, **kwargs)
        return fit._replace(values=np.full_like(fit.values, np.nan))

    monkeypatch.setattr(estimators, "sub_greg_batch", broken)
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


def test_more_threads_than_cores_match_one_worker():
    # the threads share the block's inputs, so a chunk writing to them would
    # move other chunks' results; frequent switches make such a race show
    cfg = ScenarioConfig(name="threads",
                         **{**SMALL, "replicates": 4 * harness.REPLICATE_CHUNK + 3})
    sequential = run_scenario(cfg, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_scenario(cfg, workers=5)
    finally:
        sys.setswitchinterval(interval)
    assert parallel.estimators == sequential.estimators


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def reference_blocks():
    """The low- and the high-quality reference block: each config with the
    y, truth and per-estimator inputs the harness builds for it."""
    blocks = {}
    for name in ("table1_block1", "table3_block3"):
        (config,) = load_scenario_file(SCENARIO_DIR / f"{name}.scenario")
        assert config.estimators == ESTIMATOR_ORDER
        blocks[name] = (config, *harness._build_block(config))
    return blocks


@pytest.mark.parametrize("block", ["table1_block1", "table3_block3"])
def test_a_replicate_fits_alike_alone_and_in_its_chunk(reference_blocks, block):
    # a replicate's result depends only on its sample, not on the samples
    # fitted with it, so the chunk size is no parameter of any output bit
    config, y, _, inputs = reference_blocks[block]
    chunk = range(harness.REPLICATE_CHUNK)
    values, varests = harness._run_chunk(config, y, inputs, chunk)
    alone = [harness._run_chunk(config, y, inputs, range(k, k + 1)) for k in chunk]
    # equal, NaN positions included
    np.testing.assert_array_equal(values, np.concatenate([v for v, _ in alone]))
    np.testing.assert_array_equal(varests, np.concatenate([e for _, e in alone]))


# the file form of each harness estimator, by the link file it reads; ideal
# needs the matched records, which no file holds, and the file's sub fits its
# coefficients on the sample rather than on the population
FILE_FORMS = {"ht": ("ht", "links"), "pi-m": ("pi", "links"), "pi-q": ("pi", "pi_q_links"),
              "sbl": ("sbl", "links"), "sri-q": ("sri", "links"), "sls": ("sls", "links")}
NO_FILE_FORM = ("ideal", "sub")


@pytest.mark.parametrize("block", ["table1_block1", "table3_block3"])
def test_estimate_from_files_gives_the_harness_bits(reference_blocks, block, tmp_path):
    assert sorted([*FILE_FORMS, *NO_FILE_FORM]) == sorted(ESTIMATOR_ORDER)
    config, y, _, inputs = reference_blocks[block]
    # the block's auxiliary file, links and pi-q weights, from the harness's streams
    x, _ = gen_population(config.population_model(),
                          rng_stream(config.seed, harness._POP_KEY))
    matched, linkage, best = gen_linkage(config.n_population, config.linkage_model(),
                                         rng_stream(config.seed, harness._LINK_KEY))
    pi_q = WeightScheme("incidence", linkage, gen_pi_q_weights(
        linkage, matched, config.best_link_weight, rng_stream(config.seed, harness._WEIGHT_KEY)))
    write_aux_csv(tmp_path / "aux.csv", aux_from_population(x))
    write_links_csv(tmp_path / "links.csv", linkage, best_links=best)
    write_links_csv(tmp_path / "pi_q_links.csv", linkage, weights=pi_q.values)

    replicates = range(20)
    values, varests = harness._run_chunk(config, y, inputs, replicates)
    design = SurveyDesign(config.n_population, config.sample_size)
    ids = replicate_ids(config.n_population, config.sample_size, config.seed,
                        (harness._REPLICATE_KEY,), replicates)
    for k, sample_ids in enumerate(ids):
        sample = Sample(ids=sample_ids, pi=np.full(design.sample_size, design.f),
                        design=design)
        write_sample_csv(tmp_path / "sample.csv", sample, y[sample.ids])
        files = {links: assemble_estimation_inputs(
                     tmp_path / "sample.csv", tmp_path / "aux.csv", tmp_path / f"{links}.csv",
                     config.n_population)
                 for links in ("links", "pi_q_links")}
        for j, tag in enumerate(config.estimators):
            if tag in NO_FILE_FORM:
                continue
            estimator, links = FILE_FORMS[tag]
            est, _ = estimate_from_inputs(files[links], estimator, config.target,
                                          build_file_estimators(files[links], [estimator],
                                                                config.best_link_weight))
            assert (est.value, est.variance) == (values[k, j], varests[k, j]), (k, tag)


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


def test_table_cells_of_ten_or_more_characters_stay_apart():
    # at sigma = 0.01 Ideal's and Sub's SE and RE print 10 or 11 characters,
    # which ran into their neighbours in columns 10 wide:
    # "SE 0.1573430.0009859080.00226398 ..."
    (config,) = parse_scenario_text(
        "population = 2000\nsample = 100\nreplicates = 40\nsigma = 0.01\n")
    summary = run_scenario(config)
    assert max(len(f"{value:.6g}") for *_, value in summary_csv_rows(summary)) >= 10
    for line in summarize_to_table([summary]).splitlines()[2:]:
        assert len(line.split()) == 1 + len(config.estimators), line


def test_fits_without_residual_degrees_of_freedom_have_no_ese():
    # two sampled units leave a fit of 2 model columns no residual degrees of
    # freedom, so every regression estimator's variance is NaN: ESE read
    # 6.51654e-09 for Ideal and 1.11125e-13 for PI-m, and an all-NaN mean warned
    config = ScenarioConfig(name="two", n_population=50, sample_size=2, replicates=40,
                            estimators=("ht", "ideal", "pi-m", "sbl", "sri-q", "sls"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_scenario(config)
    assert [est.ese is None for est in summary.estimators] == [False] + [True] * 5
    assert [tag for metric, tag, _ in summary_csv_rows(summary) if metric == "ESE"] == ["ht"]
    ese = summarize_to_table([summary]).splitlines()[3].split()
    assert ese == ["ESE", f"{summary.get('ht').ese:.6g}", *["-"] * 5]


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


# traced numpy peak of one N = 100 000 set-up at K = 2: 34.8 MB before the
# link-set Gram was slimmed, one weight scheme kept alive at a time and the
# link sorts done in place; 26.0 MB after, plus a 15 % margin
SETUP_PEAK_BOUND_MB = 30.0


def test_setup_peak_memory_is_bounded():
    (config,) = load_scenario_file(Path(__file__).parent.parent / "scenarios"
                                   / "table1_block1.scenario")
    config = dataclasses.replace(config, n_population=100_000, replicates=2)
    tracemalloc.start()
    try:
        run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < SETUP_PEAK_BOUND_MB
