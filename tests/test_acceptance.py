"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The three reference scenario blocks run once at desk scale (2000 replicates,
seed 15) and are shared across the metric criteria. Run with ``pytest -s``
to see the per-criterion lines.
"""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from greglink.design import (
    SurveyDesign,
    draw_srswor,
    exact_design_moments,
    ht_total_batch,
    replicate_ids,
    rng_stream,
)
from greglink.estimators import (
    build_estimators,
    diagnose_unit_inputs,
    greg_batch,
)
from greglink.harness import ScenarioConfig, load_scenario_file, run_scenario
from greglink.linkage import (
    INCIDENCE,
    AuxDatabase,
    WeightScheme,
    build_linkage,
    multiplicity_weights,
    reverse_weights_best_link,
)
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population
from support import fit_at, sample_linkage

SEED = 15
MAIN = dict(n_population=5000, sample_size=100, replicates=2000,
            sigma=1.5, gamma=0.0, seed=SEED, target="mean")

SCENARIOS = {
    "table1_block1": dict(link_share=(0.2, 0.4, 0.4), match_rate=0.4,
                          correct_best_rate=0.4, best_link_weight=0.4),
    "table2_block2": dict(link_share=(0.2, 0.4, 0.4), match_rate=0.8,
                          correct_best_rate=0.8, best_link_weight=0.7),
    "table3_block3": dict(link_share=(0.8, 0.1, 0.1), match_rate=0.98,
                          correct_best_rate=0.98, best_link_weight=0.9),
}

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# the full parameter grid of the three reference tables
TABLE_GRID = load_scenario_file(SCENARIO_DIR / "tables_full.scenario")


@pytest.fixture(scope="module")
def table_runs():
    return {name: run_scenario(ScenarioConfig(name=name, **MAIN, **kw))
            for name, kw in SCENARIOS.items()}


def test_bundled_scenarios_match_acceptance_configs():
    # the shipped scenario files drive exactly the configurations the
    # criteria below assert on, and repeat their blocks of the full grid
    grid = {config.name: config for config in TABLE_GRID}
    assert len(grid) == len(TABLE_GRID) == 10
    for name, kw in SCENARIOS.items():
        configs = load_scenario_file(SCENARIO_DIR / f"{name}.scenario")
        assert len(configs) == 1
        expected = ScenarioConfig(name=name, **MAIN, **kw)
        assert configs[0] == expected
        assert grid[name] == expected


class Report:
    def __init__(self, title: str):
        self.title = title
        self.lines: list[str] = []
        self.ok = True

    def check(self, label: str, value: float, lo: float, hi: float) -> None:
        good = lo <= value <= hi
        self.ok = self.ok and good
        mark = "ok" if good else "FAIL"
        self.lines.append(f"    {label}: {value:.4f} in [{lo:g}, {hi:g}] {mark}")

    def check_flag(self, label: str, good: bool) -> None:
        self.ok = self.ok and good
        self.lines.append(f"    {label}: {'ok' if good else 'FAIL'}")

    def finish(self) -> None:
        print(f"\n{self.title}: {'PASS' if self.ok else 'FAIL'}")
        for line in self.lines:
            print(line)
        assert self.ok, f"{self.title} failed:\n" + "\n".join(self.lines)


def _re(run, tag):
    return run.get(tag).re


def test_criterion_1_low_quality_block(table_runs):
    run = table_runs["table1_block1"]
    report = Report("criterion 1: low-linkage-quality block metrics")
    report.check("HT SE", run.get("ht").se, 0.204 - 0.010, 0.204 + 0.010)
    report.check("Ideal RE", _re(run, "ideal"), 0.525 - 0.030, 0.525 + 0.030)
    report.check("SRI-q RE", _re(run, "sri-q"), 0.939 - 0.035, 0.939 + 0.035)
    report.check("SBL RE", _re(run, "sbl"), 0.930 - 0.035, 0.930 + 0.035)
    report.check("SLS RE", _re(run, "sls"), 0.968 - 0.035, 0.968 + 0.035)
    report.check("PI-m RE", _re(run, "pi-m"), 1.00 - 0.025, 1.00 + 0.025)
    report.check("PI-q RE", _re(run, "pi-q"), 1.00 - 0.025, 1.00 + 0.025)
    report.check("Sub RE", _re(run, "sub"), 2.60 - 0.35, 2.60 + 0.35)
    report.finish()


def test_criterion_2_high_coverage_block(table_runs):
    run = table_runs["table2_block2"]
    report = Report("criterion 2: high-match-coverage block metrics")
    report.check("SRI-q RE", _re(run, "sri-q"), 0.716 - 0.035, 0.716 + 0.035)
    report.check("SBL RE", _re(run, "sbl"), 0.694 - 0.035, 0.694 + 0.035)
    report.check("PI-q RE", _re(run, "pi-q"), 0.872 - 0.035, 0.872 + 0.035)
    report.check("SLS RE", _re(run, "sls"), 0.861 - 0.035, 0.861 + 0.035)
    report.finish()


def test_criterion_3_high_quality_block(table_runs):
    run = table_runs["table3_block3"]
    report = Report("criterion 3: high-linkage-quality block metrics")
    report.check("SBL RE", _re(run, "sbl"), 0.547 - 0.03, 0.547 + 0.03)
    report.check("SRI-q RE", _re(run, "sri-q"), 0.548 - 0.03, 0.548 + 0.03)
    report.check("Ideal RE", _re(run, "ideal"), 0.526 - 0.03, 0.526 + 0.03)
    report.check("Sub RE", _re(run, "sub"), 0.667 - 0.04, 0.667 + 0.04)
    report.finish()


def test_criterion_4_variance_estimators_track(table_runs):
    report = Report("criterion 4: ESE/SE within 5% for every estimator")
    for name, run in table_runs.items():
        for est in run.estimators:
            report.check(f"{name} {est.label} ESE/SE", est.ese / est.se,
                         0.95, 1.05)
    report.finish()


def test_criterion_5_bias_negligible(table_runs):
    report = Report("criterion 5: |RMSE - RE| within 0.01 for sample-link estimators")
    for name, run in table_runs.items():
        for tag in ("sbl", "sri-q", "sls"):
            est = run.get(tag)
            report.check(f"{name} {est.label} |RMSE-RE|",
                         abs(est.rmse - est.re), 0.0, 0.01)
    report.finish()


def test_reference_standard_errors(table_runs):
    # spot values from the reference tables not covered by the numbered
    # criteria: the matched-data estimator's mean-target ESE, the subsample
    # estimator's SE at both single-link shares, and the reverse-weight
    # estimator's SE in the low-quality block
    report = Report("reference: table standard errors")
    run1 = table_runs["table1_block1"]
    run3 = table_runs["table3_block3"]
    report.check("Ideal ESE (mean target)", run1.get("ideal").ese, 0.136, 0.156)
    report.check("Sub SE at one-fifth single links", run1.get("sub").se,
                 0.30, 0.37)
    report.check("Sub SE at four-fifths single links", run3.get("sub").se,
                 0.15, 0.18)
    report.check("SRI-q SE in the low-quality block", run1.get("sri-q").se,
                 0.188, 0.208)
    report.finish()


def test_criterion_6_exact_oracle_suite():
    report = Report("criterion 6: exact enumeration identities")
    for n_population in (6, 8, 10):
        x, population = gen_population(PopulationModel(n_units=n_population),
                                       rng_stream(100 + n_population, 0))
        y = population.y
        for n in (2, 3):
            moments = exact_design_moments(y, n)
            report.check(
                f"N={n_population} n={n} |E[est]-truth|/|truth|",
                abs(moments.expectation - y.sum()) / abs(y.sum()), 0.0, 1e-10)
            report.check(
                f"N={n_population} n={n} |E[varest]-var|/var",
                abs(moments.expected_variance_estimate - moments.variance)
                / moments.variance, 0.0, 1e-10)

            # intercept-only regression estimator equals the plain expansion
            # estimator on every enumerated sample, all fitted as one stack
            ids = np.array(list(combinations(range(n_population), n)))
            design = SurveyDesign(n_population, n)
            pi = np.full(ids.shape, design.f)
            ht = ht_total_batch(y[ids], pi, design).values
            est = greg_batch(np.ones(ids.shape + (1,)), y[ids], pi,
                             np.array([float(n_population)]), design).values
            worst = np.max(np.abs(est - ht) / np.abs(ht))
            report.check(f"N={n_population} n={n} max intercept-only gap", worst,
                         0.0, 1e-10)
    report.finish()


def test_criterion_7_perfect_linkage_reduction():
    report = Report("criterion 7: perfect one-one linkage collapses the family")
    worst = 0.0
    instances = 1000
    for i in range(instances):
        rng = rng_stream(2000 + i, 0)
        n_population = int(rng.integers(10, 51))
        n = int(rng.integers(4, max(5, n_population // 2 + 1)))
        x = rng.uniform(size=n_population)
        y = 1 + 5 * x + rng.normal(0, 0.5, n_population)
        aux = AuxDatabase.from_values(x)
        identity = np.arange(n_population)
        linkage = build_linkage(np.column_stack([identity, identity]),
                                n_population, aux)
        sample = draw_srswor(n_population, n, rng)
        y_s = y[sample.ids]
        reverse = reverse_weights_best_link(linkage, identity, 0.4)
        ideal = fit_at(build_estimators(["ideal"], linkage, aux)[0], y_s, sample).value

        # population scope: built over the population links and gathered at
        # the sample, as the harness fits them; the unique link is the best
        values = [fit_at(build_estimators([tag], linkage, aux, weights, identity)[0],
                         y_s, sample).value
                  for tag, weights in (("pi-m", multiplicity_weights(linkage).values),
                                       ("sbl", None), ("sri-q", reverse.values),
                                       ("sls", reverse.values))]
        # sample scope: built over the sample's own links with its responses,
        # as `greglink estimate` fits them
        sub_linkage, keep = sample_linkage(linkage, sample.ids)
        values += [fit_at(build_estimators([tag], sub_linkage, aux, reverse.values[keep],
                                           y=y[sub_linkage.covered_units])[0],
                          y_s, sample, covered=sub_linkage.covered_units).value
                   for tag in ("sri-q", "sls", "sub")]
        worst = max(worst, *(abs(value - ideal) / abs(ideal) for value in values))
    report.check(f"max relative gap over {instances} instances", worst,
                 0.0, 1e-10)
    report.finish()


def test_criterion_8_weight_constraint_suite():
    report = Report("criterion 8: weight constraints across the table grid")
    n_population, n = 500, 50
    draws_per_config = 100
    worst_incidence = worst_reverse = worst_calibration = 0.0
    counts_exact = True
    rng_master = 0
    for config in TABLE_GRID:
        model = config.linkage_model()
        for i in range(draws_per_config):
            rng_master += 1
            x, population = gen_population(PopulationModel(n_units=n_population),
                                           rng_stream(rng_master, 0))
            aux = AuxDatabase.from_values(x)
            matched, linkage, best = gen_linkage(n_population, model,
                                                 rng_stream(rng_master, 1))

            counts_exact &= len(matched) == round(n_population * config.match_rate)
            correct_best = sum(
                1 for unit, record in zip(matched.tolist(), matched.tolist())
                if best[unit] == record)
            counts_exact &= correct_best == round(
                n_population * config.correct_best_rate)
            counts_exact &= all(
                best[u] in linkage.records_of(int(u))
                for u in range(0, n_population, 37))

            reverse = reverse_weights_best_link(linkage, best,
                                                config.best_link_weight)
            unit_sums = np.add.reduceat(reverse.values, linkage._unit_ptr[:-1])
            worst_reverse = max(worst_reverse,
                                float(np.abs(unit_sums - 1.0).max()))
            from greglink.synthpop import gen_pi_q_weights
            incidence = WeightScheme(INCIDENCE, linkage, gen_pi_q_weights(
                linkage, matched, 0.35, rng_stream(rng_master, 2)))
            record_sums = np.bincount(linkage.link_records,
                                      weights=incidence.values,
                                      minlength=n_population)
            linked = linkage.multiplicities > 0
            worst_incidence = max(worst_incidence,
                                  float(np.abs(record_sums[linked] - 1.0).max()))

            # calibration identity of the table's reverse-weighted estimator,
            # built over the sample's own links
            sample = draw_srswor(n_population, n, rng_stream(rng_master, 3))
            sub_linkage, keep = sample_linkage(linkage, sample.ids)
            covered = sub_linkage.covered_units
            (inputs,) = build_estimators(["sri-q"], sub_linkage, aux, reverse.values[keep])
            covariate = inputs.rows[0][np.searchsorted(covered, sample.ids), 0]
            # the fit is linear in y: its weights calibrate when the fits of
            # the covariate and of y = 1 give the covariate total and N
            target = n_population * aux.mean[0]
            gap = abs(fit_at(inputs, covariate, sample, covered=covered).value
                      - target) / abs(target)
            size = fit_at(inputs, np.ones(n), sample, covered=covered).value
            gap = max(gap, abs(size - n_population) / n_population)
            worst_calibration = max(worst_calibration, gap)

    report.check("max |incidence weight sum - 1|", worst_incidence, 0.0, 1e-12)
    report.check("max |reverse weight sum - 1|", worst_reverse, 0.0, 1e-12)
    report.check("max relative calibration gap", worst_calibration, 0.0, 1e-8)
    report.check_flag("match and best-link counts exact", counts_exact)
    report.finish()


def _rejections(linkage, reverse, best, aux, key, replicates):
    """Per diagnostic, the samples among ``replicates`` SRSWOR draws of 100
    units, stream ``key``, whose largest |z| exceeds 1.96. Each estimator's
    inputs are built once over the population links, and its diagnostic is
    taken by ``diagnose_unit_inputs`` on the rows its fit gathers at every
    sample, as ``estimate`` takes it; link sums are local to each unit, so
    they equal the rows over the sample's own links."""
    n_population, n = aux.n_records, 100
    design = SurveyDesign(n_population, n)
    ids = replicate_ids(n_population, n, SEED, (key,), range(replicates))
    pi = np.full(ids.shape, design.f)
    built = build_estimators(["sri", "sbl", "sls"], linkage, aux, reverse.values, best)
    return {inputs.tag: int(np.sum(np.max(np.abs(diagnose_unit_inputs(
                inputs, ids, pi, aux, design).z), axis=-1) > 1.96))
            for inputs in built}


def test_criterion_9_diagnostics_calibration():
    report = Report("criterion 9: consistency diagnostics calibrate and detect")
    n_population, replicates = 5000, 2000
    x, population = gen_population(PopulationModel(n_units=n_population,
                                                   sigma=1.5),
                                   rng_stream(SEED, 0))
    aux = AuxDatabase.from_values(x)
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.4,
                         correct_best_rate=0.4, best_link_weight=0.4)
    matched, linkage, best = gen_linkage(n_population, model,
                                         rng_stream(SEED, 1))
    reverse = reverse_weights_best_link(linkage, best, 0.4)

    rejections = _rejections(linkage, reverse, best, aux, 9, replicates)
    for kind in ("sri", "sbl", "sls"):
        report.check(f"{kind} rejection rate under the neutral generator",
                     rejections[kind] / replicates, 0.03, 0.07)

    # adversarial linkage: every unit gains a false link drawn from the
    # top quarter of records by value, flagged as best; all three
    # statistics should blow up. A unit that draws its own record draws
    # again, so every later unit takes its draw one further on.
    rng = rng_stream(SEED, 10)
    top_quarter = np.argsort(x)[3 * n_population // 4:]
    identity = np.arange(n_population)
    draws = top_quarter[rng.integers(len(top_quarter), size=n_population)]
    skipped = np.zeros(n_population, dtype=np.int64)
    while np.any(own := draws[identity + skipped] == identity):
        skipped[np.argmax(own):] += 1
        draws = np.append(draws, top_quarter[rng.integers(len(top_quarter))])
    best_adv = draws[identity + skipped]
    adv_linkage = build_linkage(
        np.column_stack([np.tile(identity, 2), np.concatenate([identity, best_adv])]),
        n_population, aux)
    adv_reverse = reverse_weights_best_link(adv_linkage, best_adv, 0.4)

    adv_replicates = 300
    adv_rejections = _rejections(adv_linkage, adv_reverse, best_adv, aux, 11,
                                 adv_replicates)
    for kind in ("sri", "sbl", "sls"):
        report.check(f"{kind} rejection rate under the biased generator",
                     adv_rejections[kind] / adv_replicates, 0.80, 1.0)
    report.finish()
