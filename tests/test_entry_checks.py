"""Every check at which bad input enters the library: one row of
``ENTRY_REJECTIONS`` each, as ``test_cli.REJECTIONS`` has one per command-line
rejection."""

import functools
import re

import numpy as np
import pytest

from greglink.design import (Estimate, Sample, SurveyDesign, draw_srswor, exact_design_moments,
                             rng_stream, scale_to_target)
from greglink.errors import NumericalError, ValidationError
from greglink.estimators import (DIAGNOSTIC_KINDS, ESTIMATORS, UnitInputs, build_estimators,
                                 consistency_diagnostics, diagnose_unit_inputs,
                                 fit_unit_inputs, link_sums, npa_covariances,
                                 wls_coefficients)
from greglink.harness import ScenarioConfig, parse_scenario_text, run_scenario
from greglink.linkage import (AuxDatabase, Population, WeightScheme, WeightSumError,
                              build_linkage, link_values, multiplicity_weights,
                              reverse_weights_best_link, weighted_sums)
from greglink.synthpop import (LinkageModel, PopulationModel, gen_linkage, gen_pi_q_weights,
                               proportional_counts)
from support import (EXAMPLE_LINKS, EXAMPLE_X, fit_at, greg_fit, perfect_linkage_setting,
                     sample_linkage)

HT = UnitInputs("ht")
DESIGN = SurveyDesign(4, 2)
BLOCK = "population = 10\nsample = 2\nreplicates = 5\n"  # a scenario's required keys
CHOOSE = "choose from ht, ideal, sub, pi-m, pi-q, sbl, sri-q, sls, pi, sri"


def example_links():
    """The population links of ``support.EXAMPLE_LINKS``: 9 links of 6 units."""
    return build_linkage(EXAMPLE_LINKS, 6, AuxDatabase.from_values(EXAMPLE_X))


def example_weights(kind, values=None, first=()):
    """``values`` (1/m by default), the first of them ``first``, as ``kind`` weights."""
    links = example_links()
    values = multiplicity_weights(links).values.copy() if values is None else values
    values[:len(first)] = first
    return WeightScheme(kind=kind, linkage=links, values=values)


def example_estimator(tag, **kwargs):
    """The inputs of ``tag`` over the example links."""
    return build_estimators([tag], example_links(), AuxDatabase.from_values(EXAMPLE_X),
                            **kwargs)[0]


def fit_a_missing_response(rule):
    sample = draw_srswor(10, 3, rng_stream(3, 0))
    x, y = np.array([[0.1], [0.5], [0.9]]), np.array([1.0, np.nan, 3.0])
    sub = UnitInputs("sub", (x, np.ones(3, dtype=bool)), np.array([0.5]), np.array([1.0, 2.0]))
    return (greg_fit(x, np.array([5.0]), y, sample) if rule == "regression"
            else fit_at(sub, y, sample, covered=sample.ids))


def overflowing(kind, q=0.4):
    """``kind``'s rows, or the ``link_sums``, and the auxiliary file of four
    units whose record values' sums, products and squares overflow."""
    aux = AuxDatabase.from_values([1e308, -1e308, 1e308, 3.0])
    linkage = build_linkage([(0, 0), (1, 1), (2, 2), (2, 3), (3, 3)], 4, aux)
    if kind == "link_sums":
        return link_sums(linkage, aux), aux
    (inputs,) = build_estimators([kind], linkage, aux, best=np.array([0, 1, 2, 3]), q=q)
    return inputs.rows[0], aux


def diagnose(kind, units=None):
    """The ``kind`` diagnostic over a perfectly linked sample's link sums at
    ``units`` (all by default), or over three ``overflowing`` units."""
    if units == "overflow":
        rows, aux = overflowing("link_sums" if kind == "sls" else kind)
        return consistency_diagnostics(rows[np.array([[0, 1, 2]])], np.full((1, 3), 0.5), aux,
                                       SurveyDesign(4, 3), kind)
    _, _, aux, linkage, sample = perfect_linkage_setting(seed=23)
    rows = link_sums(sample_linkage(linkage, sample.ids)[0], aux)[units or slice(None)]
    return consistency_diagnostics(rows[None], sample.pi[None], aux, sample.design, kind)


def npa_of(case):
    """``npa_covariances`` of sample links, of another linkage's scheme, or of
    one auxiliary record too many."""
    links = build_linkage([(0, 0), (1, 1)], [0, 1], 6) if case == "sample" else example_links()
    scheme = (reverse_weights_best_link(links, np.array([0, 1]), 0.5) if case == "sample"
              else multiplicity_weights(example_links() if case == "foreign" else links))
    npa_covariances(links, scheme, AuxDatabase.from_values(np.arange(7 if case == "size" else 6)))


def pi_q_weights(q, covered=20):
    """PI-q weights over one-one links of 20 records; of sample scope for ids."""
    units = range(covered) if isinstance(covered, int) else covered
    gen_pi_q_weights(build_linkage([(i, i) for i in units], covered, 20), np.arange(20), q,
                     rng_stream(11, 1))


def row(case, call, message, error=ValidationError):
    """A row of ``ENTRY_REJECTIONS``: ``call()`` raises ``error`` itself, not
    a subclass, whose ``str`` is ``message``: exact text, or a compiled
    regular expression that matches it in full."""
    return pytest.param(call, error, message, id=case)


def calls(prefix, function, *cases):
    """One row per ``(case, args, message[, error])``, calling ``function(*args)``."""
    return [row(prefix + case, functools.partial(function, *args), *rest)
            for case, args, *rest in cases]


def config_row(case, message, **fields):
    fields = {"name": "bad", "n_population": 100, "sample_size": 10, "replicates": 20, **fields}
    return row(case, lambda: ScenarioConfig(**fields), message)


ENTRY_REJECTIONS = [
    # design: the population, the sample and its estimate, the oracle's guard
    *(row(f"srswor_rejects_bad_sizes-{n}", lambda n=n: draw_srswor(4, n, rng_stream(0, 0)),
          f"sample size {n} outside 1..4") for n in (5, 0)),
    # unit ids are int64; N = 10**200 overflowed a float in the variance
    *calls("design_population_", SurveyDesign,
           ("must_be_at_least_1", (0, 0), "population size must be at least 1"),
           *((f"is_below_2_63-{label}", (n, 2), f"population size {n} is not below 2**63")
             for label, n in (("2**63", 2**63), ("10**200", 10**200)))),
    *calls("sample_rejects_", Sample,
           ("non_finite_inclusion_probabilities", ([0, 2], [0.5, np.nan], DESIGN),
            "inclusion probabilities must lie in (0, 1]"),
           ("size_other_than_design-3", ([0, 2, 4], [0.5] * 3, SurveyDesign(10, 5)),
            "sample has 3 units but the design's sample size is 5"),
           ("size_other_than_design-0", ([], [], SurveyDesign(10, 5)),
            "sample has 0 units but the design's sample size is 5"),
           ("ids_and_pi_of_two_lengths", ([0, 2], [0.5] * 3, DESIGN),
            "ids and pi must be 1-d arrays of equal length"),
           ("repeated_ids", ([2, 2], [0.5] * 2, DESIGN), "sample contains repeated unit ids"),
           ("ids_outside_the_frame", ([0, 4], [0.5] * 2, DESIGN), "sample ids outside 0..N-1")),
    *calls("estimate_rejects_", Estimate,
           ("an_unknown_target", (1.0, None, "ht", "Total"), "unknown target 'Total'"),
           ("a_negative_variance", (1.0, -1.0, "ht"), "variance estimate must be nonnegative")),
    row("scale_to_target_rejects_an_unknown_target",
        lambda: scale_to_target(1.0, 1.0, "Total", 4), "unknown target 'Total'"),
    row("ht_rejects_missing_values", lambda: fit_at(HT, np.array([1.0, np.nan]), Sample(
        [0, 2], [0.5, 0.5], DESIGN)), "missing or non-finite value for a sampled unit"),
    row("enumeration_guard", lambda: exact_design_moments(np.zeros(30), 15),
        "C(30,15) exceeds the enumeration guard of 1000000", NumericalError),
    # linkage: the auxiliary file, the population, the links and their weights
    row("aux_rejects_a_matrix_without_records", lambda: AuxDatabase(np.empty((0, 1))),
        "auxiliary matrix must be (n_records, dim>=1)"),
    row("aux_rejects_non_finite_values", lambda: AuxDatabase.from_values([1.0, np.inf]),
        "auxiliary values must be finite"),
    row("population_rejects_no_values", lambda: Population(np.empty(0)),
        "population values must be a nonempty 1-d array"),
    row("records_of_rejects_an_uncovered_unit", lambda: example_links().records_of(6),
        "unit 6 is not covered by this linkage"),
    *calls("build_rejects_", build_linkage,
           ("an_empty_link_set", ([], 3, 3), "empty link set"),
           ("no_covered_units", ([(0, 0)], [], 3), "no covered units"),
           ("a_negative_unit_id", ([(-1, 0)], [-1], 3), "unit ids must be nonnegative"),
           ("uncovered_unit", ([(0, 0), (2, 1)], 3, 3), "unit 1 has no links"),
           ("duplicate_link", ([(0, 0), (0, 0), (1, 1), (2, 2)], 3, 3),
            "duplicate link (0, 0)"),
           ("dangling_record", ([(0, 0), (1, 5), (2, 2)], 3, 3),
            "link references nonexistent record 5"),
           ("link_outside_covered_units", ([(0, 0), (4, 1)], [0, 1], 3),
            "link references uncovered unit 4")),
    *calls("weight_scheme_rejects_", example_weights,
           ("an_unknown_kind", ("Reverse",), "unknown weight kind 'Reverse'"),
           ("one_weight_too_few", ("reverse", np.ones(8)), "need exactly one weight per link"),
           *((f"non_finite_values-{kind}-{case}", (kind, None, first), "weights must be finite")
             for kind in ("incidence", "reverse")
             for case, first in (("inf", [0.5, np.inf]), ("nan", [np.nan] * 9))),
           *((f"weights_outside_0_1-{case}", ("reverse", None, [value]),
              "weights must lie in [0, 1]") for case, value in (("below", -0.5), ("above", 1.5)))),
    *calls("", example_weights,
           *((f"weight_sum_errors_print_plain_numbers-{kind}", (kind, np.full(9, 0.5)),
              f"{kind} weights for {side} sum to 0.5, not 1", WeightSumError)
             for kind, side in (("incidence", "record 4"), ("reverse", "unit 0"))),
           # the sum starts from 0.0, so it prints 0.0 where -0.0 + -0.0 printed -0.0
           ("reverse_weights_of_negative_zero_sum_to_zero", ("reverse", None, [-0.0, -0.0]),
            "reverse weights for unit 0 sum to 0.0, not 1", WeightSumError)),
    # checked where every weight scheme is built, after the weights
    row("multiplicity_weights_require_population_scope",
        lambda: multiplicity_weights(build_linkage([(1, 1), (2, 2)], [1, 2], 6)),
        "incidence weights require population links"),
    # the first unit whose best link is missing is the one named
    *calls("reverse_weights_validation-",
           lambda links, best, q=0.4: reverse_weights_best_link(
               build_linkage(links, sorted({u for u, _ in links}), 3), np.array(best), q),
           ("not-among-links", ([(0, 0), (0, 1)], [2]),
            "best link 2 of unit 0 is not among its links"),
           ("first-missing", ([(0, 0), (1, 1), (1, 2), (2, 0)], [0, 0, 1]),
            "best link 0 of unit 1 is not among its links"),
           *((f"q-{q}", ([(0, 0), (0, 1)], [0], q), f"q must lie in (0, 1], got {q}")
             for q in (0.0, 1.2)),
           ("align", ([(0, 0), (1, 1), (1, 2), (2, 0)], [0, 1]),
            "best links must align with the covered units")),
    row("link_values_reject_an_auxiliary_database_of_another_size",
        lambda: link_values(example_links(), AuxDatabase.from_values(np.arange(3.0))),
        "auxiliary database does not match the linkage"),
    row("derive_covariates_rejects_foreign_scheme", lambda: weighted_sums(
        example_links(), multiplicity_weights(example_links()), np.ones((9, 1))),
        "weight scheme was built for a different linkage"),
    # synthpop: the population and linkage models and their draws
    *calls("population_model_validation-", PopulationModel,
           ("no-units", (0,), "population must have at least 1 unit"),
           ("sigma", (10, 0.0), "sigma must be positive and finite, got 0.0"),
           ("gamma", (10, 1.5, 1.5), "gamma must lie in [0, 1]"),
           ("2**63", (2**63,), f"population size {2**63} is not below 2**63")),
    *calls("linkage_model_validation-", LinkageModel,
           ("two-shares", ((0.5, 0.5), 0.5, 0.5),
            "link shares must be three numbers in [0, 1], got (0.5, 0.5)"),
           ("sum", ((0.5, 0.2, 0.2), 0.6, 0.6),
            "link shares must sum to 1, got 0.9"),
           ("sum-near-one", ((0.5, 0.25, 0.2500001), 0.6, 0.6),
            "link shares must sum to 1, got 1.0000001"),
           ("match-rate", ((0.5, 0.25, 0.25), 0.3, 0.3),
            "match rate 0.3 outside [0.5, 1] (every single-link unit is matched)"),
           ("correct-best", ((0.2, 0.4, 0.4), 0.5, 0.6),
            "correct-best rate 0.6 outside [0.2, 0.5]"),
           ("best-link-weight", ((0.2, 0.4, 0.4), 0.4, 0.4, 0.0),
            "best-link weight must lie in (0, 1]")),
    row("proportional_counts_rejects_a_negative_share",
        lambda: proportional_counts(2, (-0.5, 0.5, 1.0)),
        "shares (-0.5, 0.5, 1.0) produce negative counts at n=2"),
    # of two units, both single-link (the largest share takes the rounding
    # remainder), one is matched, or correctly best-linked; of three, one has
    # three links and no match
    *calls("gen_linkage_rejects_", lambda n, *model: gen_linkage(n, LinkageModel(*model),
                                                                 rng_stream(0, 0)),
           ("fewer_matches_than_single_links", (2, (0.5, 0.25, 0.25), 0.5, 0.5),
            "match rate 0.5 inconsistent with 2 single-link units"),
           ("fewer_correct_best_links_than_single_links", (2, (0.5, 0.25, 0.25), 1.0, 0.5),
            "correct-best rate 0.5 inconsistent with the match counts"),
           ("more_false_links_than_other_records", (3, (0.2, 0.4, 0.4), 0.4, 0.4),
            "a unit can need 3 distinct false links, but only 2 other records exist"),
           ("an_empty_population", (0, (0.2, 0.4, 0.4), 0.4, 0.4),
            "population must have at least 1 unit")),
    *calls("pi_q_weights_", pi_q_weights,
           *((f"validation-{q}", (q,), f"q must lie in (0, 1], got {q}") for q in (0.0, 1.2)),
           ("require_population_scope", (0.4, [0, 1]),
            "incidence weights require population links")),
    # harness: a block's parameters, its replicates and the scenario text
    config_row("replicate_minimum", "need at least 2 replicates", replicates=1),
    config_row("scenario_config_rejects_a_negative_seed", "seed must be nonnegative, got -1",
               seed=-1),
    *(config_row(f"sample_size_must_leave_units_out-{n}", f"sample size {n} outside 2..99",
                 sample_size=n) for n in (0, 1, 100, 101)),
    config_row("scenario_config_rejects_an_unknown_target", "unknown target 'Total'",
               target="Total"),
    # the link counts are checked with the block, before any draw: of five
    # units, three are single-link (the largest share takes the rounding
    # remainder); of three, one has three links and may have no match
    *(config_row(f"scenario_config_checks_the_link_counts-{case}", message, n_population=n,
                 sample_size=2, link_share=share, match_rate=match, correct_best_rate=best)
      for case, n, share, match, best, message in (
          ("matches", 5, (0.5, 0.25, 0.25), 0.5, 0.5,
           "match rate 0.5 inconsistent with 3 single-link units"),
          ("correct-best", 5, (0.5, 0.25, 0.25), 0.7, 0.5,
           "correct-best rate 0.5 inconsistent with the match counts"),
          ("false-links", 3, (0.2, 0.4, 0.4), 0.4, 0.4,
           "a unit can need 3 distinct false links, but only 2 other records exist"),
          # one of the three multi-link units is unmatched, and two of them
          # have three links: some draws could be made, others not
          ("false-links-in-some-draws", 3, (0.0, 1 / 3, 2 / 3), 0.67, 0.4,
           "a unit can need 3 distinct false links, but only 2 other records exist"))),
    config_row("unknown_estimator_rejected", "unknown estimator 'mystery'; choose from ht, "
               "ideal, sub, pi-m, pi-q, sbl, sri-q, sls", estimators=("ht", "mystery")),
    config_row("scenario_config_rejects_a_repeated_estimator", "repeated estimator 'ht'",
               estimators=("ht", "sub", "ht")),
    # three single-link units, so a sample of 5 rarely holds the 2 that sub needs
    row("run_scenario_rejects_an_estimator_that_fails_too_often",
        lambda: run_scenario(ScenarioConfig("x", 50, 5, 2, (0.06, 0.47, 0.47),
                                            estimators=("ht", "sub"))),
        "estimator sub failed in 2 of 2 replicates", NumericalError),
    *calls("parse_scenario_", lambda text: parse_scenario_text(text, source="inline"),
           ("rejects_a_line_without_a_value", (f"{BLOCK}seed\n",),
            "inline:4: expected 'key = value', got 'seed'"),
           ("unknown_key_names_line", (f"{BLOCK}bogus = 3\n",),
            "inline:4: unknown scenario key 'bogus'"),
           # PI-q draws its record-side weights with the block's q
           ("rejects_q_incidence", (f"{BLOCK}q_incidence = 0.3\n",),
            "inline:4: unknown scenario key 'q_incidence'"),
           ("bad_value_names_line", (BLOCK.replace("10", "ten"),),
            "inline:1: bad value for 'population': 'ten'"),
           ("missing_required", ("population = 10\nsample = 2\n",),
            "inline: block 1 is missing required key 'replicates'"),
           ("duplicate_key", (f"population = 12\n{BLOCK}",),
            "inline:2: duplicate key 'population'"),
           # --out writes one CSV per block name, so the later block overwrote
           # the earlier; a default name collides with an explicit one too
           *((f"rejects_a_repeated_block_name-{'-'.join(map(str, names))}",
              ("\n".join(BLOCK if name is None else f"name = {name}\n{BLOCK}" for name in names),),
              f"inline: block {block} repeats the name {name!r} of block 1")
             for names, block, name in ((("a", "a"), 2, "a"), (("a", "b", "a"), 3, "a"),
                                        ((None, "block1"), 2, "block1"),
                                        (("block2", None), 2, "block2"))),
           # simulate --out writes <prefix>_<name>.csv, so a separator left the
           # prefix directory
           *((f"rejects_a_name_that_is_no_file_name-{name}",
              (f"name = ok\n{BLOCK}\nname = {name}\n{BLOCK}",),
              f"inline: block 2: name {name!r} cannot be part of a file name")
             for name in ("a/b", "../escaped", "a\\b", ".", "..", ""))),
    # estimators: the least-squares engine, the estimator table and its fits
    *calls("wls_rejects_", wls_coefficients,
           ("collinear_columns", ([[1, 0, 0], [1, 1, 2], [1, 2, 4], [1, 3, 6]], [0, 1, 2, 3],
                                  np.ones(4)),
            re.compile(r"normal-equation matrix is singular \(reciprocal condition "
                       r"\d\.\d\de[-+]\d\d\); columns \[1, 2\] are collinear"), NumericalError),
           ("a_matrix_that_overflowed", ([[np.inf], [1.0]], np.ones(2), np.ones(2)),
            "normal-equation matrix is not finite", NumericalError),
           ("underdetermined", (np.ones((1, 2)), [1.0], [1.0]),
            "need at least 2 observations, got 1"),
           ("covariates_of_one_dimension", (np.ones(3), np.ones(3), np.ones(3)),
            "covariates must be a 2-d array"),
           ("responses_of_another_length", (np.ones((3, 1)), np.ones(2), np.ones(3)),
            "responses and weights must align with covariates")),
    # the subsample rule over the sampled units, with fixed coefficients
    *(row(f"regression_estimators_reject_non_finite_responses-{rule}",
          lambda rule=rule: fit_a_missing_response(rule),
          "missing or non-finite value for a sampled unit") for rule in ("regression", "sub")),
    # the subsample rule read any target other than "total" as the mean
    *(row(f"every_rule_rejects_an_unknown_target-{tag}", lambda tag=tag: fit_unit_inputs(
        example_estimator(tag, best=np.array([1, 1, 2, 2, 5, 5]), q=0.4, y=EXAMPLE_X),
        np.array([[0, 2, 3]]), np.ones((1, 3)), np.full((1, 3), 0.5), SurveyDesign(6, 3),
        "Total"), "unknown target 'Total'") for tag in ESTIMATORS),
    # sbl without best links gave one row of every record, on which the fit
    # raised IndexError; sub raised TypeError on the missing responses
    *calls("build_estimators_rejects_", example_estimator,
           ("a_rule_without_its_input-sbl", ("sbl",), "estimator 'sbl' needs best links"),
           ("a_rule_without_its_input-sub", ("sub",),
            "estimator 'sub' needs responses to fit its coefficients")),
    row("build_estimators_rejects_a_subsample_too_small_to_fit",
        lambda: build_estimators(["sub"], build_linkage([(0, 0), (0, 1), (1, 1)], 2, 2),
                                 AuxDatabase.from_values([0.1, 0.2]), y=np.ones(2)),
        "subsample too small: 1 single-link units for 2 model columns"),
    # both raised a bare KeyError: 'bogus'
    row("an_unknown_estimator_tag_is_a_validation_error-build",
        lambda: example_estimator("bogus"), f"unknown estimator 'bogus'; {CHOOSE}"),
    row("an_unknown_estimator_tag_is_a_validation_error-fit",
        lambda: fit_unit_inputs(UnitInputs("bogus"), np.array([[0, 1]]), np.ones((1, 2)),
                                np.full((1, 2), 2 / 3), SurveyDesign(3, 2)),
        f"unknown estimator 'bogus'; {CHOOSE}"),
    # finite responses whose expansion overflows gave inf with a warning
    row("strict_fit_rejects_an_estimate_that_overflows",
        lambda: fit_unit_inputs(HT, np.array([[0, 1]]), np.full((1, 2), 1e308),
                                np.full((1, 2), 0.5), DESIGN, strict=True),
        "ht estimate is not finite (value inf, variance inf)", NumericalError),
    # numpy broadcast the one response over both sampled units: ht gave value
    # 4.0 with a NaN variance
    *(row(f"fit_needs_one_shape_of_positions_responses_and_pi-{case}",
          lambda y=y, pi=pi: fit_unit_inputs(HT, np.array([[0, 2]]), y, pi, DESIGN, strict=True),
          "sample positions, responses and inclusion probabilities must share one shape, "
          f"got (1, 2), {shapes}")
      for case, y, pi, shapes in (
          ("one-response", np.array([[1.0]]), np.full((1, 2), 0.5), "(1, 1) and (1, 2)"),
          ("unstacked-pi", np.ones((1, 2)), np.array([0.5, 0.5]), "(1, 2) and (2,)"))),
    row("strict_sls_fit_rejects_fewer_links_than_columns", lambda: fit_unit_inputs(
        example_estimator("sls"), np.array([[0]]), np.ones((1, 1)), np.full((1, 1), 1 / 6),
        SurveyDesign(6, 1), strict=True), "need at least 2 links, got 1"),
    # finite record values whose products overflow gave infinite aggregates
    # with numpy's overflow warning
    row("link_set_aggregates_that_overflow_name_the_estimator",
        lambda: overflowing("sls", q=0.7), "sls link-set aggregates are not finite: sums "
        "or products of the auxiliary record values overflow", NumericalError),
    *calls("npa_rejects_", npa_of,
           ("sample_scope", ("sample",), "informativeness covariances need population links"),
           ("a_foreign_scheme", ("foreign",), "weight scheme was built for a different linkage"),
           # 202 records for a linkage over 200 raised IndexError: boolean
           # index did not match indexed array
           ("an_auxiliary_database_of_another_size", ("size",),
            "auxiliary database does not match the linkage")),
    # the link sums carry the degree column that a covariate lacks, and
    # without their last unit they no longer align with the sample
    *calls("diagnostics_", diagnose,
           ("kind_validation-nope", ("nope",), "unknown diagnostic kind 'nope'"),
           ("kind_validation-sri", ("sri",), "sri diagnostic rows must align with the sample"),
           ("kind_validation-sls", ("sls", slice(None, -1)),
            "sls diagnostic rows must align with the sample"),
           # finite rows whose squared deviations overflow gave a finite value
           # with z -0.0 (sri) and numpy's overflow warnings
           *((f"whose_spread_overflows_name_the_statistic-{kind}", (kind, "overflow"),
              f"{kind} consistency diagnostic is not finite: sums or squares of its per-unit "
              "contributions overflow", NumericalError) for kind in DIAGNOSTIC_KINDS)),
    # a rule without a diagnostic has no rows to test
    row("diagnose_unit_inputs_rejects_a_rule_without_a_diagnostic",
        lambda: diagnose_unit_inputs(HT, np.array([[0, 1]]), np.full((1, 2), 0.5),
                                     AuxDatabase.from_values(EXAMPLE_X[:4]), DESIGN),
        "estimator 'ht' has no consistency diagnostic"),
]


@pytest.mark.parametrize("call, error, message", ENTRY_REJECTIONS)
def test_library_call_is_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    if isinstance(message, re.Pattern):
        assert message.fullmatch(str(info.value)), str(info.value)
    else:
        assert str(info.value) == message
