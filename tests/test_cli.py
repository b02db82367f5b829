"""File ingestion and the command-line surface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greglink.cli as cli
import greglink.estimators as estimators
import greglink.harness as harness
from greglink.cli import (
    FILE_ESTIMATORS,
    _sample_diagnostics,
    build_file_estimators,
    estimate_from_inputs,
    main,
)
from greglink.dataio import (
    assemble_estimation_inputs,
    read_aux_csv,
    write_aux_csv,
    write_links_csv,
    write_sample_csv,
)
from greglink.design import draw_srswor, rng_stream
from greglink.errors import ValidationError
from greglink.estimators import build_estimators
from greglink.linkage import AuxDatabase, reverse_weights_best_link
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population
from support import fit_at, sample_linkage


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def linear_fixture(tmp_path):
    # three sampled units, exact linear response, one-one links, aux of 6
    aux = write(tmp_path / "aux.csv",
                "record_id,x1\n"
                "a,0.1\nb,0.4\nc,0.9\nd,0.2\ne,0.6\nf,0.8\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n10,a\n11,b\n12,c\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n"
                   "10,1.2\n".replace("1.2\n", "1.2,0.5\n") +
                   "11,1.8,0.5\n12,2.8,0.5\n")
    return sample, aux, links


def test_estimate_exact_linear_zero_variance(linear_fixture, capsys):
    sample, aux, links = linear_fixture
    # y = 1 + 2x exactly: estimate hits (1, mean x)*N with zero variance
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sri", "--target", "mean",
                 "--big-n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    inputs = assemble_estimation_inputs(sample, aux, links, 6)
    est, diag = estimate_from_inputs(inputs, "sri", "mean",
                                     build_file_estimators(inputs, ["sri"], 0.4))
    expected = 1 + 2 * inputs.aux.mean[0]
    assert est.value == pytest.approx(expected, rel=1e-10)
    assert est.variance == pytest.approx(0.0, abs=1e-16)
    assert "point estimate" in out
    assert "consistency diagnostic (sri)" in out


def test_estimate_unique_links_collapse(linear_fixture):
    # all links unique: the subsample, best-link and reverse-weight
    # estimators coincide
    sample, aux, links = linear_fixture
    inputs = assemble_estimation_inputs(sample, aux, links, 6)
    values = {}
    for estimator in ("sub", "sbl", "sri"):
        est, _ = estimate_from_inputs(inputs, estimator, "mean",
                                      build_file_estimators(inputs, [estimator], 0.4))
        values[estimator] = est.value
    assert values["sub"] == pytest.approx(values["sbl"], rel=1e-12)
    assert values["sbl"] == pytest.approx(values["sri"], rel=1e-12)


def test_estimate_pi_requires_population_links(linear_fixture, capsys):
    sample, aux, links = linear_fixture
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "pi", "--big-n", "6"])
    assert code == 1
    assert "population-scope links" in capsys.readouterr().err


def test_estimate_pi_with_population_links(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv",
                "record_id,x1\n0,0.1\n1,0.4\n2,0.9\n3,0.2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n0,0\n1,1\n2,2\n3,3\n1,2\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n0,1.0,0.5\n2,3.0,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "pi", "--big-n", "4"])
    assert code == 0
    assert "point estimate" in capsys.readouterr().out


def test_estimate_missing_pi_column(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,0.5\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y\n1,2.0\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sri", "--big-n", "4"])
    assert code == 1
    assert "unit_id,y,pi" in capsys.readouterr().err


def test_estimate_rejects_nan_inclusion_probability(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,0.5\nb,0.1\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,b\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,nan\n2,3.0,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "ht", "--big-n", "4"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {sample}:2: not a finite number: 'nan'\n"


def test_estimate_sub_rejects_nan_response_of_multi_link_unit(tmp_path, capsys):
    # unit 4 has two links, so the subsample leaves it out, yet its
    # response must still be a number
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,3\nd,4\ne,5\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n1,a\n2,b\n3,c\n4,d\n4,e\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,2.0,0.5\n2,3.1,0.5\n3,4.2,0.5\n4,nan,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sub", "--big-n", "10"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {sample}:5: not a finite number: 'nan'\n"


def test_estimate_rejects_unknown_estimator(linear_fixture, capsys):
    sample, aux, links = linear_fixture
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "mystery", "--big-n", "6"])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_diagnose_echoes_example_structure(tmp_path, capsys):
    # the two doubly-linked records are shared by sample units 3 and 4
    aux = write(tmp_path / "aux.csv",
                "record_id,x1\n1,0.5\n2,0.1\n3,0.2\n4,0.3\n5,0.4\n6,0.6\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n2,2\n3,3\n3,4\n4,3\n4,4\n4,5\n")
    code = main(["diagnose", "--aux", aux, "--links", links])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit 3: links ['3', '4'] (d=2)" in out
    assert "unit 4: links ['3', '4', '5'] (d=3)" in out
    assert "record 3: sample units ['3', '4'] (m=2)" in out
    assert "record 4: sample units ['3', '4'] (m=2)" in out
    assert "record 5: sample units ['4'] (m=1)" in out


def test_diagnose_population_links_print_informativeness(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv",
                "record_id,x1\n0,0.1\n1,0.4\n2,0.9\n3,0.2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n0,0\n1,1\n2,2\n3,3\n1,2\n")
    code = main(["diagnose", "--aux", aux, "--links", links, "--big-n", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scope: population" in out
    assert "weight-value covariance over links" in out
    assert "4 of 4 records linked" in out


def test_diagnose_rejects_weights_of_neither_kind(tmp_path, capsys):
    # every weight 0.5: record 0 sums to 0.5 over its units and unit 0 to
    # 0.5 over its records, so the column is neither incidence nor reverse
    aux = write(tmp_path / "aux.csv",
                "record_id,x1\n0,0.1\n1,0.4\n2,0.9\n3,0.2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id,weight\n0,0,0.5\n1,1,0.5\n2,2,0.5\n3,3,0.5\n1,2,0.5\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n0,1.0,0.5\n2,3.0,0.5\n")
    for extra in ([], ["--sample", sample]):
        code = main(["diagnose", "--aux", aux, "--links", links, "--big-n", "4", *extra])
        assert code == 1
        captured = capsys.readouterr()
        # the structure is echoed only once every line of the run is computed
        assert captured.out == ""
        assert captured.err == "error: incidence weights for record 0 sum to 0.5, not 1\n"
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "pi", "--big-n", "4"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: incidence weights for record 0 sum to 0.5, not 1\n")


@pytest.mark.parametrize("links, big_n, message", [
    ("unit_id,record_id\n1,a\n2,b\n3,c\n", "2",
     "files reference 3 units but the population size is 2"),
    ("unit_id,record_id,is_best\n1,a,0\n1,b,0\n2,b,1\n", "10",
     "unit '1' has multiple links but none flagged as best"),
], ids=["population-size", "best-link-flags"])
def test_diagnose_checks_the_files_with_or_without_a_sample(tmp_path, capsys, links,
                                                           big_n, message):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,3\n")
    links = write(tmp_path / "links.csv", links)
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    for extra in ([], ["--sample", sample]):
        assert main(["diagnose", "--aux", aux, "--links", links, "--big-n", big_n, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_diagnose_with_sample_prints_statistics(linear_fixture, capsys):
    sample, aux, links = linear_fixture
    code = main(["diagnose", "--aux", aux, "--links", links,
                 "--sample", sample, "--big-n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "consistency diagnostic (sri)" in out
    assert "consistency diagnostic (sls)" in out
    # one link per sampled unit resolves the best links without flags, as in
    # `estimate`, whose sbl line `diagnose` repeats
    assert "consistency diagnostic (sbl)" in out
    main(["estimate", "--aux", aux, "--links", links, "--sample", sample, "--big-n", "6",
          "--estimator", "sri,sbl,sls"])
    estimated = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("consistency diagnostic")]
    assert sorted(estimated) == sorted(line for line in out.splitlines()
                                       if line.startswith("consistency diagnostic"))


@pytest.mark.parametrize("links, big_n, outcome", [
    # sample-scope links: unit 1's weights sum to 1.7, so the column is not
    # reverse weights and nothing else
    ("0,a,1.0\n1,a,0.8\n1,b,0.9\n2,c,1.0\n", "10", "error"),
    # population links: the column is incidence weights (each record's
    # weights sum to 1 over its units) but not reverse weights on unit 1
    ("0,a,0.5\n1,a,0.5\n1,b,1.0\n2,c,1.0\n3,d,1.0\n", "4", "no sri"),
    # one link per unit: the column is valid both ways
    ("0,a,1.0\n1,b,1.0\n2,c,1.0\n3,d,1.0\n", "4", "sri"),
], ids=["invalid", "incidence", "both"])
def test_diagnose_sri_with_a_weight_column(tmp_path, capsys, links, big_n, outcome):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,4\nd,3\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id,weight\n" + links)
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n0,1.0,0.5\n1,2.0,0.5\n2,3.5,0.5\n")
    files = ["--aux", aux, "--links", links, "--sample", sample, "--big-n", big_n]
    estimate_code = main(["estimate", *files, "--estimator", "sri"])
    estimate = capsys.readouterr()
    code = main(["diagnose", *files])
    diagnose = capsys.readouterr()
    if outcome == "error":
        assert (code, estimate_code) == (1, 1)
        assert diagnose.err == estimate.err == (
            "error: reverse weights for unit 1 sum to 1.7000000000000002, not 1\n")
        return
    assert code == 0
    assert "consistency diagnostic (sls)" in diagnose.out
    assert ("consistency diagnostic (sri)" in diagnose.out) == (outcome == "sri")
    assert estimate_code == (0 if outcome == "sri" else 1)


@pytest.mark.parametrize("links, big_n, estimator, message", [
    # sample-scope links: file unit 7 (dense index 1) weighs its records
    # 0.8 and 0.9
    ("5,a,1.0\n7,a,0.8\n7,b,0.9\n9,c,1.0\n", "10", "sri",
     "reverse weights for unit 7 sum to 1.7000000000000002, not 1"),
    # population links: file record b (dense index 1) gets 0.5 from unit 7
    ("5,a,0.5\n7,a,0.5\n7,b,0.5\n9,c,1.0\n", "3", "pi",
     "incidence weights for record b sum to 0.5, not 1"),
], ids=["reverse", "incidence"])
def test_weight_sum_errors_name_file_ids(tmp_path, capsys, links, big_n, estimator,
                                         message):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,4\nd,3\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id,weight\n" + links)
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n5,1.0,0.5\n7,2.0,0.5\n9,3.5,0.5\n")
    files = ["--aux", aux, "--links", links, "--big-n", big_n]
    runs = [["estimate", *files, "--sample", sample, "--estimator", estimator],
            ["diagnose", *files, "--sample", sample]]
    if estimator == "pi":
        # without a sample, diagnose checks the column on population links only
        runs.append(["diagnose", *files])
    for argv in runs:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("links, z", [
    # one-one links: the statistics are zero up to rounding
    ("1,a\n2,b\n3,c\n", ("0", "0")),
    # unit 3 also links record a: both statistics are off zero
    ("1,a\n2,b\n3,c\n3,a\n", ("-inf", "-inf")),
], ids=["zero", "off"])
def test_census_sample_diagnostics_have_no_sampling_variance(tmp_path, capsys, links, z):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,0.1\nb,0.4\nc,0.9\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n" + links)
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,1.0,1\n2,2.5,1\n3,2.0,1\n")
    assert main(["estimate", "--sample", sample, "--aux", aux, "--links", links,
                 "--estimator", "sri,sls", "--big-n", "3"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("consistency diagnostic")]
    assert [line.rsplit(" z ", 1)[1] for line in lines] == list(z)


def test_diagnose_chance_tie_has_no_z(tmp_path, capsys):
    # sampled units 1 and 2 share one link set, so their rows tie and show
    # no spread by chance: outside a census that gives no z, not -inf
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,4\nd,3\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,a\n3,c\n4,d\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    assert main(["diagnose", "--aux", aux, "--links", links, "--sample", sample,
                 "--big-n", "4"]) == 0
    diagnostics = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert diagnostics == [
        f"consistency diagnostic ({kind}): component 1: value -1.5 z unavailable"
        for kind in ("sri", "sbl", "sls")]


@pytest.fixture
def unequal_pi_files(tmp_path):
    # 8 population units, 6 sampled with pi 0.5 and 0.6; units 2 and 4 have
    # two links each
    aux = write(tmp_path / "aux.csv", "record_id,x1\n"
                "a,0.1\nb,0.4\nc,0.9\nd,0.2\ne,0.6\nf,0.8\ng,0.3\nh,0.5\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id,is_best\n"
                  "0,a,1\n1,b,1\n2,c,1\n2,d,0\n3,d,1\n4,e,1\n4,a,0\n"
                  "5,f,1\n6,g,1\n7,h,1\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n"
                   "0,1.2,0.5\n1,1.9,0.6\n2,2.7,0.5\n3,1.4,0.6\n4,2.2,0.5\n5,2.5,0.6\n")
    return ["--sample", sample, "--aux", aux, "--links", links, "--big-n", "8"]


@pytest.mark.parametrize("estimator", FILE_ESTIMATORS)
def test_unequal_pi_gives_no_variance_or_rejects_sub(unequal_pi_files, capsys, estimator):
    # no design-based variance without equal pi: the estimate is printed with
    # its variance and diagnostic z unavailable; sub's unweighted subsample
    # mean is no estimate at all
    code = main(["estimate", *unequal_pi_files, "--estimator", estimator])
    captured = capsys.readouterr()
    if estimator == "sub":
        assert code == 1
        assert captured.err == "error: sub needs an equal-probability sample\n"
        return
    assert code == 0
    assert "point estimate: unavailable" not in captured.out
    assert "variance estimate: unavailable" in captured.out
    diagnostics = [line for line in captured.out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert len(diagnostics) == (estimator in ("sbl", "sri", "sls"))
    assert all(line.endswith("z unavailable") for line in diagnostics)


def test_diagnose_one_unit_sample_has_no_z(tmp_path, capsys):
    # one sampled unit of three has no spread to read: not a degenerate
    # covariate, whose z would be infinite
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,4\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,b\n3,c\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n")
    assert main(["diagnose", "--aux", aux, "--links", links, "--sample", sample,
                 "--big-n", "3"]) == 0
    diagnostics = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert diagnostics == [
        "consistency diagnostic (sri): component 1: value -1.66667 z unavailable",
        "consistency diagnostic (sbl): component 1: value -1.66667 z unavailable",
        "consistency diagnostic (sls): component 1: value -1.33333 z unavailable",
    ]


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process run; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def overflow_files(tmp_path):
    # finite cells whose sums and products overflow double precision
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1e308\nb,-1e308\nc,1e308\nd,3\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id,is_best\n1,a,1\n2,b,1\n3,c,1\n3,d,0\n4,d,1\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,1e308,0.5\n2,1e308,0.5\n3,1.0,0.5\n")
    return ["--aux", aux, "--links", links, "--sample", sample, "--big-n", "4"]


@pytest.mark.parametrize("command, message", [
    # every estimator is built before any is fitted, so the link-set sums of
    # the build fail the run before the ht fit overflows
    (["estimate", "--estimator", "ht,pi,sbl,sri,sls"], "sls link-set aggregates are not "
     "finite: sums or products of the auxiliary record values overflow"),
    (["estimate", "--estimator", "pi"], "normal-equation matrix is not finite"),
    (["estimate", "--estimator", "sbl"], "normal-equation matrix is not finite"),
    (["estimate", "--estimator", "sri"], "normal-equation matrix is not finite"),
    (["estimate", "--estimator", "sls"], "sls link-set aggregates are not finite: sums "
     "or products of the auxiliary record values overflow"),
    (["diagnose"], "sri consistency diagnostic is not finite: sums or squares of its "
     "per-unit contributions overflow"),
], ids=["all", "pi", "sbl", "sri", "sls", "diagnose"])
def test_values_that_overflow_are_a_numerical_failure(overflow_files, command, message):
    # these printed inf or nan estimates, with numpy warnings, and exited 0
    code, out, err = _run_main([*command, *overflow_files])
    assert (code, out) == (2, "")
    assert re.fullmatch(f"numerical failure: {message}\n", err), err


def test_diagnose_unequal_pi_sample_has_no_z(unequal_pi_files, capsys):
    assert main(["diagnose", *unequal_pi_files]) == 0
    diagnostics = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert len(diagnostics) == 3
    assert all(line.endswith("z unavailable") for line in diagnostics)


def test_estimate_and_diagnose_print_the_same_diagnostics(tmp_path, capsys):
    n_population, n = 200, 40
    x, population = gen_population(PopulationModel(n_units=n_population),
                                   rng_stream(5, 0))
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.6,
                         correct_best_rate=0.5, best_link_weight=0.4)
    _, linkage, best = gen_linkage(n_population, model, rng_stream(5, 1))
    sample = draw_srswor(n_population, n, rng_stream(5, 2))
    sub, keep = sample_linkage(linkage, sample.ids)
    reverse = reverse_weights_best_link(linkage, best, 0.3).values[keep]
    write_aux_csv(tmp_path / "aux.csv", AuxDatabase.from_values(x))
    write_sample_csv(tmp_path / "sample.csv", sample, population.y[sample.ids])
    write_links_csv(tmp_path / "flags.csv", linkage, best_links=best)
    write_links_csv(tmp_path / "weights.csv", sub, weights=reverse,
                    best_links=best[sample.ids])
    for links in ("flags.csv", "weights.csv"):
        files = ["--aux", str(tmp_path / "aux.csv"), "--links", str(tmp_path / links),
                 "--sample", str(tmp_path / "sample.csv"), "--big-n", str(n_population)]
        assert main(["estimate", *files, "--estimator", "sri,sbl,sls", "--q", "0.6"]) == 0
        estimate = capsys.readouterr().out
        assert main(["diagnose", *files, "--q", "0.6"]) == 0
        diagnose = capsys.readouterr().out

        def diagnostics(out):
            return [line for line in out.splitlines()
                    if line.startswith("consistency diagnostic (")]
        assert len(diagnostics(diagnose)) == 3
        assert diagnostics(estimate) == diagnostics(diagnose)


def test_diagnose_rejects_a_negative_limit(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,3\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,b\n3,c\n")
    assert main(["diagnose", "--aux", aux, "--links", links, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --limit must be nonnegative, got -1\n"
    assert captured.out == ""


def test_diagnose_unknown_record_exits_with_validation_code(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,0.5\nb,0.1\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,zz\n")
    code = main(["diagnose", "--aux", aux, "--links", links])
    assert code == 1
    assert capsys.readouterr().err == "error: link file references unknown record 'zz'\n"


def test_repeated_link_names_its_file_ids(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n7,b\n7,b\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n7,3.0,0.5\n")
    for argv in (["diagnose", "--aux", aux, "--links", links],
                 ["estimate", "--sample", sample, "--aux", aux, "--links", links,
                  "--big-n", "10"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: link file repeats the link of unit '7' to record 'b'\n")


def test_diagnose_rejects_non_utf8_file(tmp_path, capsys):
    aux = tmp_path / "aux.csv"
    aux.write_bytes(b"record_id,x1\na,0.5\nb,\xff\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n")
    code = main(["diagnose", "--aux", str(aux), "--links", links])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {aux}: not UTF-8 text (byte 0xff: invalid start byte)\n")


def test_diagnose_rejects_unparsable_csv(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,0.5\nb," + "9" * 200_000 + "\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n")
    code = main(["diagnose", "--aux", aux, "--links", links])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {aux}:3: field larger than field limit")


def test_estimate_rejects_nan_link_weight(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id,weight\n1,a,nan\n1,b,nan\n2,b,1.0\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sri", "--big-n", "10"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {links}:2: not a finite number: 'nan'\n"


def test_estimate_sls_needs_as_many_links_as_model_columns(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n2,b\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sls", "--big-n", "10"])
    assert code == 1
    assert capsys.readouterr().err == "error: need at least 2 links, got 1\n"


def test_missing_file_exits_with_validation_code(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.scenario")])
    assert code == 1
    assert "nope.scenario" in capsys.readouterr().err


def test_oracle_identities(capsys):
    code = main(["oracle", "--big-n", "8", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if "deviation" in line:
            assert float(line.rsplit(" ", 1)[1]) <= 1e-10


def test_oracle_guard(capsys):
    code = main(["oracle", "--big-n", "30", "--n", "15"])
    assert code == 2
    assert "guard" in capsys.readouterr().err


def test_oracle_guard_is_decided_before_the_population_is_drawn(monkeypatch, capsys):
    # C(20000, 10000) has over 4300 digits: formatting it into the guard's
    # message raised ValueError, after the population had been drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("the population was drawn")

    monkeypatch.setattr(cli, "gen_population", no_draw)
    assert main(["oracle", "--big-n", "20000", "--n", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: C(20000,10000) exceeds the "
                            "enumeration guard of 1000000\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["estimate", "diagnose", "simulate", "oracle"])
def test_a_population_of_2_63_units_or_more_is_one_error_line(linear_fixture, tmp_path,
                                                               command):
    # unit ids are int64: N = 10**200 overflowed a float in the variance with a
    # traceback, as 10**100 did not; a scenario of 10**30 units exceeded
    # numpy's largest dimension; the oracle's guard reported 2**63 as exit 2
    sample, aux, links = linear_fixture
    scenario = write(tmp_path / "s.scenario", f"name = huge\npopulation = {10**30}\n"
                     "sample = 100\nreplicates = 30\n")
    argv = {"estimate": ["estimate", "--sample", sample, "--aux", aux, "--links", links,
                         "--big-n", str(10**200)],
            "diagnose": ["diagnose", "--sample", sample, "--aux", aux, "--links", links,
                         "--big-n", str(10**200)],
            "simulate": ["simulate", scenario],
            "oracle": ["oracle", "--big-n", str(2**63), "--n", "3"]}[command]
    code, out, err = _run_main(argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: .*population size \d+ is not below 2\*\*63\n", err), err


def test_simulate_out_of_memory_is_one_error_line(tmp_path, monkeypatch):
    # a scenario of 10**11 units died with numpy's traceback for 745 GiB
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(harness, "gen_population", no_memory)
    scenario = write(tmp_path / "s.scenario", "name = big\npopulation = 100000000000\n"
                     "sample = 100\nreplicates = 30\n")
    assert _run_main(["simulate", scenario]) == (1, "", "error: out of memory\n")


def test_simulate_rejects_a_unit_with_more_false_links_than_other_records(tmp_path):
    # three units, one with three links and no match: its three distinct false
    # records were redrawn from the two other records forever
    scenario = write(tmp_path / "s.scenario",
                     "name = tiny\npopulation = 3\nsample = 2\nreplicates = 2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "greglink.cli", "simulate", scenario],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1 and run.stdout == ""
    errors = [line for line in run.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: a unit needs 3 distinct false links, but only 2 other "
                      "records exist"]


def test_simulate_quick_scenario(tmp_path, capsys):
    scenario = write(tmp_path / "s.scenario",
                     "name = tiny\npopulation = 300\nsample = 40\n"
                     "replicates = 40\np1 = 0.5\np2 = 0.3\np3 = 0.2\n"
                     "match_rate = 0.7\ncorrect_best_rate = 0.6\nq = 0.5\n"
                     "seed = 3\nestimators = ht,ideal,sri-q\n")
    out_prefix = tmp_path / "out" / "res"
    code = main(["simulate", scenario, "--out", str(out_prefix)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tiny" in out
    assert (tmp_path / "out" / "res_tiny.csv").exists()
    assert (tmp_path / "out" / "res.txt").exists()
    csv_text = (tmp_path / "out" / "res_tiny.csv").read_text()
    assert csv_text.startswith("metric,estimator,value\n")
    assert "RE,ht,1.0" in csv_text


def test_simulate_table_grid_stdout_is_golden(capsys):
    # stdout of the bundled table grid at 30 replicates, recorded before the
    # vectorised replicate draw; any change to the (seed, k) streams, the
    # fits or the formatting shows here as a byte difference
    root = Path(__file__).resolve().parents[1]
    code = main(["simulate", str(root / "scenarios" / "tables_full.scenario"),
                 "--k", "30"])
    assert code == 0
    golden = (root / "tests" / "data" / "tables_full_k30.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_simulate_census_scenario_exits_with_error(tmp_path, capsys):
    # n = N draws one sample every replicate: HT's variance is 0, so RE and
    # RMSE are undefined and the block is refused before it runs
    scenario = write(tmp_path / "census.scenario",
                     "population = 50\nsample = 50\nreplicates = 20\n")
    assert main(["simulate", scenario]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample size 50 outside 2..49" in err


def test_simulate_reads_no_worker_variable(tmp_path, capsys, monkeypatch):
    # --workers is the one way to set the worker count; GREGLINK_WORKERS was
    # a second one
    monkeypatch.setenv("GREGLINK_WORKERS", "two")
    scenario = write(tmp_path / "s.scenario",
                     "population = 50\nsample = 10\nreplicates = 2\n")
    assert main(["simulate", scenario]) == 0
    assert "GREGLINK_WORKERS" not in capsys.readouterr().err


def test_simulate_rejects_the_redraw_linkage_key(tmp_path, capsys):
    # every block holds one linkage fixed over its replicates
    scenario = write(tmp_path / "s.scenario", "population = 50\nsample = 10\n"
                     "replicates = 2\nredraw_linkage = true\n")
    assert main(["simulate", scenario]) == 1
    assert capsys.readouterr().err == (
        f"error: {scenario}:4: unknown scenario key 'redraw_linkage'\n")


def test_simulate_rejects_repeated_block_names_before_writing(tmp_path, capsys):
    # both blocks went to res_a.csv, which kept the second one only
    block = "name = a\npopulation = 50\nsample = 10\nreplicates = 2\n"
    scenario = write(tmp_path / "s.scenario", f"{block}\n{block}")
    out_prefix = tmp_path / "out" / "res"
    assert main(["simulate", scenario, "--out", str(out_prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {scenario}: block 2 repeats the name 'a' of block 1\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_simulate_rejects_a_path_in_a_block_name_before_running(tmp_path, capsys):
    # the blocks used to run and print before --out failed on res_a/b.csv
    scenario = write(tmp_path / "s.scenario",
                     "name = a/b\npopulation = 50\nsample = 10\nreplicates = 2\n")
    out_prefix = tmp_path / "out" / "res"
    assert main(["simulate", scenario, "--out", str(out_prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {scenario}: block 1: "
                            "name 'a/b' cannot be part of a file name\n")
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers, message", [
    ("0", "--workers must be at least 1, got 0"),
    ("-2", "--workers must be at least 1, got -2"),
    ("two", "argument --workers: invalid int value: 'two'"),
])
def test_simulate_rejects_a_bad_worker_count(tmp_path, capsys, workers, message):
    scenario = write(tmp_path / "s.scenario",
                     "population = 50\nsample = 10\nreplicates = 2\n")
    assert main(["simulate", scenario, f"--workers={workers}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "s.scenario", "--k", "abc"],
    ["simulate", "s.scenario", "--seed", "x"],
    ["estimate", "--sample", "s.csv", "--aux", "a.csv", "--links", "l.csv", "--big-n", "x"],
    ["estimate", "--sample", "s.csv", "--aux", "a.csv", "--links", "l.csv", "--big-n", "5",
     "--target", "bogus"],
    ["estimate", "--sample", "s.csv", "--aux", "a.csv", "--big-n", "5"],
    ["diagnose", "--aux", "a.csv", "--links", "l.csv", "--limit", "many"],
    ["oracle", "--big-n", "8"],
    ["oracle", "--big-n", "8", "--n", "3", "--unknown", "1"],
    [],
], ids=["simulate-k", "simulate-seed", "estimate-big-n", "estimate-target",
        "estimate-missing-links", "diagnose-limit", "oracle-missing-n", "oracle-unknown",
        "no-command"])
def test_malformed_options_exit_with_validation_code(capsys, argv):
    # argparse exited 2, the code of a numerical failure; its wording
    # differs across Python versions, so only the prefix is pinned
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "--big-n" in capsys.readouterr().out


@pytest.mark.parametrize("command, estimator, with_sample", [
    ("estimate", "ht", True),
    ("estimate", "ht,sri", True),
    ("diagnose", None, False),
    ("diagnose", None, True),
], ids=["estimate-ht", "estimate-ht-sri", "diagnose", "diagnose-sample"])
def test_q_is_checked_before_any_file_is_read(linear_fixture, capsys, command,
                                              estimator, with_sample):
    # ht ignores q, so these ran to exit 0, or printed the ht estimate or the
    # echo before sri or the sample's diagnostics failed on it; the fixture's
    # sampled units have one link each and no flags, the one file that gives
    # sri best-link weights
    sample, aux, links = linear_fixture
    argv = [command, "--aux", aux, "--links", links, "--q", "5"]
    if with_sample:
        argv += ["--sample", sample, "--big-n", "6"]
    if estimator is not None:
        argv += ["--estimator", estimator]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --q must lie in (0, 1], got 5.0\n" and captured.out == ""


def test_a_repeated_estimator_in_a_scenario_block_is_rejected(tmp_path, capsys):
    # the block printed two HT columns and wrote every HT row twice to --out
    scenario = write(tmp_path / "s.scenario", "population = 50\nsample = 10\n"
                     "replicates = 2\nestimators = ht,ht,sri-q\n")
    out_prefix = tmp_path / "out" / "res"
    assert main(["simulate", scenario, "--out", str(out_prefix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {scenario}: block 1: repeated estimators: ['ht']\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_a_repeated_estimate_estimator_is_rejected(linear_fixture, capsys):
    # the same estimate was printed twice
    sample, aux, links = linear_fixture
    assert main(["estimate", "--sample", sample, "--aux", aux, "--links", links,
                 "--estimator", "sri, ht,sri", "--big-n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --estimator repeats sri\n" and captured.out == ""


@pytest.mark.parametrize("case", ["no-blocks", "no-estimator", "sample-without-big-n",
                                  "empty-csv", "line-without-equals", "median-target"])
def test_rarely_taken_errors_exit_with_validation_code(linear_fixture, tmp_path, capsys,
                                                       case):
    sample, aux, links = linear_fixture
    scenario = write(tmp_path / "s.scenario", {
        "no-blocks": "# nothing here\n\n",
        "line-without-equals": "population = 50\nsample 10\n",
        "median-target": "population = 50\nsample = 10\nreplicates = 2\ntarget = median\n",
    }.get(case, ""))
    empty = write(tmp_path / "empty.csv", "")
    argv, message = {
        "no-blocks": (["simulate", scenario], f"{scenario}: no scenario blocks found"),
        "no-estimator": (["estimate", "--sample", sample, "--aux", aux, "--links", links,
                          "--estimator", ",", "--big-n", "6"],
                         "no estimator requested"),
        "sample-without-big-n": (["diagnose", "--aux", aux, "--links", links,
                                  "--sample", sample],
                                 "--big-n is required when a sample file is given"),
        "empty-csv": (["diagnose", "--aux", empty, "--links", links],
                      f"{empty}: empty file, header row required"),
        "line-without-equals": (["simulate", scenario],
                                f"{scenario}:2: expected 'key = value', got 'sample 10'"),
        "median-target": (["simulate", scenario],
                          f"{scenario}: block 1: unknown target 'median'"),
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("key, name", [
    ("sigma", "sigma"), ("p1", "link shares"), ("match_rate", "match rate"),
    ("oracle", "sigma")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_model_parameters_are_rejected_by_name(tmp_path, capsys, key, name,
                                                          value):
    # nan slipped past every bound, and sigma = inf too: the run went on until
    # the replicate loop failed on a non-finite value, or a later bound
    # reported nan for another parameter
    scenario = write(tmp_path / "s.scenario",
                     f"population = 50\nsample = 10\nreplicates = 2\n{key} = {value}\n")
    if key == "oracle":
        argv, where = ["oracle", "--big-n", "6", "--n", "2", "--sigma", value], ""
    else:
        argv, where = ["simulate", scenario], f"{scenario}: block 1: "
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}{name} ")
    assert value in captured.err and captured.out == ""


@pytest.mark.parametrize("source", ["--seed", "scenario", "oracle"])
def test_negative_seeds_are_rejected_where_they_enter(tmp_path, capsys, source):
    # numpy's seeding would raise a bare ValueError on them
    scenario = write(tmp_path / "s.scenario",
                     "population = 50\nsample = 10\nreplicates = 2\n"
                     + ("seed = -2\n" if source == "scenario" else ""))
    argv, message = {
        "--seed": (["simulate", scenario, "--seed", "-1"],
                   "seed must be nonnegative, got -1"),
        "scenario": (["simulate", scenario],
                     f"{scenario}: block 1: seed must be nonnegative, got -2"),
        "oracle": (["oracle", "--big-n", "6", "--n", "2", "--seed", "-1"],
                   "--seed must be nonnegative, got -1"),
    }[source]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("source", ["scenario", "oracle"])
def test_one_unit_samples_are_rejected_where_they_enter(tmp_path, capsys, source):
    # one unit per sample leaves no variance estimator: the oracle printed a
    # nan deviation with exit 0, and a block failed every replicate of the
    # ideal estimator with exit 2
    scenario = write(tmp_path / "s.scenario",
                     "population = 50\nsample = 1\nreplicates = 40\n")
    argv, message = {
        "scenario": (["simulate", scenario],
                     f"{scenario}: block 1: sample size 1 outside 2..49"),
        "oracle": (["oracle", "--big-n", "8", "--n", "1"],
                   "--n must be at least 2, got 1"),
    }[source]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_simulate_small_k_warns(tmp_path, capsys):
    scenario = write(tmp_path / "s.scenario",
                     "name = tiny\npopulation = 300\nsample = 40\n"
                     "replicates = 40\np1 = 0.5\np2 = 0.3\np3 = 0.2\n"
                     "match_rate = 0.7\ncorrect_best_rate = 0.6\n"
                     "seed = 3\nestimators = ht\n")
    code = main(["simulate", scenario, "--k", "2"])
    assert code == 0
    err = capsys.readouterr().err
    assert "Monte Carlo error is large" in err


def test_simulate_malformed_key_exits_nonzero(tmp_path, capsys):
    scenario = write(tmp_path / "bad.scenario",
                     "population = 300\nsample = 40\nreplicates = 40\n"
                     "not_a_key = 1\n")
    code = main(["simulate", scenario])
    assert code == 1
    err = capsys.readouterr().err
    assert "not_a_key" in err
    assert ":4" in err


def test_simulate_seed_override_reproducible(tmp_path, capsys):
    scenario = write(tmp_path / "s.scenario",
                     "name = tiny\npopulation = 300\nsample = 40\n"
                     "replicates = 40\np1 = 0.5\np2 = 0.3\np3 = 0.2\n"
                     "match_rate = 0.7\ncorrect_best_rate = 0.6\n"
                     "seed = 3\nestimators = ht,ideal\n")
    main(["simulate", scenario, "--seed", "99"])
    first = capsys.readouterr().out
    main(["simulate", scenario, "--seed", "99"])
    second = capsys.readouterr().out
    assert first == second
    main(["simulate", scenario, "--seed", "100"])
    third = capsys.readouterr().out
    assert first != third


def test_round_trip_dump_and_estimate_bitwise(tmp_path):
    # generated data dumped to CSV and re-ingested reproduces the in-memory
    # estimate exactly
    n_population, n = 120, 30
    x, population = gen_population(PopulationModel(n_units=n_population),
                                   rng_stream(42, 0))
    aux = AuxDatabase.from_values(x)
    model = LinkageModel(link_share=(0.4, 0.3, 0.3), match_rate=0.8,
                         correct_best_rate=0.7)
    _, linkage, best = gen_linkage(n_population, model, rng_stream(42, 1))
    sample = draw_srswor(n_population, n, rng_stream(42, 2))

    # the table's sri-q, built over the population links and fitted at the
    # sample
    (sri,) = build_estimators(["sri-q"], linkage, aux, best=best, q=0.4)
    reference = fit_at(sri, population.y[sample.ids], sample, target="total")

    sub_linkage, _ = sample_linkage(linkage, sample.ids)
    best_sub = best[sample.ids]

    aux_path = tmp_path / "aux.csv"
    links_path = tmp_path / "links.csv"
    sample_path = tmp_path / "sample.csv"
    write_aux_csv(aux_path, aux)
    write_links_csv(links_path, sub_linkage, best_links=best_sub)
    write_sample_csv(sample_path, sample, population.y[sample.ids])

    inputs = assemble_estimation_inputs(sample_path, aux_path, links_path,
                                        n_population)
    est, _ = estimate_from_inputs(inputs, "sri", "total",
                                  build_file_estimators(inputs, ["sri"], 0.4))
    assert est.value == reference.value  # bitwise
    assert est.variance == reference.variance


def test_aux_round_trip_full_precision(tmp_path):
    aux = AuxDatabase(x=np.array([[0.1234567890123456789, 2.0],
                                  [1 / 3, np.pi]]))
    path = tmp_path / "aux.csv"
    write_aux_csv(path, aux)
    table = read_aux_csv(path)
    assert np.array_equal(table.aux.x, aux.x)


def test_read_aux_rejects_duplicates(tmp_path):
    path = write(tmp_path / "aux.csv", "record_id,x1\na,1\na,2\n")
    with pytest.raises(ValidationError, match="duplicate record"):
        read_aux_csv(path)


def test_assemble_rejects_sampled_unit_without_links(tmp_path):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv", "unit_id,record_id\n1,a\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    with pytest.raises(ValidationError, match="without links"):
        assemble_estimation_inputs(sample, aux, links, 4)


def test_assemble_rejects_a_sample_without_the_population_size(linear_fixture):
    sample, aux, links = linear_fixture
    with pytest.raises(ValidationError, match="^a sample file needs the population size$"):
        assemble_estimation_inputs(sample, aux, links, n_population=None)


def test_estimate_from_inputs_rejects_inputs_without_a_sample(linear_fixture):
    _, aux, links = linear_fixture
    inputs = assemble_estimation_inputs(None, aux, links, n_population=None)
    with pytest.raises(ValidationError, match="^estimation needs a sample file$"):
        estimate_from_inputs(inputs, "sri", "total",
                             build_file_estimators(inputs, ["sri"], 0.4))


def test_assemble_weight_column_used_for_reverse_scheme(tmp_path):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id,weight\n1,a,0.8\n1,b,0.2\n2,b,1.0\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    inputs = assemble_estimation_inputs(sample, aux, links, 10)
    est, _ = estimate_from_inputs(inputs, "sri", "total",
                                  build_file_estimators(inputs, ["sri"], 0.4))
    assert est.value == pytest.approx(est.value)  # runs without error
    # a bad weight column is rejected through the scheme validator
    bad_links = write(tmp_path / "bad_links.csv",
                      "unit_id,record_id,weight\n1,a,0.8\n1,b,0.9\n2,b,1.0\n")
    bad = assemble_estimation_inputs(sample, aux, bad_links, 10)
    with pytest.raises(ValidationError, match="sum to"):
        estimate_from_inputs(bad, "sri", "total",
                             build_file_estimators(bad, ["sri"], 0.4))


def test_estimate_sbl_needs_best_flags(tmp_path, capsys):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id\n1,a\n1,b\n2,b\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    code = main(["estimate", "--sample", sample, "--aux", aux,
                 "--links", links, "--estimator", "sbl", "--big-n", "10"])
    assert code == 1
    assert "is_best" in capsys.readouterr().err


@pytest.fixture
def unsampled_two_link_unit(tmp_path):
    """Sampled units 1 and 2 with one link each; unsampled unit 3 links c
    and d. Called with a weight column, it writes the links with it."""
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,4\nd,3\n")
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n2,3.5,0.5\n")

    def files(weights=None):
        rows = ["1,a", "2,b", "3,c", "3,d"]
        header = "unit_id,record_id"
        if weights is not None:
            header += ",weight"
            rows = [f"{row},{w}" for row, w in zip(rows, weights)]
        links = write(tmp_path / "links.csv", "\n".join([header, *rows]) + "\n")
        return ["--sample", sample, "--aux", aux, "--links", links, "--big-n", "4"]
    return files


@pytest.mark.parametrize("estimator", ["sri", "sls"])
def test_weights_are_checked_on_unsampled_units(unsampled_two_link_unit, capsys, estimator):
    # the estimators were built over the sampled units' links only, so unit
    # 3's weights went unchecked and the run exited 0
    files = unsampled_two_link_unit(weights=["1.0", "1.0", "0.5", "0.9"])
    assert main(["estimate", *files, "--estimator", estimator]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: reverse weights for unit 3 sum to 1.4, not 1\n"
    assert captured.out == ""


def test_sbl_takes_only_links_as_best_only_when_every_unit_has_one(
        unsampled_two_link_unit, capsys):
    # the sampled units' only links stood in for best links, though unit 3
    # has two links and no flag
    assert main(["estimate", *unsampled_two_link_unit(), "--estimator", "sbl"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: this estimator needs an is_best column "
                            "in the link file\n")
    assert captured.out == ""


def test_diagnose_has_no_sbl_line_without_best_links(unsampled_two_link_unit, capsys):
    # the sbl line was printed on the sampled units' only links
    assert main(["diagnose", *unsampled_two_link_unit()]) == 0
    diagnostics = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert diagnostics == ["consistency diagnostic (sri)", "consistency diagnostic (sls)"]


@pytest.mark.parametrize("estimators, files_exist, message", [
    ("ht,mystery", True,
     "unknown estimator 'mystery'; choose from ht, pi, sub, sbl, sri, sls"),
    # the name is checked before any file is read
    ("ht,mystery", False,
     "unknown estimator 'mystery'; choose from ht, pi, sub, sbl, sri, sls"),
    ("sri,sls,sub", True, "subsample too small: 2 single-link units for 2 model columns"),
], ids=["unknown", "unknown-no-files", "sub-fails-last"])
def test_a_failed_estimate_prints_no_estimate(unsampled_two_link_unit, tmp_path, capsys,
                                              estimators, files_exist, message):
    # the estimates before the failing one were printed, then the run exited 1
    files = unsampled_two_link_unit()
    if not files_exist:
        files = [str(tmp_path / "missing.csv") if arg.endswith(".csv") else arg
                 for arg in files]
    assert main(["estimate", *files, "--estimator", estimators]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


GOLDEN_ESTIMATES_PATH = Path(__file__).parent / "data" / "golden_file_estimates.json"


def file_estimate_reprs(directory: Path) -> dict:
    """The ``repr`` of every file estimator's value and variance, of the
    diagnostic ``estimate`` prints beside it, and of ``diagnose --sample``'s
    statistics, on the files ``perfbench`` writes at N = 2000, n = 200."""
    from perfbench.workloads import Size, write_estimate_inputs

    paths = write_estimate_inputs(directory, Size(2000, 200), seed=15)
    inputs = assemble_estimation_inputs(paths["sample"], paths["aux"], paths["links"],
                                        n_population=2000)

    def report(diag):
        return {name: [repr(float(v)) for v in getattr(diag, name)[0]]
                for name in ("value", "variance", "z")}

    built = build_file_estimators(inputs, list(FILE_ESTIMATORS), 0.7)
    out = {}
    for target in ("total", "mean"):
        for estimator in FILE_ESTIMATORS:
            est, diag = estimate_from_inputs(inputs, estimator, target, built)
            out[f"{estimator} {target}"] = {
                "value": repr(est.value), "variance": repr(est.variance),
                "diagnostic": None if diag is None else report(diag)}
    out["diagnose"] = {d.statistic: report(d) for d in _sample_diagnostics(inputs, 0.7)}
    return out


def test_file_estimates_match_golden_reprs(tmp_path):
    # recorded at full precision before the link-set sums were slimmed; a
    # change in summation order, even in the last bit, shows here, which
    # the 6-digit CLI output cannot show
    golden = json.loads(GOLDEN_ESTIMATES_PATH.read_text(encoding="utf-8"))
    assert file_estimate_reprs(tmp_path) == golden


def test_estimate_builds_each_weight_kind_once(tmp_path, monkeypatch, capsys):
    # every requested estimator is built in one build_estimators call: the
    # record values are gathered at the links once, and the reverse weights
    # of sri and sls resolved once
    from perfbench.workloads import Size, write_estimate_inputs

    calls = []
    link_values, link_weights = estimators.link_values, estimators.link_weights
    monkeypatch.setattr(estimators, "link_values",
                        lambda *a, **k: calls.append("values") or link_values(*a, **k))
    monkeypatch.setattr(estimators, "link_weights",
                        lambda kind, *a, **k: calls.append(kind) or link_weights(kind, *a, **k))
    paths = write_estimate_inputs(tmp_path, Size(800, 60), seed=15)
    code = main(["estimate", "--sample", str(paths["sample"]), "--aux", str(paths["aux"]),
                 "--links", str(paths["links"]), "--estimator", "ht,pi,sub,sbl,sri,sls",
                 "--big-n", "800", "--q", "0.7"])
    assert code == 0 and capsys.readouterr().err == ""
    assert Counter(calls) == {"values": 1, "incidence": 1, "reverse": 1}


ORACLE_GOLDEN_PATH = Path(__file__).parent / "data" / "oracle_stdout.txt"
DIAGNOSE_GOLDEN_PATH = Path(__file__).parent / "data" / "diagnose_stdout.txt"


def cli_transcript(argvs: list[list[str]]) -> str:
    """Each command line, its exit code and its stdout, one after another."""
    parts = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ greglink {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}")
    return "".join(parts)


def oracle_transcript() -> str:
    return cli_transcript([["oracle", "--big-n", str(big_n), "--n", str(n)]
                           for big_n in range(6, 13) for n in range(1, 5)])


def diagnose_transcript() -> str:
    """``diagnose`` on the files ``perfbench`` writes at N = 800, n = 60, in
    the working directory: without a sample, as sample- and as
    population-scope links, and with the sample."""
    from perfbench.workloads import Size, write_estimate_inputs

    write_estimate_inputs(Path("."), Size(800, 60), seed=15)
    files = ["--aux", "aux.csv", "--links", "links.csv"]
    return cli_transcript([["diagnose", *files],
                           ["diagnose", *files, "--big-n", "800"],
                           ["diagnose", *files, "--sample", "sample.csv", "--big-n", "800"]])


def test_oracle_stdout_is_golden():
    # recorded before the enumeration was stacked into batches; the --n 1
    # entries were recorded again when one-unit samples began to exit 1
    assert oracle_transcript() == ORACLE_GOLDEN_PATH.read_text(encoding="utf-8")


def test_diagnose_stdout_is_golden(tmp_path, monkeypatch):
    # recorded before the record-side link index was dropped
    monkeypatch.chdir(tmp_path)
    assert diagnose_transcript() == DIAGNOSE_GOLDEN_PATH.read_text(encoding="utf-8")


@pytest.mark.parametrize("scope", ["population", "sample"])
def test_diagnose_echoes_every_record_of_a_full_echo(tmp_path, monkeypatch, capsys, scope):
    # the golden echo stops at the default --limit 50; here every linked
    # record is echoed and checked against a scan of the links for it
    from perfbench.workloads import Size, write_estimate_inputs

    monkeypatch.chdir(tmp_path)
    write_estimate_inputs(Path("."), Size(2000, 200), seed=15)
    argv = ["diagnose", "--aux", "aux.csv", "--links", "links.csv", "--limit", "2000"]
    if scope == "population":
        argv += ["--big-n", "2000"]
    assert main(argv) == 0
    echoed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("record ")]

    links = np.loadtxt("links.csv", delimiter=",", skiprows=1, usecols=(0, 1), dtype=np.int64)
    link_units, link_records = links[:, 0], links[:, 1]
    name = "units" if scope == "population" else "sample units"
    expected = []
    for r in np.unique(link_records):
        units = [str(u) for u in link_units[link_records == r]]
        expected.append(f"record {r}: {name} {units} (m={len(units)})")
    assert echoed == expected


def _numbers(draw, count):
    """``count`` small numbers, now and then ±1e308; all one number at times."""
    cell = st.tuples(st.integers(0, 11), st.integers(-6, 6)).map(
        lambda t: (1e308 if t[1] > 0 else -1e308) if t[0] == 0 else t[1] / 2)
    if draw(st.integers(0, 4)) == 0:
        return [draw(cell)] * count
    return [draw(cell) for _ in range(count)]


@st.composite
def contract_files(draw):
    """Texts of a small aux, link and sample file, and the population size."""
    n_population = draw(st.integers(1, 9))
    n_records = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 2))
    columns = [_numbers(draw, n_records) for _ in range(dim)]
    aux = "record_id," + ",".join(f"x{j + 1}" for j in range(dim)) + "\n" + "".join(
        f"r{r}," + ",".join(repr(c[r]) for c in columns) + "\n" for r in range(n_records))

    linked = (list(range(n_population)) if draw(st.booleans()) else
              sorted(draw(st.sets(st.integers(0, n_population - 1), min_size=1))))
    links = [(u, r) for u in linked
             for r in sorted(draw(st.sets(st.integers(0, n_records - 1),
                                          min_size=1, max_size=min(3, n_records))))]
    degree = {u: sum(lu == u for lu, _ in links) for u in linked}
    multiplicity = {r: sum(lr == r for _, lr in links) for _, r in links}
    weight = draw(st.sampled_from([None, "reverse", "incidence", "drawn"]))
    weights = {None: None,
               "reverse": [1 / degree[u] for u, _ in links],
               "incidence": [1 / multiplicity[r] for _, r in links],
               "drawn": [draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in links]}[weight]
    best = draw(st.sampled_from([None, "one per unit", "drawn"]))
    if best == "one per unit":
        chosen = {u: draw(st.sampled_from([r for lu, r in links if lu == u])) for u in linked}
        flags = [int(chosen[u] == r) for u, r in links]
    elif best == "drawn":
        flags = [draw(st.integers(0, 1)) for _ in links]
    header = "unit_id,record_id" + (",weight" if weights else "") + (",is_best" if best else "")
    rows = [f"{u + 1},r{r}" + (f",{weights[i]!r}" if weights else "")
            + (f",{flags[i]}" if best else "") for i, (u, r) in enumerate(links)]
    links_text = "\n".join([header, *rows]) + "\n"

    sampled = sorted(draw(st.sets(st.sampled_from(linked), min_size=1)))
    y = _numbers(draw, len(sampled))
    if draw(st.integers(0, 5)) == 0:
        pi = [draw(st.sampled_from([0.25, 0.5, 1.0])) for _ in sampled]
    else:
        pi = [draw(st.sampled_from([len(sampled) / n_population, 0.5]))] * len(sampled)
    sample = "unit_id,y,pi\n" + "".join(
        f"{u + 1},{y_i!r},{pi_i!r}\n" for u, y_i, pi_i in zip(sampled, y, pi))
    return aux, links_text, sample, n_population


@settings(max_examples=200, deadline=None)
@given(files=contract_files(), target=st.sampled_from(["total", "mean"]))
def test_file_commands_print_finite_output_or_one_error_line(tmp_path_factory, files, target):
    # either exit 0 with every estimate, variance and SE finite or
    # "unavailable", a z of ±inf only in a census, and nothing on stderr, or
    # exit 1 or 2 with nothing on stdout and one error line
    aux, links, sample, n_population = files
    census = len(sample.splitlines()) - 1 == n_population
    folder = tmp_path_factory.getbasetemp()
    paths = [write(folder / name, text) for name, text in
             (("contract_aux.csv", aux), ("contract_links.csv", links),
              ("contract_sample.csv", sample))]
    common = ["--aux", paths[0], "--links", paths[1], "--sample", paths[2],
              "--big-n", str(n_population)]
    for argv in (["estimate", *common, "--target", target,
                  "--estimator", ",".join(FILE_ESTIMATORS)], ["diagnose", *common]):
        code, out, err = _run_main(argv)
        if code == 0:
            assert err == ""
            for line in out.splitlines():
                key, _, value = line.partition(": ")
                if key in ("point estimate", "variance estimate", "standard error"):
                    assert value == "unavailable" or math.isfinite(float(value)), line
                if key.startswith("consistency diagnostic"):
                    zs = re.findall(r" z ([^,]+)", value)
                    assert census or not {"inf", "-inf"} & set(zs), line
        else:
            assert code in (1, 2) and out == ""
            assert re.fullmatch(r"(error|numerical failure): [^\n]*\n", err), err
