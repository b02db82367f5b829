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


def write_files(folder, **texts):
    """Write each text (or bytes) into ``folder``, as ``s.scenario`` for
    ``scenario`` and as ``<name>.csv`` otherwise; the paths, by name."""
    paths = {}
    for name, text in texts.items():
        path = folder / ("s.scenario" if name == "scenario" else f"{name}.csv")
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process run; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the three files' options, their paths left as ``{name}`` fields
FILES = ("--sample", "{sample}", "--aux", "{aux}", "--links", "{links}")
# three sampled units, exact linear response, one-one links, aux of 6
LINEAR = {"aux": "record_id,x1\na,0.1\nb,0.4\nc,0.9\nd,0.2\ne,0.6\nf,0.8\n",
          "links": "unit_id,record_id\n10,a\n11,b\n12,c\n",
          "sample": "unit_id,y,pi\n10,1.2,0.5\n11,1.8,0.5\n12,2.8,0.5\n"}
# sampled units 1 and 2 with one link each; unsampled unit 3 links c and d
UNSAMPLED_TWO_LINK = {"aux": "record_id,x1\na,1\nb,2\nc,4\nd,3\n",
                      "links": "unit_id,record_id\n1,a\n2,b\n3,c\n3,d\n",
                      "sample": "unit_id,y,pi\n1,2.0,0.5\n2,3.5,0.5\n"}


@pytest.fixture
def linear_fixture(tmp_path):
    paths = write_files(tmp_path, **LINEAR)
    return paths["sample"], paths["aux"], paths["links"]


# The command-line rejections: each row writes its files, runs one command
# and expects its exit code, nothing on stdout, one stderr line and no file
# written. A row's id names the test it was and that test's case.

# finite cells whose sums and products overflow double precision
OVERFLOW = {"aux": "record_id,x1\na,1e308\nb,-1e308\nc,1e308\nd,3\n",
            "links": "unit_id,record_id,is_best\n1,a,1\n2,b,1\n3,c,1\n3,d,0\n4,d,1\n",
            "sample": "unit_id,y,pi\n1,1e308,0.5\n2,1e308,0.5\n3,1.0,0.5\n"}
SMALL_SCENARIO = "population = 50\nsample = 10\nreplicates = 2\n"
# every weight 0.5: record 0 sums to 0.5 over its units and unit 0 to 0.5
# over its records, so the column is neither incidence nor reverse
NEITHER_KIND = {"aux": "record_id,x1\n0,0.1\n1,0.4\n2,0.9\n3,0.2\n",
                "links": "unit_id,record_id,weight\n"
                         "0,0,0.5\n1,1,0.5\n2,2,0.5\n3,3,0.5\n1,2,0.5\n",
                "sample": "unit_id,y,pi\n0,1.0,0.5\n2,3.0,0.5\n"}
ID_FILES = {"aux": "record_id,x1\na,1\nb,2\nc,4\nd,3\n",
            "sample": "unit_id,y,pi\n5,1.0,0.5\n7,2.0,0.5\n9,3.5,0.5\n"}
# sample-scope links: file unit 7 (dense index 1) weighs its records 0.8
# and 0.9
REVERSE_ID_LINKS = "unit_id,record_id,weight\n5,a,1.0\n7,a,0.8\n7,b,0.9\n9,c,1.0\n"
# population links: file record b (dense index 1) gets 0.5 from unit 7
INCIDENCE_ID_LINKS = "unit_id,record_id,weight\n5,a,0.5\n7,a,0.5\n7,b,0.5\n9,c,1.0\n"
REPEATED_LINK = {"aux": "record_id,x1\na,1\nb,2\n",
                 "links": "unit_id,record_id\n1,a\n7,b\n7,b\n",
                 "sample": "unit_id,y,pi\n1,2.0,0.5\n7,3.0,0.5\n"}
ORACLE = ("oracle", "--big-n", "6", "--n", "2")


def rejection(case, argv, stderr, code=1, **files):
    """A row of ``REJECTIONS``: ``files`` are written by name, as by
    ``write_files``. ``stderr`` is the one line expected, without its
    newline: exact text, or a compiled regular expression that matches it in
    full. ``{name}`` in ``argv`` and in exact text stands for a file's path,
    ``{tmp}`` for the folder's."""
    return pytest.param(files, argv, code, stderr, id=case)


REJECTIONS = [
    rejection("estimate_pi_requires_population_links",
              ["estimate", *FILES, "--estimator", "pi", "--big-n", "6"],
              "error: estimator 'pi' needs population-scope links", **LINEAR),
    rejection("estimate_missing_pi_column",
              ["estimate", *FILES, "--estimator", "sri", "--big-n", "4"],
              "error: {sample}: sample header must be unit_id,y,pi, got ['unit_id', 'y']",
              aux="record_id,x1\na,0.5\n", links="unit_id,record_id\n1,a\n",
              sample="unit_id,y\n1,2.0\n"),
    rejection("estimate_rejects_nan_inclusion_probability",
              ["estimate", *FILES, "--estimator", "ht", "--big-n", "4"],
              "error: {sample}:2: not a finite number: 'nan'",
              aux="record_id,x1\na,0.5\nb,0.1\n", links="unit_id,record_id\n1,a\n2,b\n",
              sample="unit_id,y,pi\n1,2.0,nan\n2,3.0,0.5\n"),
    # unit 4 has two links, so the subsample leaves it out, yet its response
    # must still be a number
    rejection("estimate_sub_rejects_nan_response_of_multi_link_unit",
              ["estimate", *FILES, "--estimator", "sub", "--big-n", "10"],
              "error: {sample}:5: not a finite number: 'nan'",
              aux="record_id,x1\na,1\nb,2\nc,3\nd,4\ne,5\n",
              links="unit_id,record_id\n1,a\n2,b\n3,c\n4,d\n4,e\n",
              sample="unit_id,y,pi\n1,2.0,0.5\n2,3.1,0.5\n3,4.2,0.5\n4,nan,0.5\n"),
    rejection("estimate_rejects_unknown_estimator",
              ["estimate", *FILES, "--estimator", "mystery", "--big-n", "6"],
              "error: unknown estimator 'mystery'; choose from ht, pi, sub, sbl, sri, sls",
              **LINEAR),
    # the structure is echoed only once every line of the run is computed
    *(rejection(f"diagnose_rejects_weights_of_neither_kind-{case}", argv,
                "error: incidence weights for record 0 sum to 0.5, not 1", **NEITHER_KIND)
      for case, argv in (
          ("diagnose", ["diagnose", "--aux", "{aux}", "--links", "{links}", "--big-n", "4"]),
          ("diagnose-sample", ["diagnose", *FILES, "--big-n", "4"]),
          ("estimate-pi", ["estimate", *FILES, "--estimator", "pi", "--big-n", "4"]))),
    *(rejection(f"diagnose_checks_the_files_with_or_without_a_sample-{case}-{sample}",
                ["diagnose", "--aux", "{aux}", "--links", "{links}", "--big-n", big_n,
                 *(["--sample", "{sample}"] if sample == "sample" else [])],
                f"error: {message}", aux="record_id,x1\na,1\nb,2\nc,3\n", links=links,
                sample="unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
      for case, links, big_n, message in (
          ("population-size", "unit_id,record_id\n1,a\n2,b\n3,c\n", "2",
           "files reference 3 units but the population size is 2"),
          ("best-link-flags", "unit_id,record_id,is_best\n1,a,0\n1,b,0\n2,b,1\n", "10",
           "unit '1' has multiple links but none flagged as best"))
      for sample in ("no-sample", "sample")),
    rejection("weight_sum_errors_name_file_ids-reverse-estimate",
              ["estimate", *FILES, "--estimator", "sri", "--big-n", "10"],
              "error: reverse weights for unit 7 sum to 1.7000000000000002, not 1",
              links=REVERSE_ID_LINKS, **ID_FILES),
    rejection("weight_sum_errors_name_file_ids-reverse-diagnose",
              ["diagnose", *FILES, "--big-n", "10"],
              "error: reverse weights for unit 7 sum to 1.7000000000000002, not 1",
              links=REVERSE_ID_LINKS, **ID_FILES),
    rejection("weight_sum_errors_name_file_ids-incidence-estimate",
              ["estimate", *FILES, "--estimator", "pi", "--big-n", "3"],
              "error: incidence weights for record b sum to 0.5, not 1",
              links=INCIDENCE_ID_LINKS, **ID_FILES),
    rejection("weight_sum_errors_name_file_ids-incidence-diagnose",
              ["diagnose", *FILES, "--big-n", "3"],
              "error: incidence weights for record b sum to 0.5, not 1",
              links=INCIDENCE_ID_LINKS, **ID_FILES),
    # without a sample, diagnose checks the column on population links only
    rejection("weight_sum_errors_name_file_ids-incidence-diagnose-no-sample",
              ["diagnose", "--aux", "{aux}", "--links", "{links}", "--big-n", "3"],
              "error: incidence weights for record b sum to 0.5, not 1",
              links=INCIDENCE_ID_LINKS, **ID_FILES),
    # these printed inf or nan estimates, with numpy warnings, and exited 0;
    # every estimator is built before any is fitted, so the link-set sums of
    # the build fail the run before the ht fit overflows
    *(rejection(f"values_that_overflow_are_a_numerical_failure-{case}",
                [*command, *FILES, "--big-n", "4"], f"numerical failure: {message}", 2,
                **OVERFLOW)
      for case, command, message in (
          ("all", ["estimate", "--estimator", "ht,pi,sbl,sri,sls"],
           "sls link-set aggregates are not finite: sums or products of the auxiliary "
           "record values overflow"),
          ("pi", ["estimate", "--estimator", "pi"], "normal-equation matrix is not finite"),
          ("sbl", ["estimate", "--estimator", "sbl"], "normal-equation matrix is not finite"),
          ("sri", ["estimate", "--estimator", "sri"], "normal-equation matrix is not finite"),
          ("sls", ["estimate", "--estimator", "sls"],
           "sls link-set aggregates are not finite: sums or products of the auxiliary "
           "record values overflow"),
          ("diagnose", ["diagnose"], "sri consistency diagnostic is not finite: sums or "
           "squares of its per-unit contributions overflow"))),
    rejection("diagnose_rejects_a_negative_limit",
              ["diagnose", "--aux", "{aux}", "--links", "{links}", "--limit", "-1"],
              "error: --limit must be nonnegative, got -1",
              aux="record_id,x1\na,1\nb,2\nc,3\n", links="unit_id,record_id\n1,a\n2,b\n3,c\n"),
    rejection("diagnose_unknown_record_exits_with_validation_code",
              ["diagnose", "--aux", "{aux}", "--links", "{links}"],
              "error: link file references unknown record 'zz'",
              aux="record_id,x1\na,0.5\nb,0.1\n", links="unit_id,record_id\n1,a\n2,zz\n"),
    rejection("repeated_link_names_its_file_ids-diagnose",
              ["diagnose", "--aux", "{aux}", "--links", "{links}"],
              "error: link file repeats the link of unit '7' to record 'b'", **REPEATED_LINK),
    rejection("repeated_link_names_its_file_ids-estimate",
              ["estimate", *FILES, "--big-n", "10"],
              "error: link file repeats the link of unit '7' to record 'b'", **REPEATED_LINK),
    rejection("diagnose_rejects_non_utf8_file",
              ["diagnose", "--aux", "{aux}", "--links", "{links}"],
              "error: {aux}: not UTF-8 text (byte 0xff: invalid start byte)",
              aux=b"record_id,x1\na,0.5\nb,\xff\n", links="unit_id,record_id\n1,a\n"),
    rejection("diagnose_rejects_unparsable_csv",
              ["diagnose", "--aux", "{aux}", "--links", "{links}"],
              "error: {aux}:3: field larger than field limit (131072)",
              aux="record_id,x1\na,0.5\nb," + "9" * 200_000 + "\n",
              links="unit_id,record_id\n1,a\n"),
    rejection("estimate_rejects_nan_link_weight",
              ["estimate", *FILES, "--estimator", "sri", "--big-n", "10"],
              "error: {links}:2: not a finite number: 'nan'",
              aux="record_id,x1\na,1\nb,2\n",
              links="unit_id,record_id,weight\n1,a,nan\n1,b,nan\n2,b,1.0\n",
              sample="unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n"),
    rejection("estimate_sls_needs_as_many_links_as_model_columns",
              ["estimate", *FILES, "--estimator", "sls", "--big-n", "10"],
              "error: need at least 2 links, got 1",
              aux="record_id,x1\na,1\nb,2\n", links="unit_id,record_id\n1,a\n2,b\n",
              sample="unit_id,y,pi\n1,2.0,0.5\n"),
    rejection("missing_file_exits_with_validation_code",
              ["simulate", "{tmp}/nope.scenario"],
              "error: [Errno 2] No such file or directory: '{tmp}/nope.scenario'"),
    rejection("oracle_guard", ["oracle", "--big-n", "30", "--n", "15"],
              "numerical failure: C(30,15) exceeds the enumeration guard of 1000000", 2),
    # unit ids are int64: N = 10**200 overflowed a float in the variance with a
    # traceback, as 10**100 did not; a scenario of 10**30 units exceeded
    # numpy's largest dimension; the oracle's guard reported 2**63 as exit 2
    rejection("a_population_of_2_63_units_or_more_is_one_error_line-estimate",
              ["estimate", *FILES, "--big-n", str(10**200)],
              f"error: population size {10**200} is not below 2**63", **LINEAR),
    rejection("a_population_of_2_63_units_or_more_is_one_error_line-diagnose",
              ["diagnose", *FILES, "--big-n", str(10**200)],
              f"error: population size {10**200} is not below 2**63", **LINEAR),
    rejection("a_population_of_2_63_units_or_more_is_one_error_line-simulate",
              ["simulate", "{scenario}"],
              "error: {scenario}: block 1: population size "
              f"{10**30} is not below 2**63",
              scenario=f"name = huge\npopulation = {10**30}\nsample = 100\nreplicates = 30\n"),
    rejection("a_population_of_2_63_units_or_more_is_one_error_line-oracle",
              ["oracle", "--big-n", str(2**63), "--n", "3"],
              f"error: population size {2**63} is not below 2**63"),
    # n = N draws one sample every replicate: HT's variance is 0, so RE and
    # RMSE are undefined and the block is refused before it runs
    rejection("simulate_census_scenario_exits_with_error", ["simulate", "{scenario}"],
              "error: {scenario}: block 1: sample size 50 outside 2..49",
              scenario="population = 50\nsample = 50\nreplicates = 20\n"),
    # every block holds one linkage fixed over its replicates
    rejection("simulate_rejects_the_redraw_linkage_key", ["simulate", "{scenario}"],
              "error: {scenario}:4: unknown scenario key 'redraw_linkage'",
              scenario=SMALL_SCENARIO + "redraw_linkage = true\n"),
    # the first block ran in full before the second one's linkage draw failed
    rejection("simulate_checks_every_block_before_the_first_runs",
              ["simulate", "{scenario}"],
              "error: {scenario}: block 2: a unit can need 3 distinct false links, but "
              "only 2 other records exist",
              scenario=f"{SMALL_SCENARIO}\npopulation = 3\nsample = 2\nreplicates = 2\n"),
    # both blocks went to res_a.csv, which kept the second one only
    rejection("simulate_rejects_repeated_block_names_before_writing",
              ["simulate", "{scenario}", "--out", "{tmp}/out/res"],
              "error: {scenario}: block 2 repeats the name 'a' of block 1",
              scenario=f"name = a\n{SMALL_SCENARIO}\nname = a\n{SMALL_SCENARIO}"),
    # the blocks used to run and print before --out failed on res_a/b.csv
    rejection("simulate_rejects_a_path_in_a_block_name_before_running",
              ["simulate", "{scenario}", "--out", "{tmp}/out/res"],
              "error: {scenario}: block 1: name 'a/b' cannot be part of a file name",
              scenario=f"name = a/b\n{SMALL_SCENARIO}"),
    *(rejection(f"simulate_rejects_a_bad_worker_count-{workers}",
                ["simulate", "{scenario}", f"--workers={workers}"], f"error: {message}",
                scenario=SMALL_SCENARIO)
      for workers, message in (
          ("0", "--workers must be at least 1, got 0"),
          ("-2", "--workers must be at least 1, got -2"),
          ("two", "argument --workers: invalid int value: 'two'"))),
    # argparse exited 2, the code of a numerical failure; the files named
    # are never read
    *(rejection(f"malformed_options_exit_with_validation_code-{case}", argv, message)
      for case, argv, message in (
          ("simulate-k", ["simulate", "s.scenario", "--k", "abc"],
           "error: argument --k/--replicates: invalid int value: 'abc'"),
          ("simulate-seed", ["simulate", "s.scenario", "--seed", "x"],
           "error: argument --seed: invalid int value: 'x'"),
          ("estimate-big-n", ["estimate", "--sample", "s.csv", "--aux", "a.csv",
                              "--links", "l.csv", "--big-n", "x"],
           "error: argument --big-n: invalid int value: 'x'"),
          # the list of choices is quoted differently across Python versions
          ("estimate-target", ["estimate", "--sample", "s.csv", "--aux", "a.csv",
                               "--links", "l.csv", "--big-n", "5", "--target", "bogus"],
           re.compile(r"error: argument --target: invalid choice: 'bogus' "
                      r"\(choose from '?total'?, '?mean'?\)")),
          ("estimate-missing-links", ["estimate", "--sample", "s.csv", "--aux", "a.csv",
                                      "--big-n", "5"],
           "error: the following arguments are required: --links"),
          ("diagnose-limit", ["diagnose", "--aux", "a.csv", "--links", "l.csv",
                              "--limit", "many"],
           "error: argument --limit: invalid int value: 'many'"),
          ("oracle-missing-n", ["oracle", "--big-n", "8"],
           "error: the following arguments are required: --n"),
          ("oracle-unknown", ["oracle", "--big-n", "8", "--n", "3", "--unknown", "1"],
           "error: unrecognized arguments: --unknown 1"),
          ("no-command", [], "error: the following arguments are required: command"))),
    # ht ignores q, so these ran to exit 0, or printed the ht estimate or the
    # echo before sri or the sample's diagnostics failed on it; the files'
    # sampled units have one link each and no flags, the one file that gives
    # sri best-link weights
    *(rejection(f"q_is_checked_before_any_file_is_read-{case}",
                [*command, *FILES[2:], "--q", "5", *extra],
                "error: --q must lie in (0, 1], got 5.0", **LINEAR)
      for case, command, extra in (
          ("estimate-ht", ["estimate", "--estimator", "ht"], FILES[:2] + ("--big-n", "6")),
          ("estimate-ht-sri", ["estimate", "--estimator", "ht,sri"],
           FILES[:2] + ("--big-n", "6")),
          ("diagnose", ["diagnose"], ()),
          ("diagnose-sample", ["diagnose"], FILES[:2] + ("--big-n", "6")))),
    # the block printed two HT columns and wrote every HT row twice to --out
    rejection("a_repeated_estimator_in_a_scenario_block_is_rejected",
              ["simulate", "{scenario}", "--out", "{tmp}/out/res"],
              "error: {scenario}: block 1: repeated estimator 'ht'",
              scenario=SMALL_SCENARIO + "estimators = ht,ht,sri-q\n"),
    # the same estimate was printed twice
    rejection("a_repeated_estimate_estimator_is_rejected",
              ["estimate", *FILES, "--estimator", "sri, ht,sri", "--big-n", "6"],
              "error: repeated estimator 'sri'", **LINEAR),
    rejection("rarely_taken_errors_exit_with_validation_code-no-blocks",
              ["simulate", "{scenario}"], "error: {scenario}: no scenario blocks found",
              scenario="# nothing here\n\n"),
    rejection("rarely_taken_errors_exit_with_validation_code-no-estimator",
              ["estimate", *FILES, "--estimator", ",", "--big-n", "6"],
              "error: no estimator requested", **LINEAR),
    rejection("rarely_taken_errors_exit_with_validation_code-sample-without-big-n",
              ["diagnose", *FILES], "error: a sample file needs the population size", **LINEAR),
    # the block ran and printed a table without columns, exit 0
    rejection("rarely_taken_errors_exit_with_validation_code-no-block-estimator",
              ["simulate", "{scenario}"], "error: {scenario}: block 1: no estimator requested",
              scenario=SMALL_SCENARIO + "estimators =\n"),
    rejection("rarely_taken_errors_exit_with_validation_code-empty-csv",
              ["diagnose", "--aux", "{aux}", "--links", "{links}"],
              "error: {aux}: empty file, header row required",
              aux="", links=LINEAR["links"]),
    rejection("rarely_taken_errors_exit_with_validation_code-line-without-equals",
              ["simulate", "{scenario}"],
              "error: {scenario}:2: expected 'key = value', got 'sample 10'",
              scenario="population = 50\nsample 10\n"),
    rejection("rarely_taken_errors_exit_with_validation_code-median-target",
              ["simulate", "{scenario}"], "error: {scenario}: block 1: unknown target 'median'",
              scenario=SMALL_SCENARIO + "target = median\n"),
    # nan slipped past every bound, and sigma = inf too: the run went on until
    # the replicate loop failed on a non-finite value, or a later bound
    # reported nan for another parameter
    *(rejection(f"non_finite_model_parameters_are_rejected_by_name-{value}-{key}",
                ["simulate", "{scenario}"], "error: {scenario}: block 1: " + message,
                scenario=f"{SMALL_SCENARIO}{key} = {value}\n")
      for value in ("nan", "inf")
      for key, message in (
          ("sigma", f"sigma must be positive and finite, got {value}"),
          ("p1", f"link shares must be three numbers in [0, 1], got ({value}, 0.4, 0.4)"),
          ("match_rate", f"match rate {value} outside [0.2, 1] (every single-link unit "
                         "is matched)"))),
    *(rejection(f"non_finite_model_parameters_are_rejected_by_name-{value}-oracle",
                [*ORACLE, "--sigma", value],
                f"error: sigma must be positive and finite, got {value}")
      for value in ("nan", "inf")),
    # numpy's seeding would raise a bare ValueError on them
    rejection("negative_seeds_are_rejected_where_they_enter---seed",
              ["simulate", "{scenario}", "--seed", "-1"],
              "error: seed must be nonnegative, got -1", scenario=SMALL_SCENARIO),
    rejection("negative_seeds_are_rejected_where_they_enter-scenario",
              ["simulate", "{scenario}"],
              "error: {scenario}: block 1: seed must be nonnegative, got -2",
              scenario=SMALL_SCENARIO + "seed = -2\n"),
    rejection("negative_seeds_are_rejected_where_they_enter-oracle",
              [*ORACLE, "--seed", "-1"], "error: --seed must be nonnegative, got -1"),
    # one unit per sample leaves no variance estimator: the oracle printed a
    # nan deviation with exit 0, and a block failed every replicate of the
    # ideal estimator with exit 2
    rejection("one_unit_samples_are_rejected_where_they_enter-scenario",
              ["simulate", "{scenario}"],
              "error: {scenario}: block 1: sample size 1 outside 2..49",
              scenario="population = 50\nsample = 1\nreplicates = 40\n"),
    rejection("one_unit_samples_are_rejected_where_they_enter-oracle",
              ["oracle", "--big-n", "8", "--n", "1"], "error: --n must be at least 2, got 1"),
    rejection("simulate_malformed_key_exits_nonzero", ["simulate", "{scenario}"],
              "error: {scenario}:4: unknown scenario key 'not_a_key'",
              scenario="population = 300\nsample = 40\nreplicates = 40\nnot_a_key = 1\n"),
    rejection("estimate_sbl_needs_best_flags",
              ["estimate", *FILES, "--estimator", "sbl", "--big-n", "10"],
              "error: estimator 'sbl' needs best links (an is_best column in the link file)",
              aux="record_id,x1\na,1\nb,2\n", links="unit_id,record_id\n1,a\n1,b\n2,b\n",
              sample="unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n"),
    # the estimators were built over the sampled units' links only, so unit
    # 3's weights went unchecked and the run exited 0
    *(rejection(f"weights_are_checked_on_unsampled_units-{estimator}",
                ["estimate", *FILES, "--big-n", "4", "--estimator", estimator],
                "error: reverse weights for unit 3 sum to 1.4, not 1",
                **{**UNSAMPLED_TWO_LINK, "links": "unit_id,record_id,weight\n"
                   "1,a,1.0\n2,b,1.0\n3,c,0.5\n3,d,0.9\n"})
      for estimator in ("sri", "sls")),
    # the sampled units' only links stood in for best links, though unit 3
    # has two links and no flag
    rejection("sbl_takes_only_links_as_best_only_when_every_unit_has_one",
              ["estimate", *FILES, "--big-n", "4", "--estimator", "sbl"],
              "error: estimator 'sbl' needs best links (an is_best column in the link file)",
              **UNSAMPLED_TWO_LINK),
    # the estimates before the failing one were printed, then the run exited 1
    rejection("a_failed_estimate_prints_no_estimate-unknown",
              ["estimate", *FILES, "--big-n", "4", "--estimator", "ht,mystery"],
              "error: unknown estimator 'mystery'; choose from ht, pi, sub, sbl, sri, sls",
              **UNSAMPLED_TWO_LINK),
    # the name is checked before any file is read
    rejection("a_failed_estimate_prints_no_estimate-unknown-no-files",
              ["estimate", "--sample", "{tmp}/missing.csv", "--aux", "{tmp}/missing.csv",
               "--links", "{tmp}/missing.csv", "--big-n", "4", "--estimator", "ht,mystery"],
              "error: unknown estimator 'mystery'; choose from ht, pi, sub, sbl, sri, sls"),
    rejection("a_failed_estimate_prints_no_estimate-sub-fails-last",
              ["estimate", *FILES, "--big-n", "4", "--estimator", "sri,sls,sub"],
              "error: subsample too small: 2 single-link units for 2 model columns",
              **UNSAMPLED_TWO_LINK),
]


@pytest.mark.parametrize("files, argv, code, stderr", REJECTIONS)
def test_command_is_rejected(tmp_path, files, argv, code, stderr):
    paths = {**write_files(tmp_path, **files), "tmp": str(tmp_path)}
    got, out, err = _run_main([arg.format(**paths) for arg in argv])
    assert (got, out) == (code, "")
    line, newline, rest = err.partition("\n")
    assert (newline, rest) == ("\n", ""), err
    if isinstance(stderr, re.Pattern):
        assert stderr.fullmatch(line), line
    else:
        assert line == stderr.format(**paths)
    # nothing is written before the command fails
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(paths[name]).name for name in files)


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


def test_a_fit_without_residual_degrees_of_freedom_has_no_variance(tmp_path):
    # two sampled units fit 2 model columns with zero residuals: sbl and sri
    # printed SE 3.14018e-16 and sls SE 0, with exit 0; ht fits no model
    paths = write_files(tmp_path, aux="record_id,x1\na,1\nb,2\nc,4\n",
                        links="unit_id,record_id\n1,a\n2,b\n3,c\n",
                        sample="unit_id,y,pi\n1,2.0,0.5\n2,3.5,0.5\n")
    code, out, err = _run_main(["estimate", *(a.format(**paths) for a in FILES),
                                "--big-n", "4", "--estimator", "ht,sbl,sri,sls"])
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("standard error")] == [
        "standard error: 2.12132", *["standard error: unavailable"] * 3]


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


def test_oracle_identities(capsys):
    code = main(["oracle", "--big-n", "8", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if "deviation" in line:
            assert float(line.rsplit(" ", 1)[1]) <= 1e-10


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
    # records were redrawn from the two other records forever. The block is
    # rejected as the file is read, before any block runs
    scenario = write(tmp_path / "s.scenario",
                     "name = tiny\npopulation = 3\nsample = 2\nreplicates = 2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "greglink.cli", "simulate", scenario],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"error: {scenario}: block 1: a unit can need 3 distinct false "
                          "links, but only 2 other records exist\n")


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


def test_simulate_reads_no_worker_variable(tmp_path, capsys, monkeypatch):
    # --workers is the one way to set the worker count; GREGLINK_WORKERS was
    # a second one
    monkeypatch.setenv("GREGLINK_WORKERS", "two")
    scenario = write(tmp_path / "s.scenario",
                     "population = 50\nsample = 10\nreplicates = 2\n")
    assert main(["simulate", scenario]) == 0
    assert "GREGLINK_WORKERS" not in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "--big-n" in capsys.readouterr().out


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


def test_diagnose_has_no_sbl_line_without_best_links(tmp_path, capsys):
    # the sbl line was printed on the sampled units' only links
    files = write_files(tmp_path, **UNSAMPLED_TWO_LINK)
    assert main(["diagnose", *(arg.format(**files) for arg in FILES), "--big-n", "4"]) == 0
    diagnostics = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("consistency diagnostic")]
    assert diagnostics == ["consistency diagnostic (sri)", "consistency diagnostic (sls)"]


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
    """``count`` numbers: most often distinct quarters in [-10, 10]; at times
    all one number, halves that repeat, or some of them ±1e308, whose sums and
    products overflow."""
    shape = draw(st.sampled_from(["distinct"] * 5 + ["one", "repeats", "extreme"]))
    if shape == "one":
        return [draw(st.integers(-6, 6)) / 2] * count
    if shape == "repeats":
        return [draw(st.integers(-6, 6)) / 2 for _ in range(count)]
    values = [v / 4 for v in draw(st.lists(st.integers(-40, 40), min_size=count,
                                           max_size=count, unique=True))]
    if shape == "extreme":
        for i in draw(st.sets(st.integers(0, count - 1), min_size=1)):
            values[i] = draw(st.sampled_from([1e308, -1e308]))
    return values


@st.composite
def contract_files(draw):
    """Texts of a small aux, link and sample file, and the population size.

    Most draws are files a regression estimator fits: distinct record values,
    many single-link units, a weight column of one kind or none, one best
    link flagged per unit, and samples of any size. The rest hold constant or
    overflowing values, drawn weights or drawn flags."""
    # the simplest draw is 12 units, each linked to its own record alone
    n_population = 12 - draw(st.integers(0, 11))
    n_records = max(1, n_population + draw(st.integers(-3, 3)))
    dim = draw(st.integers(1, 2))
    columns = [_numbers(draw, n_records) for _ in range(dim)]
    aux = "record_id," + ",".join(f"x{j + 1}" for j in range(dim)) + "\n" + "".join(
        f"r{r}," + ",".join(repr(c[r]) for c in columns) + "\n" for r in range(n_records))

    linked = list(range(n_population))
    if draw(st.integers(0, 2)) == 2:  # sample scope
        linked = sorted(draw(st.permutations(linked))[:draw(st.integers(1, n_population))])
    links = []
    for u in linked:
        offsets = draw(st.permutations(range(n_records)))
        d = min(draw(st.sampled_from([1, 1, 1, 2, 3])), n_records)
        links += [(u, r) for r in sorted((u + k) % n_records for k in offsets[:d])]
    degree = {u: sum(lu == u for lu, _ in links) for u in linked}
    multiplicity = {r: sum(lr == r for _, lr in links) for _, r in links}
    weight = draw(st.sampled_from([None, None, None, "reverse", "incidence", "drawn"]))
    weights = {None: None,
               "reverse": [1 / degree[u] for u, _ in links],
               "incidence": [1 / multiplicity[r] for _, r in links],
               "drawn": [draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in links]}[weight]
    best = draw(st.sampled_from(["one per unit", "one per unit", None, "drawn"]))
    if best == "one per unit":
        chosen = {u: draw(st.sampled_from([r for lu, r in links if lu == u])) for u in linked}
        flags = [int(chosen[u] == r) for u, r in links]
    elif best == "drawn":
        flags = [draw(st.integers(0, 1)) for _ in links]
    header = "unit_id,record_id" + (",weight" if weights else "") + (",is_best" if best else "")
    rows = [f"{u + 1},r{r}" + (f",{weights[i]!r}" if weights else "")
            + (f",{flags[i]}" if best else "") for i, (u, r) in enumerate(links)]
    links_text = "\n".join([header, *rows]) + "\n"

    # most samples leave the fits residual degrees of freedom
    any_size = draw(st.sampled_from([False] * 9 + [True]))
    fewest = 1 if any_size else min(2 * dim + 3, len(linked))
    size = draw(st.integers(fewest, len(linked)))
    sampled = sorted(draw(st.permutations(linked))[:size])
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
    # exit 1 or 2 with nothing on stdout and one error line. Outside a
    # census, a fit of dim + 1 columns on at most as many units leaves no
    # residual degrees of freedom, so its variance is unavailable
    aux, links, sample, n_population = files
    n_sampled = len(sample.splitlines()) - 1
    census = n_sampled == n_population
    no_df = not census and n_sampled <= aux.splitlines()[0].count(",") + 1
    folder = tmp_path_factory.getbasetemp()
    paths = [write(folder / name, text) for name, text in
             (("contract_aux.csv", aux), ("contract_links.csv", links),
              ("contract_sample.csv", sample))]
    common = ["--aux", paths[0], "--links", paths[1], "--sample", paths[2],
              "--big-n", str(n_population)]

    def check(argv):
        code, out, err = _run_main(argv)
        if code == 0:
            assert err == ""
            fitted = False
            for line in out.splitlines():
                key, _, value = line.partition(": ")
                if key == "estimator":
                    fitted = value in ("pi", "sbl", "sri", "sls")
                if key in ("point estimate", "variance estimate", "standard error"):
                    assert value == "unavailable" or math.isfinite(float(value)), line
                if key in ("variance estimate", "standard error") and no_df and fitted:
                    assert value == "unavailable", line
                if key.startswith("consistency diagnostic"):
                    zs = re.findall(r" z ([^,]+)", value)
                    assert census or not {"inf", "-inf"} & set(zs), line
        else:
            assert code in (1, 2) and out == ""
            assert re.fullmatch(r"(error|numerical failure): [^\n]*\n", err), err
        return code

    estimate = ["estimate", *common, "--target", target, "--estimator"]
    if check([*estimate, ",".join(FILE_ESTIMATORS)]) != 0:
        # one estimator's failed precondition rejects the whole run, so each
        # estimator runs alone too
        for estimator in FILE_ESTIMATORS:
            check([*estimate, estimator])
    check(["diagnose", *common])
