"""File ingestion and the command-line surface."""

import numpy as np
import pytest

from greglink.cli import estimate_from_inputs, main
from greglink.dataio import (
    assemble_estimation_inputs,
    read_aux_csv,
    write_aux_csv,
    write_links_csv,
    write_sample_csv,
)
from greglink.design import draw_srswor, rng_stream
from greglink.errors import ValidationError
from greglink.estimators import GregSpec, greg
from greglink.linkage import (
    AuxDatabase,
    build_linkage,
    derive_covariates,
    reverse_weights_best_link,
)
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population


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
    est, diag = estimate_from_inputs(inputs, "sri", "mean", 0.4)
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
        est, _ = estimate_from_inputs(inputs, estimator, "mean", 0.4)
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
    assert "inclusion probabilities" in capsys.readouterr().err


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


def test_diagnose_with_sample_prints_statistics(linear_fixture, capsys):
    sample, aux, links = linear_fixture
    code = main(["diagnose", "--aux", aux, "--links", links,
                 "--sample", sample, "--big-n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "consistency diagnostic (sri)" in out
    assert "consistency diagnostic (sls)" in out


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
    matches, linkage, best = gen_linkage(n_population, model, rng_stream(42, 1))
    sample = draw_srswor(n_population, n, rng_stream(42, 2))

    sub_linkage, link_index = linkage.restrict(sample.ids)
    best_sub = best[sample.ids]
    scheme = reverse_weights_best_link(sub_linkage, best_sub, 0.4)
    derived = derive_covariates(sub_linkage, scheme, aux)
    spec = GregSpec(covariates=derived.weighted,
                    total=n_population * aux.mean, tag="sri")
    reference = greg(spec, population.y[sample.ids], sample, target="total")

    aux_path = tmp_path / "aux.csv"
    links_path = tmp_path / "links.csv"
    sample_path = tmp_path / "sample.csv"
    write_aux_csv(aux_path, aux)
    write_links_csv(links_path, sub_linkage, best_links=best_sub)
    write_sample_csv(sample_path, sample, population.y[sample.ids])

    inputs = assemble_estimation_inputs(sample_path, aux_path, links_path,
                                        n_population)
    est, _ = estimate_from_inputs(inputs, "sri", "total", 0.4)
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


def test_assemble_weight_column_used_for_reverse_scheme(tmp_path):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\n")
    links = write(tmp_path / "links.csv",
                  "unit_id,record_id,weight\n1,a,0.8\n1,b,0.2\n2,b,1.0\n")
    sample = write(tmp_path / "sample.csv",
                   "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    inputs = assemble_estimation_inputs(sample, aux, links, 10)
    est, _ = estimate_from_inputs(inputs, "sri", "total", 0.4)
    assert est.value == pytest.approx(est.value)  # runs without error
    # a bad weight column is rejected through the scheme validator
    bad_links = write(tmp_path / "bad_links.csv",
                      "unit_id,record_id,weight\n1,a,0.8\n1,b,0.9\n2,b,1.0\n")
    bad = assemble_estimation_inputs(sample, aux, bad_links, 10)
    with pytest.raises(ValidationError, match="sum to"):
        estimate_from_inputs(bad, "sri", "total", 0.4)


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
