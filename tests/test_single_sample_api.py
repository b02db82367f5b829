"""The single-sample API's own contracts.

``ht_total``, ``GregSpec``, ``greg``, ``sub_greg``, ``sls_greg``,
``best_link_indicator_weights`` and the two ``restrict`` methods validate
one sample and run the batched kernels on it. No package code calls them;
they remain while the benchmark's tracer looks each of them up. Every other
test fits through ``build_estimators`` and ``fit_unit_inputs``, or through
the kernels, and this module goes with the names.
"""

import numpy as np
import pytest

from greglink.design import Sample, SurveyDesign, draw_srswor, ht_total, rng_stream
from greglink.errors import ValidationError
from greglink.estimators import (
    GregSpec,
    greg,
    greg_batch,
    link_aggregates,
    sls_greg,
    sls_greg_batch,
    sub_greg,
    with_intercept,
)
from greglink.linkage import (
    AuxDatabase,
    WeightScheme,
    best_link_indicator_weights,
    build_linkage,
    multiplicity_weights,
    reverse_weights_best_link,
)
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population
from support import EXAMPLE_LINKS, EXAMPLE_X, perfect_linkage_setting


@pytest.fixture
def example_population_links():
    return build_linkage(EXAMPLE_LINKS, 6, AuxDatabase.from_values(EXAMPLE_X))


def test_ht_total_needs_one_value_per_sampled_unit():
    design = SurveyDesign(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    with pytest.raises(ValidationError):
        ht_total(np.array([1.0]), sample)


def test_greg_spec_rejects_non_finite_inputs():
    x = np.array([[0.1], [0.5], [0.9]])
    with pytest.raises(ValidationError, match="covariates must be finite"):
        GregSpec(covariates=np.array([[0.1], [np.nan], [0.9]]), total=np.array([5.0]))
    for total in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="total must be finite"):
            GregSpec(covariates=x, total=np.array([total]))


def test_greg_batch_rows_match_single_sample_calls():
    rng = rng_stream(9, 0)
    x_pop = rng.uniform(size=(60, 1))
    y_pop = 1.0 + 2.0 * x_pop[:, 0] + rng.normal(size=60)
    samples = [draw_srswor(60, 12, rng_stream(9, 1, k)) for k in range(4)]
    ids = np.stack([s.ids for s in samples])
    total = np.concatenate([[60.0], x_pop.sum(axis=0)])
    batch = greg_batch(with_intercept(x_pop[ids]), y_pop[ids],
                       np.stack([s.pi for s in samples]), total,
                       samples[0].design, target="mean")
    for k, sample in enumerate(samples):
        spec = GregSpec(covariates=x_pop[sample.ids], total=x_pop.sum(axis=0))
        est = greg(spec, y_pop[sample.ids], sample, target="mean")
        assert batch.values[k] == est.value
        assert batch.variances[k] == est.variance


def test_population_link_aggregates_restrict_to_sample_aggregates():
    # the harness gathers population-scope aggregates at the sampled units;
    # the file path builds them on the restricted linkage: both must agree
    rng = rng_stream(10, 0)
    x, population = gen_population(PopulationModel(n_units=300), rng)
    aux = AuxDatabase.from_values(x)
    model = LinkageModel(link_share=(0.3, 0.4, 0.3), match_rate=0.7,
                         correct_best_rate=0.5)
    _, links, best = gen_linkage(300, model, rng_stream(10, 1))
    scheme = reverse_weights_best_link(links, best, 0.6)
    aggregates = link_aggregates(links, scheme.values, aux)
    sample = draw_srswor(300, 40, rng_stream(10, 2))
    sub, link_index = links.restrict(sample.ids)
    est = sls_greg(sub, scheme.restrict(sub, link_index), aux,
                   population.y[sample.ids], sample, target="mean")
    batch = sls_greg_batch(*(a[sample.ids][None] for a in aggregates),
                           population.y[sample.ids][None], sample.pi[None],
                           sample.design, aux.mean, target="mean")
    assert batch.values[0] == est.value
    assert batch.variances[0] == est.variance


def test_sub_greg_fixed_coefficients_difference_form():
    _, y, aux, linkage, sample = perfect_linkage_setting()
    coef = np.array([1.0, 5.0])
    est = sub_greg(y[sample.ids], aux.x[sample.ids], aux.mean, sample.design,
                   coefficients=coef, target="mean")
    residuals = y[sample.ids] - (coef[0] + coef[1] * aux.x[sample.ids, 0])
    expected = coef[0] + coef[1] * aux.mean[0] + residuals.mean()
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_sub_greg_too_small():
    design = SurveyDesign(40, 10)
    with pytest.raises(ValidationError, match="subsample too small"):
        sub_greg(np.array([1.0, 2.0]), np.array([[1.0], [2.0]]),
                 np.array([0.5]), design)


def test_sls_requires_matching_links():
    x, y, aux, linkage, sample = perfect_linkage_setting()
    scheme = reverse_weights_best_link(linkage, np.arange(30), 0.4)
    with pytest.raises(ValidationError, match="sample's own links"):
        sls_greg(linkage, scheme, aux, y[sample.ids], sample)


def test_indicator_weights_point_mass():
    aux = AuxDatabase.from_values(np.arange(4.0))
    L = build_linkage([(0, 0), (0, 1), (0, 2), (1, 3)], [0, 1], aux)
    scheme = best_link_indicator_weights(L, np.array([1, 3]))
    w = {(int(u), int(r)): v
         for u, r, v in zip(L.link_units, L.link_records, scheme.values)}
    assert w == {(0, 0): 0.0, (0, 1): 1.0, (0, 2): 0.0, (1, 3): 1.0}


def test_indicator_weights_shared_best_record():
    # two units may share a best record: valid for reverse weights even
    # though the record-side weights then sum to 2
    aux = AuxDatabase.from_values(np.arange(3.0))
    L = build_linkage([(0, 0), (0, 1), (1, 0), (1, 2)], [0, 1], aux)
    scheme = best_link_indicator_weights(L, np.array([0, 0]))
    record_sums = np.bincount(L.link_records, weights=scheme.values, minlength=3)
    assert record_sums[0] == 2.0
    with pytest.raises(ValidationError):
        WeightScheme(kind="incidence", linkage=L, values=scheme.values)


def test_restrict_carries_reverse_weights(example_population_links):
    L = example_population_links
    scheme = reverse_weights_best_link(L, np.array([1, 1, 2, 3, 5, 5]), 0.4)
    sub, link_index = L.restrict(np.array([2, 3]))
    assert sub.scope == "sample"
    restricted = scheme.restrict(sub, link_index)
    assert list(sub.records_of(3)) == [2, 3, 4]
    # per-unit sums still 1 after restriction
    sums = np.add.reduceat(restricted.values, sub._unit_ptr[:-1])
    assert np.allclose(sums, 1.0)
    with pytest.raises(ValidationError):
        multiplicity_weights(L).restrict(sub, link_index)


def test_restrict_link_index_matches_per_unit_positions(example_population_links):
    L = example_population_links
    units = np.array([5, 0, 3, 2, 3])
    sub, link_index = L.restrict(units)
    expected = np.concatenate([np.flatnonzero(L.link_units == u) for u in sub.covered_units])
    assert link_index.dtype == np.int64
    assert np.array_equal(link_index, expected)
    assert np.array_equal(sub.link_records, L.link_records[expected])
