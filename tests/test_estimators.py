"""The weighted least-squares engine and the estimator family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greglink.design import (
    SurveyDesign,
    draw_srswor,
    ht_total,
    residual_variances,
    rng_stream,
)
from greglink.errors import NumericalError, ValidationError
from greglink.estimators import (
    DIAGNOSTIC_KINDS,
    DiagnosticsReport,
    GregSpec,
    build_unit_inputs,
    consistency_diagnostics,
    greg,
    greg_batch,
    link_aggregates,
    link_sums,
    npa_covariances,
    sls_greg,
    sls_greg_batch,
    sub_greg,
    with_intercept,
    wls_coefficients,
)
from greglink.linkage import (
    AuxDatabase,
    best_link_indicator_weights,
    build_linkage,
    derive_covariates,
    multiplicity_weights,
    reverse_weights_best_link,
)
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population


def test_wls_exact_fit_recovers_coefficients():
    rng = rng_stream(1, 0)
    x = np.column_stack([np.ones(20), rng.uniform(size=20), rng.normal(size=20)])
    beta = np.array([2.0, -1.0, 0.5])
    b = wls_coefficients(x, x @ beta, rng.uniform(0.5, 2.0, size=20))
    assert b == pytest.approx(beta, rel=1e-10)


def test_wls_intercept_only_is_weighted_ratio():
    y = np.array([1.0, 2.0, 6.0])
    w = np.array([2.0, 1.0, 1.0])
    b = wls_coefficients(np.ones((3, 1)), y, w)
    assert b[0] == pytest.approx((w * y).sum() / w.sum())


def test_wls_three_point_hand_example():
    # (1,1),(2,3),(3,4) with intercept+slope: normal equations give
    # slope 3/2 and intercept -1/3
    x = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([1.0, 3.0, 4.0])
    b = wls_coefficients(x, y, np.ones(3))
    assert b == pytest.approx([-1.0 / 3.0, 1.5], rel=1e-12)


def test_wls_rejects_collinear_columns():
    rng = rng_stream(2, 0)
    u = rng.uniform(size=10)
    x = np.column_stack([np.ones(10), u, 2 * u])
    with pytest.raises(NumericalError, match="collinear"):
        wls_coefficients(x, rng.normal(size=10), np.ones(10))


def test_wls_rejects_underdetermined():
    with pytest.raises(ValidationError, match="at least"):
        wls_coefficients(np.ones((1, 2)), np.ones(1), np.ones(1))


def _simple_sample(n_population=40, n=10, seed=3):
    return draw_srswor(n_population, n, rng_stream(seed, 0))


def test_regression_estimators_reject_non_finite_responses():
    sample = draw_srswor(10, 3, rng_stream(3, 0))
    y = np.array([1.0, np.nan, 3.0])
    spec = GregSpec(covariates=np.array([[0.1], [0.5], [0.9]]), total=np.array([5.0]))
    with pytest.raises(ValidationError, match="non-finite"):
        greg(spec, y, sample)
    with pytest.raises(ValidationError, match="non-finite"):
        sub_greg(y, spec.covariates, np.array([0.5]), sample.design,
                 coefficients=np.array([1.0, 2.0]))


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


def test_greg_batch_marks_singular_fits_nan():
    x = np.stack([with_intercept(np.array([[0.1], [0.5], [0.9]])),
                  with_intercept(np.full((3, 1), 0.5))])
    y = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    batch = greg_batch(x, y, np.full((2, 3), 0.3), np.array([10.0, 5.0]),
                       SurveyDesign(10, 3))
    assert np.isfinite(batch.values[0]) and np.isfinite(batch.variances[0])
    assert np.isnan(batch.values[1]) and np.isnan(batch.variances[1])


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


def test_greg_intercept_only_equals_ht():
    sample = _simple_sample()
    y = rng_stream(4, 0).normal(size=sample.n)
    spec = GregSpec(covariates=np.empty((sample.n, 0)), total=np.empty(0),
                    tag="greg")
    est = greg(spec, y, sample)
    ht = ht_total(y, sample)
    assert est.value == pytest.approx(ht.value, rel=1e-12)


def test_greg_zero_residual_collapse():
    sample = _simple_sample()
    rng = rng_stream(5, 0)
    x_pop = rng.uniform(size=(40, 1))
    y_pop = 2.0 + 3.0 * x_pop[:, 0]
    spec = GregSpec(covariates=x_pop[sample.ids], total=x_pop.sum(axis=0))
    est = greg(spec, y_pop[sample.ids], sample)
    assert est.value == pytest.approx(2.0 * 40 + 3.0 * x_pop.sum(), rel=1e-12)
    assert est.variance == pytest.approx(0.0, abs=1e-18)


def test_greg_calibration_identity():
    sample = _simple_sample()
    rng = rng_stream(6, 0)
    x_pop = rng.uniform(size=(40, 2))
    y = rng.normal(size=sample.n)
    x_s = x_pop[sample.ids]
    spec = GregSpec(covariates=x_s, total=x_pop.sum(axis=0))
    # greg is linear in y, so its weights reproduce the full total (size and
    # covariate components) when greg of y = 1 and of y = x_j returns them
    assert greg(spec, y + 2.0 * x_s[:, 0], sample).value == pytest.approx(
        greg(spec, y, sample).value + 2.0 * greg(spec, x_s[:, 0], sample).value, rel=1e-10)
    assert greg(spec, np.ones(sample.n), sample).value == pytest.approx(40.0, rel=1e-10)
    for j in range(2):
        assert greg(spec, x_s[:, j], sample).value == pytest.approx(x_pop[:, j].sum(),
                                                                    rel=1e-8)


def test_greg_mean_total_scaling():
    sample = _simple_sample()
    rng = rng_stream(7, 0)
    x_pop = rng.uniform(size=(40, 1))
    y = rng.normal(size=sample.n)
    spec = GregSpec(covariates=x_pop[sample.ids], total=x_pop.sum(axis=0))
    total = greg(spec, y, sample, target="total")
    mean = greg(spec, y, sample, target="mean")
    assert mean.value == pytest.approx(total.value / 40, rel=1e-12)
    assert mean.variance == pytest.approx(total.variance / 1600, rel=1e-12)


def _perfect_linkage_setting(n_population=30, n=8, seed=9):
    rng = rng_stream(seed, 0)
    x = rng.uniform(size=n_population)
    y = 1 + 5 * x + rng.normal(0, 1.0, n_population)
    aux = AuxDatabase.from_values(x)
    linkage = build_linkage([(i, i) for i in range(n_population)],
                            n_population, aux)
    sample = draw_srswor(n_population, n, rng_stream(seed, 1))
    return x, y, aux, linkage, sample


def test_perfect_linkage_all_estimators_equal_ideal():
    x, y, aux, linkage, sample = _perfect_linkage_setting()
    y_s = y[sample.ids]
    n_population = aux.n_records
    ideal = greg(GregSpec(covariates=aux.x[sample.ids], total=aux.total,
                          tag="ideal"), y_s, sample)

    best = np.arange(n_population)
    for scheme_builder, total in [
        (lambda L: multiplicity_weights(L), None),                # population incidence
        (lambda L: reverse_weights_best_link(L, best, 0.4), None),  # population reverse
    ]:
        scheme = scheme_builder(linkage)
        derived = derive_covariates(linkage, scheme, aux)
        spec = GregSpec(covariates=derived[sample.ids],
                        total=derived.sum(axis=0))
        assert greg(spec, y_s, sample).value == pytest.approx(ideal.value, rel=1e-10)

    # sample-link estimators: reverse-weighted, best-link and link-set forms
    sub_linkage, link_index = linkage.restrict(sample.ids)
    reverse = reverse_weights_best_link(linkage, best, 0.4).restrict(sub_linkage,
                                                                     link_index)
    derived_s = derive_covariates(sub_linkage, reverse, aux)
    sri = greg(GregSpec(covariates=derived_s,
                        total=n_population * aux.mean), y_s, sample)
    assert sri.value == pytest.approx(ideal.value, rel=1e-10)

    indicator = best_link_indicator_weights(sub_linkage, best[sample.ids])
    derived_b = derive_covariates(sub_linkage, indicator, aux)
    sbl = greg(GregSpec(covariates=derived_b,
                        total=n_population * aux.mean), y_s, sample)
    assert sbl.value == pytest.approx(ideal.value, rel=1e-10)

    sls = sls_greg(sub_linkage, reverse, aux, y_s, sample)
    assert sls.value == pytest.approx(ideal.value, rel=1e-10)

    sub = sub_greg(y_s, aux.x[sample.ids], aux.mean, sample.design)
    ideal_mean = greg(GregSpec(covariates=aux.x[sample.ids], total=aux.total),
                      y_s, sample, target="mean")
    assert sub.value == pytest.approx(ideal_mean.value * n_population, rel=1e-10)


def test_sub_greg_fixed_coefficients_difference_form():
    _, y, aux, linkage, sample = _perfect_linkage_setting()
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
    x, y, aux, linkage, sample = _perfect_linkage_setting()
    scheme = reverse_weights_best_link(linkage, np.arange(30), 0.4)
    with pytest.raises(ValidationError, match="sample's own links"):
        sls_greg(linkage, scheme, aux, y[sample.ids], sample)


def test_location_scale_equivariance():
    # shifting y by a constant moves every total estimate by c*N, and
    # scaling multiplies it, because each assisting model has an intercept
    rng = rng_stream(12, 0)
    n_population, n = 35, 9
    x = rng.uniform(size=(n_population, 1))
    y = rng.normal(size=n_population)
    aux = AuxDatabase(x=x)
    links = [(i, i) for i in range(n_population)] + [
        (i, (i + 7) % n_population) for i in range(0, n_population, 3)]
    linkage = build_linkage(links, n_population, aux)
    sample = draw_srswor(n_population, n, rng_stream(12, 1))
    y_s = y[sample.ids]
    a, c = 2.5, -4.0
    y_s2 = a * y_s + c

    scheme = multiplicity_weights(linkage)
    derived = derive_covariates(linkage, scheme, aux)
    spec = GregSpec(covariates=derived[sample.ids],
                    total=derived.sum(axis=0))
    v1 = greg(spec, y_s, sample).value
    v2 = greg(spec, y_s2, sample).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-10)

    sub_linkage, link_index = linkage.restrict(sample.ids)
    best = np.array([linkage.records_of(int(u))[0] for u in sample.ids])
    reverse = reverse_weights_best_link(sub_linkage, best, 0.4)
    derived_s = derive_covariates(sub_linkage, reverse, aux)
    spec_s = GregSpec(covariates=derived_s,
                      total=n_population * aux.mean)
    v1 = greg(spec_s, y_s, sample).value
    v2 = greg(spec_s, y_s2, sample).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-10)

    # link-set estimator: scale equivariance is exact, location is not,
    # because the weights multiply the response in the link-level fit
    sls1 = sls_greg(sub_linkage, reverse, aux, y_s, sample).value
    sls_scaled = sls_greg(sub_linkage, reverse, aux, a * y_s, sample).value
    assert sls_scaled == pytest.approx(a * sls1, rel=1e-10)


def test_sls_uses_only_sampled_units_links():
    # links of units outside the sample must not influence the estimate
    rng = rng_stream(33, 0)
    n_population = 24
    x = rng.uniform(size=n_population)
    y = 1 + 5 * x + rng.normal(0, 1.0, n_population)
    aux = AuxDatabase.from_values(x)
    identity = [(i, i) for i in range(n_population)]
    base = identity + [(0, 5), (2, 7)]
    altered = identity + [(0, 5), (2, 7), (9, 3), (11, 1), (9, 14)]
    sample = draw_srswor(n_population, 6, rng_stream(33, 1))
    assert 9 not in sample.ids and 11 not in sample.ids
    values = []
    for links in (base, altered):
        linkage = build_linkage(links, n_population, aux)
        sub, idx = linkage.restrict(sample.ids)
        best = np.array([sub.records_of(int(u))[0] for u in sample.ids])
        scheme = reverse_weights_best_link(sub, best, 0.4)
        values.append(sls_greg(sub, scheme, aux, y[sample.ids], sample).value)
    assert values[0] == values[1]


def test_npa_constant_x_gives_zero():
    aux = AuxDatabase.from_values(np.full(5, 3.3))
    linkage = build_linkage([(i, i) for i in range(4)] + [(0, 4)], 4, aux)
    scheme = multiplicity_weights(linkage)
    npa = npa_covariances(linkage, scheme, aux)
    assert npa.weight_x_cov[0] == pytest.approx(0.0, abs=1e-12)
    assert npa.indicator_x_cov[0] == pytest.approx(0.0, abs=1e-12)


def test_npa_all_records_linked():
    aux = AuxDatabase.from_values(np.array([1.0, 5.0, 2.0]))
    linkage = build_linkage([(0, 0), (1, 1), (2, 2), (0, 1)], 3, aux)
    scheme = multiplicity_weights(linkage)
    npa = npa_covariances(linkage, scheme, aux)
    assert npa.indicator_x_cov[0] == pytest.approx(0.0, abs=1e-14)
    assert npa.n_linked_records == 3


def test_npa_matches_brute_force():
    x = np.array([2.0, 7.0, 1.0, 4.0, 9.0])
    aux = AuxDatabase.from_values(x)
    links = [(0, 0), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3)]
    linkage = build_linkage(links, 4, aux)
    scheme = multiplicity_weights(linkage)
    npa = npa_covariances(linkage, scheme, aux)

    w = {(u, r): v for (u, r), v in zip(links, [
        scheme.values[np.flatnonzero((linkage.link_units == u)
                                     & (linkage.link_records == r))[0]]
        for u, r in links])}
    n_links = len(links)
    xbar_l = sum(x[r] for _, r in links) / n_links
    cov1 = (sum(w[(u, r)] * x[r] for u, r in links) / n_links
            - sum(w.values()) / n_links * xbar_l)
    assert npa.weight_x_cov[0] == pytest.approx(cov1, rel=1e-12)
    linked = sorted({r for _, r in links})
    cov2 = (sum(x[r] for r in linked) / 5
            - len(linked) / 5 * x.mean())
    assert npa.indicator_x_cov[0] == pytest.approx(cov2, rel=1e-12)
    assert npa.n_linked_records == len(linked)


def test_npa_rejects_sample_scope():
    aux = AuxDatabase.from_values(np.arange(3.0))
    linkage = build_linkage([(0, 0), (1, 1)], [0, 1], aux)
    scheme = reverse_weights_best_link(linkage, np.array([0, 1]), 0.5)
    with pytest.raises(ValidationError, match="population links"):
        npa_covariances(linkage, scheme, aux)


def _one_sample_diagnostics(rows, aux, sample, kind):
    """The diagnostic of ``sample`` run as a stack of one, its row taken."""
    report = consistency_diagnostics(rows[None], sample.pi[None], aux, sample.design, kind)
    return DiagnosticsReport(kind, report.value[0], report.variance[0], report.z[0])


def test_diagnostics_variance_formula():
    x, y, aux, linkage, sample = _perfect_linkage_setting(seed=21)
    sub_linkage, link_index = linkage.restrict(sample.ids)
    best = sample.ids.copy()
    reverse = reverse_weights_best_link(sub_linkage, best, 0.4)
    rows = build_unit_inputs("sri", sub_linkage, aux, reverse).rows[0]
    report = _one_sample_diagnostics(rows, aux, sample, "sri")
    n_population = aux.n_records
    contributions = aux.x[sample.ids, 0] / n_population
    expected_value = (contributions / sample.pi).sum() - aux.mean[0]
    assert report.value[0] == pytest.approx(expected_value, rel=1e-12)
    f = sample.design.f
    s2 = contributions.var(ddof=1)
    expected_var = n_population**2 * (1 - f) * s2 / sample.n
    assert report.variance[0] == pytest.approx(expected_var, rel=1e-12)
    assert report.z[0] == pytest.approx(expected_value / np.sqrt(expected_var),
                                        rel=1e-12)


def test_diagnostics_constant_covariate_degenerates():
    n_population = 20
    aux = AuxDatabase.from_values(np.full(n_population, 2.0))
    linkage = build_linkage([(i, i) for i in range(n_population)],
                            n_population, aux)
    sample = draw_srswor(n_population, 6, rng_stream(31, 0))
    sub_linkage, link_index = linkage.restrict(sample.ids)
    scheme = reverse_weights_best_link(sub_linkage, sample.ids.copy(), 0.5)
    rows = build_unit_inputs("sri", sub_linkage, aux, scheme).rows[0]
    report = _one_sample_diagnostics(rows, aux, sample, "sri")
    assert report.variance[0] == 0.0
    assert report.z[0] == 0.0


def test_diagnostics_components_match_one_variance_per_component():
    # several covariate columns, one of them constant: the variances and z
    # of all components at once equal those taken one component at a time
    n_population, n = 60, 12
    rng = rng_stream(24, 0)
    x = np.column_stack([rng.uniform(size=n_population), np.full(n_population, 3.0),
                         rng.normal(size=n_population)])
    aux = AuxDatabase(x=x)
    sample = draw_srswor(n_population, n, rng_stream(24, 1))
    rows = x[sample.ids] + 0.1
    report = _one_sample_diagnostics(rows, aux, sample, "sbl")
    contributions = rows / n_population
    for j in (0, 2):
        variance = residual_variances(contributions[:, j], sample.design)
        assert report.variance[j] == variance
        assert report.z[j] == report.value[j] / np.sqrt(variance)
    # the constant column is off by 0.1 with no spread: infinite z
    assert report.variance[1] == 0.0
    assert report.z[1] == np.inf


def test_diagnostics_sls_statistic_is_link_mean_gap():
    x, y, aux, linkage, sample = _perfect_linkage_setting(seed=22)
    sub_linkage, _ = linkage.restrict(sample.ids)
    report = _one_sample_diagnostics(link_sums(sub_linkage, aux), aux, sample, "sls")
    # one-one links: estimated link mean is the plain sample mean of x
    assert report.value[0] == pytest.approx(
        aux.x[sample.ids, 0].mean() - aux.mean[0], rel=1e-10)


def test_diagnostics_kind_validation():
    x, y, aux, linkage, sample = _perfect_linkage_setting(seed=23)
    sub_linkage, _ = linkage.restrict(sample.ids)
    rows = link_sums(sub_linkage, aux)
    with pytest.raises(ValidationError, match="unknown diagnostic"):
        _one_sample_diagnostics(rows, aux, sample, "nope")
    # the link sums carry the degree column that a covariate lacks
    with pytest.raises(ValidationError, match="sri diagnostic rows must align"):
        _one_sample_diagnostics(rows, aux, sample, "sri")
    with pytest.raises(ValidationError, match="sls diagnostic rows must align"):
        _one_sample_diagnostics(rows[:-1], aux, sample, "sls")


def _assert_rows_alone_equal_the_stack(rows, pi, aux, design, kind):
    """Each sample's diagnostic as a stack of one equals its row of the
    stack, bit for bit."""
    stacked = consistency_diagnostics(rows, pi, aux, design, kind)
    for b in range(len(rows)):
        alone = consistency_diagnostics(rows[b:b + 1], pi[b:b + 1], aux, design, kind)
        for name in ("value", "variance", "z"):
            assert getattr(alone, name)[0].tobytes() == getattr(stacked, name)[b].tobytes()
    return stacked


@pytest.mark.parametrize("kind", DIAGNOSTIC_KINDS)
def test_diagnostics_of_a_stack_equal_each_sample_alone(kind):
    # 6 seeds, n from 2 to 333, 1 to 3 auxiliary columns with the second
    # constant; each unit links 1 to 3 random records
    n_population, stack = 1000, 5
    for seed in range(6):
        rng = rng_stream(seed, 0)
        for n in (2, 3, 41, 150, 333):
            design = SurveyDesign(n_population, n)
            pi = np.full((stack, n), design.f)
            for p in (1, 2, 3):
                x = rng.normal(size=(n_population, p))
                x[:, 1:2] = 2.0
                aux = AuxDatabase(x=x)
                degree = rng.integers(1, 4, size=(stack, n))
                linked = np.arange(3) < degree[..., None]
                weights = rng.uniform(0.1, 1.0, size=(stack, n, 3)) * linked
                weights /= weights.sum(axis=-1, keepdims=True)
                xs = x[rng.integers(n_population, size=(stack, n, 3))]
                rows = {"sri": np.sum(weights[..., None] * xs, axis=-2),
                        "sbl": xs[..., 0, :],
                        "sls": np.concatenate([degree[..., None],
                                               np.sum(linked[..., None] * xs, axis=-2)],
                                              axis=-1)}[kind]
                _assert_rows_alone_equal_the_stack(rows, pi, aux, design, kind)


def test_diagnostic_rules_act_per_sample():
    # sample 0 has unequal pi, so no variance even in its constant column;
    # sample 1 has equal pi, and only its constant column is degenerate
    n_population, n = 60, 6
    x = np.column_stack([rng_stream(25, 0).uniform(size=n_population),
                         np.full(n_population, 3.0)])
    aux = AuxDatabase(x=x)
    design = SurveyDesign(n_population, n)
    rows = x[np.array([np.arange(0, 6), np.arange(10, 16)])]
    pi = np.array([[0.5, 0.6] * 3, [design.f] * n])
    report = _assert_rows_alone_equal_the_stack(rows, pi, aux, design, "sbl")
    assert np.all(np.isfinite(report.value))
    assert np.all(np.isnan(report.variance[0])) and np.all(np.isnan(report.z[0]))
    assert report.variance[1, 1] == 0.0 and report.z[1, 1] == 0.0
    assert report.variance[1, 0] > 0.0 and np.isfinite(report.z[1, 0])


@given(st.integers(0, 10_000), st.floats(0.25, 4.0), st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_equivariance_random_instances(seed, a, c):
    rng = rng_stream(seed, 0)
    n_population = int(rng.integers(12, 40))
    n = int(rng.integers(4, max(5, n_population // 3)))
    x = rng.uniform(size=(n_population, 1))
    y = rng.normal(size=n_population)
    aux = AuxDatabase(x=x)
    sample = draw_srswor(n_population, n, rng)
    spec = GregSpec(covariates=x[sample.ids], total=x.sum(axis=0))
    v1 = greg(spec, y[sample.ids], sample).value
    v2 = greg(spec, a * y[sample.ids] + c, sample).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-8, abs=1e-8)
