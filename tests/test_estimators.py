"""The weighted least-squares engine and the estimator family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greglink.estimators as estimators
from greglink.design import (
    SurveyDesign,
    draw_srswor,
    equal_probability_variances,
    replicate_ids,
    rng_stream,
)
from greglink.estimators import (
    DIAGNOSTIC_KINDS,
    DiagnosticsReport,
    UnitInputs,
    build_estimators,
    consistency_diagnostics,
    diagnose_unit_inputs,
    fit_unit_inputs,
    greg_batch,
    link_aggregates,
    link_sums,
    npa_covariances,
    _solve_normal_equations,
    _weighted_least_squares,
    with_intercept,
    wls_coefficients,
)
from greglink.errors import ValidationError
from greglink.linkage import (
    AuxDatabase,
    WeightScheme,
    build_linkage,
    link_values,
    multiplicity_weights,
    reverse_weights_best_link,
    weighted_sums,
)
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population
from support import fit_at, greg_fit, perfect_linkage_setting, sample_linkage


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


@pytest.mark.parametrize("shape", [(3, 1), (250, 100, 1), (1, 500, 3)])
def test_with_intercept_is_the_concatenated_design(shape):
    for dtype in (np.float64, np.float32, np.int64):
        x = (10 * rng_stream(7, 0).normal(size=shape)).astype(dtype)
        expected = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
        got = with_intercept(x)
        assert got.dtype == expected.dtype and got.flags.c_contiguous, dtype
        assert np.array_equal(got, expected), dtype


@pytest.mark.parametrize("equal_weights", [True, False])
@pytest.mark.parametrize("stack", [1, 250])
@pytest.mark.parametrize("q", [2, 3])
def test_weighted_least_squares_keeps_the_broadcast_bits(q, stack, equal_weights):
    # the column-by-column W X must give the products of x * w[..., None] bit
    # for bit, at any stack size
    rng = rng_stream(8, q)
    x = with_intercept(rng.normal(size=(stack, 100, q - 1)))
    y = rng.normal(size=(stack, 100))
    w = (np.full((stack, 100), 50.0) if equal_weights
         else 1.0 / rng.uniform(0.01, 0.1, size=(stack, 100)))
    xw_t = np.swapaxes(x * w[..., None], -1, -2)
    expected = _solve_normal_equations(xw_t @ x, (xw_t @ y[..., None])[..., 0], False)
    assert np.array_equal(_weighted_least_squares(x, y, w, strict=False), expected)


def test_wls_bits_do_not_depend_on_memory_order():
    rng = rng_stream(9, 0)
    x = with_intercept(rng.normal(size=(200, 2)))
    y, w = rng.normal(size=200), rng.uniform(0.5, 2.0, size=200)
    assert np.array_equal(wls_coefficients(np.asfortranarray(x), y, w),
                          wls_coefficients(x, y, w))


def _simple_sample(n_population=40, n=10, seed=3):
    return draw_srswor(n_population, n, rng_stream(seed, 0))


def test_greg_batch_marks_singular_fits_nan():
    x = np.stack([with_intercept(np.array([[0.1], [0.5], [0.9]])),
                  with_intercept(np.full((3, 1), 0.5))])
    y = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    batch = greg_batch(x, y, np.full((2, 3), 0.3), np.array([10.0, 5.0]),
                       SurveyDesign(10, 3))
    assert np.isfinite(batch.values[0]) and np.isfinite(batch.variances[0])
    assert np.isnan(batch.values[1]) and np.isnan(batch.variances[1])


def test_greg_intercept_only_equals_ht():
    sample = _simple_sample()
    y = rng_stream(4, 0).normal(size=sample.n)
    est = greg_fit(np.empty((sample.n, 0)), np.empty(0), y, sample)
    ht = fit_at(UnitInputs("ht"), y, sample)
    assert est.value == pytest.approx(ht.value, rel=1e-12)


def test_greg_zero_residual_collapse():
    sample = _simple_sample()
    rng = rng_stream(5, 0)
    x_pop = rng.uniform(size=(40, 1))
    y_pop = 2.0 + 3.0 * x_pop[:, 0]
    est = greg_fit(x_pop[sample.ids], x_pop.sum(axis=0), y_pop[sample.ids], sample)
    assert est.value == pytest.approx(2.0 * 40 + 3.0 * x_pop.sum(), rel=1e-12)
    assert est.variance == pytest.approx(0.0, abs=1e-18)


def test_greg_calibration_identity():
    sample = _simple_sample()
    rng = rng_stream(6, 0)
    x_pop = rng.uniform(size=(40, 2))
    y = rng.normal(size=sample.n)
    x_s = x_pop[sample.ids]

    def fit(values):
        return greg_fit(x_s, x_pop.sum(axis=0), values, sample)
    # the fit is linear in y, so its weights reproduce the full total (size
    # and covariate components) when the fits of y = 1 and of y = x_j
    # return them
    assert fit(y + 2.0 * x_s[:, 0]).value == pytest.approx(
        fit(y).value + 2.0 * fit(x_s[:, 0]).value, rel=1e-10)
    assert fit(np.ones(sample.n)).value == pytest.approx(40.0, rel=1e-10)
    for j in range(2):
        assert fit(x_s[:, j]).value == pytest.approx(x_pop[:, j].sum(), rel=1e-8)


def test_greg_mean_total_scaling():
    sample = _simple_sample()
    rng = rng_stream(7, 0)
    x_pop = rng.uniform(size=(40, 1))
    y = rng.normal(size=sample.n)
    total = greg_fit(x_pop[sample.ids], x_pop.sum(axis=0), y, sample, target="total")
    mean = greg_fit(x_pop[sample.ids], x_pop.sum(axis=0), y, sample, target="mean")
    assert mean.value == pytest.approx(total.value / 40, rel=1e-12)
    assert mean.variance == pytest.approx(total.variance / 1600, rel=1e-12)


def test_perfect_linkage_all_estimators_equal_ideal():
    x, y, aux, linkage, sample = perfect_linkage_setting()
    y_s = y[sample.ids]
    n_population = aux.n_records
    (ideal_inputs,) = build_estimators(["ideal"], linkage, aux)
    ideal = fit_at(ideal_inputs, y_s, sample)

    best = np.arange(n_population)
    for scheme_builder, total in [
        (lambda L: multiplicity_weights(L), None),                # population incidence
        (lambda L: reverse_weights_best_link(L, best, 0.4), None),  # population reverse
    ]:
        scheme = scheme_builder(linkage)
        derived = weighted_sums(linkage, scheme, link_values(linkage, aux))
        assert greg_fit(derived[sample.ids], derived.sum(axis=0), y_s,
                        sample).value == pytest.approx(ideal.value, rel=1e-10)

    # sample-link estimators, built over the population links and fitted at
    # the sample: reverse-weighted, best-link, link-set and subsample forms
    reverse = reverse_weights_best_link(linkage, best, 0.4)
    sri, sbl, sls, sub = build_estimators(["sri-q", "sbl", "sls", "sub"], linkage, aux,
                                          reverse.values, best, y=y_s, at=sample.ids)
    assert fit_at(sri, y_s, sample).value == pytest.approx(ideal.value, rel=1e-10)
    assert fit_at(sbl, y_s, sample).value == pytest.approx(ideal.value, rel=1e-10)
    assert fit_at(sls, y_s, sample).value == pytest.approx(ideal.value, rel=1e-10)

    ideal_mean = fit_at(ideal_inputs, y_s, sample, target="mean")
    assert fit_at(sub, y_s, sample).value == pytest.approx(ideal_mean.value * n_population,
                                                          rel=1e-10)


def test_build_estimators_resolves_each_weight_kind_by_one_rule():
    x, population = gen_population(PopulationModel(n_units=200), rng_stream(5, 0))
    aux = AuxDatabase.from_values(x)
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.6, correct_best_rate=0.5)
    _, linkage, best = gen_linkage(200, model, rng_stream(5, 1))
    incidence = multiplicity_weights(linkage).values
    on_best = reverse_weights_best_link(linkage, best, 0.4).values
    equal = 1.0 / linkage.degrees[linkage.unit_index_per_link()]
    drawn = reverse_weights_best_link(linkage, best, 0.7).values
    cases = [
        # no weight column: 1/m for pi, q on each best link for sri and sls
        (["sls", "sri", "ht", "pi", "sub", "sbl"], {"best": best, "q": 0.4},
         {"pi": incidence, "sri": on_best, "sls": on_best}),
        # nor best links: 1/d
        (["sri", "pi", "sls"], {}, {"pi": incidence, "sri": equal, "sls": equal}),
        # given weights, read as the rule's kind
        (["sls", "sri"], {"weights": drawn, "best": best, "q": 0.4},
         {"sri": drawn, "sls": drawn}),
        (["pi"], {"weights": incidence}, {"pi": incidence}),
    ]
    for tags, kwargs, weights in cases:
        built = build_estimators(tags, linkage, aux, y=population.y, **kwargs)
        assert [inputs.tag for inputs in built] == tags
        for tag, inputs in zip(tags, built):
            if tag == "sls":
                expected = link_aggregates(linkage, weights[tag], aux)
            elif tag in weights:
                expected = (weighted_sums(linkage, WeightScheme(
                    "incidence" if tag == "pi" else "reverse", linkage, weights[tag]),
                    link_values(linkage, aux)),)
            else:
                # a rule without weights is built as it is on its own
                (alone,) = build_estimators([tag], linkage, aux, best=kwargs.get("best"),
                                            y=population.y)
                expected = alone.rows
            assert len(inputs.rows) == len(expected)
            for got, want in zip(inputs.rows, expected):
                np.testing.assert_array_equal(got, want)


def test_build_estimators_builds_nothing_for_a_request_it_rejects(monkeypatch):
    # pi's record values and incidence weights were built before sbl was found
    # to lack best links
    calls = []
    monkeypatch.setattr(estimators, "link_values", lambda *a, **k: calls.append("values"))
    monkeypatch.setattr(estimators, "link_weights", lambda kind, *a, **k: calls.append(kind))
    aux = AuxDatabase.from_values([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="^estimator 'sbl' needs best links"):
        build_estimators(["pi", "sbl"], build_linkage([(0, 0), (0, 1), (1, 2)], 2, aux), aux)
    assert calls == []


def test_sub_has_no_variance_without_equal_pi():
    # sub's variance read every unit's pi as equal, where ht's was NaN
    x, population = gen_population(PopulationModel(n_units=200), rng_stream(5, 0))
    model = LinkageModel(link_share=(0.4, 0.3, 0.3), match_rate=0.8, correct_best_rate=0.7)
    _, linkage, _ = gen_linkage(200, model, rng_stream(5, 1))
    (sub,) = build_estimators(["sub"], linkage, AuxDatabase.from_values(x), y=population.y)
    sample = draw_srswor(200, 40, rng_stream(5, 2))
    y = population.y[sample.ids][None]
    alternating = np.where(np.arange(40) % 2 == 0, 0.5, 0.25)[None]

    def fit(inputs, pi):
        return fit_unit_inputs(inputs, sample.ids[None], y, pi, sample.design, strict=True)
    equal, unequal = fit(sub, np.full((1, 40), 0.25)), fit(sub, alternating)
    assert np.isfinite(equal.variances[0])
    assert unequal.values[0] == equal.values[0]
    assert np.isnan(unequal.variances[0])
    assert np.isnan(fit(UnitInputs("ht"), alternating).variances[0])


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

    (pi_m,) = build_estimators(["pi-m"], linkage, aux)
    v1 = fit_at(pi_m, y_s, sample).value
    v2 = fit_at(pi_m, y_s2, sample).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-10)

    sub_linkage, _ = sample_linkage(linkage, sample.ids)
    covered = sub_linkage.covered_units
    best = np.array([linkage.records_of(int(u))[0] for u in sample.ids])
    sri, sls = build_estimators(["sri-q", "sls"], sub_linkage, aux, best=best, q=0.4)
    v1 = fit_at(sri, y_s, sample, covered=covered).value
    v2 = fit_at(sri, y_s2, sample, covered=covered).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-10)

    # link-set estimator: scale equivariance is exact, location is not,
    # because the weights multiply the response in the link-level fit
    sls1 = fit_at(sls, y_s, sample, covered=covered).value
    sls_scaled = fit_at(sls, a * y_s, sample, covered=covered).value
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
        sub, _ = sample_linkage(linkage, sample.ids)
        best = np.array([sub.records_of(int(u))[0] for u in sample.ids])
        (sls,) = build_estimators(["sls"], sub, aux, best=best, q=0.4)
        values.append(fit_at(sls, y[sample.ids], sample, covered=sub.covered_units).value)
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


def _one_sample_diagnostics(rows, aux, sample, kind):
    """The diagnostic of ``sample`` run as a stack of one, its row taken."""
    report = consistency_diagnostics(rows[None], sample.pi[None], aux, sample.design, kind)
    return DiagnosticsReport(kind, report.value[0], report.variance[0], report.z[0])


def test_diagnostics_variance_formula():
    x, y, aux, linkage, sample = perfect_linkage_setting(seed=21)
    sub_linkage, _ = sample_linkage(linkage, sample.ids)
    best = sample.ids.copy()
    reverse = reverse_weights_best_link(sub_linkage, best, 0.4)
    rows = build_estimators(["sri"], sub_linkage, aux, reverse.values)[0].rows[0]
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
    sub_linkage, _ = sample_linkage(linkage, sample.ids)
    scheme = reverse_weights_best_link(sub_linkage, sample.ids.copy(), 0.5)
    rows = build_estimators(["sri"], sub_linkage, aux, scheme.values)[0].rows[0]
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
        variance = equal_probability_variances(contributions[:, j], sample.pi,
                                               sample.design)
        assert report.variance[j] == variance
        assert report.z[j] == report.value[j] / np.sqrt(variance)
    # the constant column is off by 0.1 with no spread outside a census: no
    # variance to read, so no z
    assert np.isnan(report.variance[1]) and np.isnan(report.z[1])


@pytest.mark.parametrize("kind", DIAGNOSTIC_KINDS)
def test_diagnostics_tie_outside_a_census_has_no_z(kind):
    # two sampled units whose rows tie show no spread: outside a census the
    # statistic's variance is unknown, in a census it is 0 and z infinite,
    # and a statistic of zero keeps z 0 either way
    aux = AuxDatabase.from_values([1.0, 2.0, 4.0, 3.0])
    row = [[1.0, 1.0]] if kind == "sls" else [[1.0]]
    rows = np.array([row * 2])
    for design, expected in ((SurveyDesign(4, 2), np.nan), (SurveyDesign(2, 2), -np.inf)):
        pi = np.full((1, 2), design.f)
        report = consistency_diagnostics(rows, pi, aux, design, kind)
        assert report.value[0, 0] == -1.5
        np.testing.assert_array_equal(report.z[0], [expected])
        np.testing.assert_array_equal(report.variance[0],
                                      [np.nan if np.isnan(expected) else 0.0])
    centred = np.full((1, 2, rows.shape[-1]), 1.0)
    centred[..., -1] = aux.mean[0]
    report = consistency_diagnostics(centred, np.full((1, 2), 0.5), aux,
                                     SurveyDesign(4, 2), kind)
    assert report.value[0, 0] == 0.0 and report.variance[0, 0] == 0.0
    assert report.z[0, 0] == 0.0


def test_diagnostics_sls_statistic_is_link_mean_gap():
    x, y, aux, linkage, sample = perfect_linkage_setting(seed=22)
    sub_linkage, _ = sample_linkage(linkage, sample.ids)
    report = _one_sample_diagnostics(link_sums(sub_linkage, aux), aux, sample, "sls")
    # one-one links: estimated link mean is the plain sample mean of x
    assert report.value[0] == pytest.approx(
        aux.x[sample.ids, 0].mean() - aux.mean[0], rel=1e-10)


def _assert_rows_alone_equal_the_stack(rows, pi, aux, design, kind):
    """Each sample's diagnostic as a stack of one equals its row of the
    stack, bit for bit."""
    stacked = consistency_diagnostics(rows, pi, aux, design, kind)
    for b in range(len(rows)):
        alone = consistency_diagnostics(rows[b:b + 1], pi[b:b + 1], aux, design, kind)
        for name in ("value", "variance", "z"):
            assert getattr(alone, name)[0].tobytes() == getattr(stacked, name)[b].tobytes()
    return stacked


@pytest.mark.parametrize("tag", ["ideal", "sri", "sls"])
def test_a_fit_without_residual_degrees_of_freedom_has_a_variance_only_in_a_census(tag):
    # two units fit 2 model columns; their residuals are zero by construction
    aux = AuxDatabase.from_values([1.0, 4.0])
    (inputs,) = build_estimators([tag], build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux), aux)
    for design, variance in ((SurveyDesign(4, 2), None), (SurveyDesign(2, 2), 0.0)):
        fit = fit_unit_inputs(inputs, np.array([[0, 1]]), np.array([[2.0, 3.5]]),
                              np.full((1, 2), design.f), design, strict=True)
        assert fit.first(tag, "total").variance == variance


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


@pytest.mark.parametrize("tag", ["sri", "sbl", "sls"])
def test_diagnose_unit_inputs_of_a_stack_equals_each_sample_alone(tag):
    # inputs built over drawn population links, of 1 and 2 auxiliary
    # columns; each sample's diagnostic alone equals its row of the stack and
    # the statistic on its rows gathered by hand, bit for bit
    n_population, stack = 1000, 5
    x, _ = gen_population(PopulationModel(n_units=n_population), rng_stream(4, 0))
    _, linkage, best = gen_linkage(n_population, LinkageModel((0.2, 0.4, 0.4), 0.4, 0.4),
                                   rng_stream(4, 1))
    for aux in (AuxDatabase.from_values(x),
                AuxDatabase(x=np.column_stack([x, rng_stream(4, 2).normal(size=n_population)]))):
        (inputs,) = build_estimators([tag], linkage, aux, best=best, q=0.4)
        for n in (2, 3, 41, 150, 333):
            design = SurveyDesign(n_population, n)
            ids = replicate_ids(n_population, n, 4, (3,), range(stack))
            pi = np.full(ids.shape, design.f)
            stacked = diagnose_unit_inputs(inputs, ids, pi, aux, design)
            for b in range(stack):
                alone = diagnose_unit_inputs(inputs, ids[b:b + 1], pi[b:b + 1], aux, design)
                by_hand = consistency_diagnostics(inputs.rows[0][ids[b:b + 1]], pi[b:b + 1],
                                                  aux, design, tag)
                for name in ("value", "variance", "z"):
                    bits = getattr(stacked, name)[b].tobytes()
                    assert getattr(alone, name)[0].tobytes() == bits
                    assert getattr(by_hand, name)[0].tobytes() == bits


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
    v1 = greg_fit(x[sample.ids], x.sum(axis=0), y[sample.ids], sample).value
    v2 = greg_fit(x[sample.ids], x.sum(axis=0), a * y[sample.ids] + c, sample).value
    assert v2 == pytest.approx(a * v1 + c * n_population, rel=1e-8, abs=1e-8)
