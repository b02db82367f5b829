"""Sampling, Horvitz-Thompson estimation and the enumeration oracle."""

import math

import numpy as np
import pytest

from greglink.design import (
    Sample,
    SurveyDesign,
    draw_srswor,
    exact_design_moments,
    ht_total,
    residual_variance,
    rng_stream,
)
from greglink.errors import NumericalError, ValidationError
from greglink.synthpop import PopulationModel, gen_population

# chi-square 0.999 quantile, 5 degrees of freedom (hardcoded to avoid scipy)
CHI2_5_999 = 20.515


def test_census_returns_whole_population():
    rng = rng_stream(0, 0)
    for _ in range(5):
        sample = draw_srswor(5, 5, rng)
        assert np.array_equal(sample.ids, np.arange(5))
        assert np.all(sample.pi == 1.0)


def test_srswor_subsets_equally_probable():
    # N=4, n=2: all 6 subsets should appear with frequency ~1/6
    rng = rng_stream(123, 0)
    counts: dict[tuple, int] = {}
    draws = 12000
    for _ in range(draws):
        sample = draw_srswor(4, 2, rng)
        key = tuple(sample.ids)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_5_999


def test_srswor_survey_scale_distinct_ids():
    sample = draw_srswor(5000, 100, rng_stream(7, 0))
    assert sample.n == 100
    assert len(np.unique(sample.ids)) == 100
    assert np.all(sample.pi == 100 / 5000)


def test_srswor_rejects_bad_sizes():
    rng = rng_stream(0, 0)
    with pytest.raises(ValidationError):
        draw_srswor(4, 5, rng)
    with pytest.raises(ValidationError):
        draw_srswor(4, 0, rng)


def test_ht_census_is_exact():
    y = np.array([3.0, 1.0, 4.0, 1.5])
    sample = Sample(ids=np.arange(4), pi=np.ones(4), design=SurveyDesign.srswor(4, 4))
    est = ht_total(y, sample)
    assert est.value == pytest.approx(y.sum(), rel=1e-15)


def test_ht_hand_example():
    # N=4, n=2, s={0,2}, y=(1,2,3,4): pi=1/2, estimate 2*(1+3)=8
    design = SurveyDesign.srswor(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    est = ht_total(np.array([1.0, 3.0]), sample)
    assert est.value == pytest.approx(8.0)
    # variance: N^2 (1-f) s^2 / n = 16 * 0.5 * 2 / 2 = 8
    assert est.variance == pytest.approx(8.0)


def test_sample_rejects_non_finite_inclusion_probabilities():
    design = SurveyDesign.srswor(4, 2)
    with pytest.raises(ValidationError, match="inclusion probabilities"):
        Sample(ids=np.array([0, 2]), pi=np.array([0.5, np.nan]), design=design)


def test_residual_variance_matches_sample_variance_bitwise():
    e = rng_stream(8, 0).normal(size=37)
    design = SurveyDesign.srswor(500, 37)
    expected = 500**2 * (1.0 - design.f) * float(np.var(e, ddof=1)) / 37
    assert residual_variance(e, design) == expected


def test_ht_rejects_missing_values():
    design = SurveyDesign.srswor(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    with pytest.raises(ValidationError):
        ht_total(np.array([1.0]), sample)
    with pytest.raises(ValidationError):
        ht_total(np.array([1.0, np.nan]), sample)


def test_ht_mean_target_scaling():
    design = SurveyDesign.srswor(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    y = np.array([1.0, 3.0])
    total = ht_total(y, sample, target="total")
    mean = ht_total(y, sample, target="mean")
    assert mean.value == pytest.approx(total.value / 4)
    assert mean.variance == pytest.approx(total.variance / 16)


def test_ht_unequal_probabilities_variance_unavailable():
    design = SurveyDesign(n_population=4, sample_size=2, kind="external")
    sample = Sample(ids=np.array([0, 2]), pi=np.array([0.3, 0.6]), design=design)
    est = ht_total(np.array([1.0, 3.0]), sample)
    assert est.value == pytest.approx(1.0 / 0.3 + 3.0 / 0.6)
    assert est.variance is None


def test_residual_variance_constant_residuals():
    assert residual_variance(np.full(5, 2.5), SurveyDesign.srswor(50, 5)) == 0.0


def test_residual_variance_hand_example():
    # e=(1,-1), N=4, n=2: 16 * (1-0.5) * 2 / 2 = 8
    value = residual_variance(np.array([1.0, -1.0]), SurveyDesign.srswor(4, 2))
    assert value == pytest.approx(8.0)


def test_residual_variance_needs_two_units():
    with pytest.raises(ValidationError, match="at least 2"):
        residual_variance(np.array([1.0]), SurveyDesign.srswor(4, 2))


def test_exact_moments_ht_identities():
    # frozen oracle check: HT is design-unbiased and so is its variance
    # estimator, exactly, for every enumerated sample
    _, population = gen_population(PopulationModel(n_units=8), rng_stream(3, 0))
    y = population.y
    moments = exact_design_moments(y, 3)
    assert moments.n_samples == 56
    assert moments.expectation == pytest.approx(y.sum(), rel=1e-10)
    assert moments.expected_variance_estimate == pytest.approx(moments.variance,
                                                               rel=1e-10)


def test_exact_moments_custom_statistic():
    y = np.array([1.0, 2.0, 3.0, 4.0])

    def doubled(sample, y_s):
        est = ht_total(y_s, sample)
        return 2 * est.value, 4 * est.variance

    base = exact_design_moments(y, 2)
    double = exact_design_moments(y, 2, statistic=doubled)
    assert double.expectation == pytest.approx(2 * base.expectation)
    assert double.variance == pytest.approx(4 * base.variance)


def test_enumeration_guard():
    with pytest.raises(NumericalError, match="guard"):
        exact_design_moments(np.zeros(30), 15)
    assert math.comb(30, 15) > 10**6


def test_rng_streams_reproducible_and_distinct():
    a1 = rng_stream(9, 4, 2).uniform(size=5)
    a2 = rng_stream(9, 4, 2).uniform(size=5)
    b = rng_stream(9, 4, 3).uniform(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
