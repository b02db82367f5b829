"""Sampling, Horvitz-Thompson estimation and the enumeration oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import greglink.design as design
from greglink.design import (
    Sample,
    SurveyDesign,
    draw_srswor,
    exact_design_moments,
    replicate_ids,
    residual_variances,
    rng_stream,
    srswor_ids,
)
from greglink.errors import NumericalError, ValidationError
from greglink.estimators import UnitInputs
from greglink.synthpop import PopulationModel, gen_population
from support import fit_at

HT = UnitInputs("ht")

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
    sample = Sample(ids=np.arange(4), pi=np.ones(4), design=SurveyDesign(4, 4))
    est = fit_at(HT, y, sample)
    assert est.value == pytest.approx(y.sum(), rel=1e-15)


def test_ht_hand_example():
    # N=4, n=2, s={0,2}, y=(1,2,3,4): pi=1/2, estimate 2*(1+3)=8
    design = SurveyDesign(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    est = fit_at(HT, np.array([1.0, 3.0]), sample)
    assert est.value == pytest.approx(8.0)
    # variance: N^2 (1-f) s^2 / n = 16 * 0.5 * 2 / 2 = 8
    assert est.variance == pytest.approx(8.0)


def test_design_population_is_below_2_63():
    # unit ids are int64; N = 10**200 overflowed a float in the variance
    SurveyDesign(2**63 - 1, 2)
    for n_population in (2**63, 10**200):
        with pytest.raises(ValidationError, match=r"^population size \d+ is not below 2\*\*63$"):
            SurveyDesign(n_population, 2)


def test_sample_rejects_non_finite_inclusion_probabilities():
    design = SurveyDesign(4, 2)
    with pytest.raises(ValidationError, match="inclusion probabilities"):
        Sample(ids=np.array([0, 2]), pi=np.array([0.5, np.nan]), design=design)


def test_sample_rejects_size_other_than_design():
    design = SurveyDesign(10, 5)
    with pytest.raises(ValidationError, match="sample has 3 units but the design's sample size is 5"):
        Sample(ids=np.array([0, 2, 4]), pi=np.full(3, 0.5), design=design)
    with pytest.raises(ValidationError, match="sample has 0 units"):
        Sample(ids=np.empty(0, dtype=np.int64), pi=np.empty(0), design=design)


def test_residual_variance_matches_sample_variance_bitwise():
    e = rng_stream(8, 0).normal(size=37)
    design = SurveyDesign(500, 37)
    expected = 500**2 * (1.0 - design.f) * float(np.var(e, ddof=1)) / 37
    assert residual_variances(e, design) == expected


def test_ht_rejects_missing_values():
    design = SurveyDesign(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    with pytest.raises(ValidationError):
        fit_at(HT, np.array([1.0, np.nan]), sample)


def test_ht_mean_target_scaling():
    design = SurveyDesign(4, 2)
    sample = Sample(ids=np.array([0, 2]), pi=np.full(2, 0.5), design=design)
    y = np.array([1.0, 3.0])
    total = fit_at(HT, y, sample, target="total")
    mean = fit_at(HT, y, sample, target="mean")
    assert mean.value == pytest.approx(total.value / 4)
    assert mean.variance == pytest.approx(total.variance / 16)


def test_ht_unequal_probabilities_variance_unavailable():
    design = SurveyDesign(n_population=4, sample_size=2)
    sample = Sample(ids=np.array([0, 2]), pi=np.array([0.3, 0.6]), design=design)
    est = fit_at(HT, np.array([1.0, 3.0]), sample)
    assert est.value == pytest.approx(1.0 / 0.3 + 3.0 / 0.6)
    assert est.variance is None


def test_residual_variance_constant_residuals():
    assert residual_variances(np.full(5, 2.5), SurveyDesign(50, 5)) == 0.0


def test_residual_variance_hand_example():
    # e=(1,-1), N=4, n=2: 16 * (1-0.5) * 2 / 2 = 8
    value = residual_variances(np.array([1.0, -1.0]), SurveyDesign(4, 2))
    assert value == pytest.approx(8.0)


def test_residual_variance_needs_two_units():
    # one residual has no sample variance
    assert math.isnan(residual_variances(np.array([1.0]), SurveyDesign(4, 2)))


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


def test_exact_moments_do_not_depend_on_the_stack_size(monkeypatch):
    # C(12, 4) = 495 samples in one stack, or in stacks of 7 with a partial
    # last one, give the same moments bit for bit
    _, population = gen_population(PopulationModel(n_units=12), rng_stream(5, 0))
    whole = exact_design_moments(population.y, 4)
    monkeypatch.setattr(design, "ENUMERATION_CHUNK", 7)
    assert exact_design_moments(population.y, 4) == whole


def test_enumeration_guard():
    with pytest.raises(NumericalError, match="guard"):
        exact_design_moments(np.zeros(30), 15)
    assert math.comb(30, 15) > 10**6


def test_sample_count_is_c_n_k_up_to_the_guard():
    # the running product stops once it passes the guard, so it never
    # computes a count of thousands of digits
    for n_population in range(41):
        for sample_size in range(n_population + 2):
            exact = math.comb(n_population, sample_size)
            if exact <= design.ENUMERATION_GUARD:
                assert design.sample_count(n_population, sample_size) == exact
            else:
                with pytest.raises(NumericalError, match="guard"):
                    design.sample_count(n_population, sample_size)


def test_rng_streams_reproducible_and_distinct():
    a1 = rng_stream(9, 4, 2).uniform(size=5)
    a2 = rng_stream(9, 4, 2).uniform(size=5)
    b = rng_stream(9, 4, 3).uniform(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def _stream_ids(n_population, sample_size, seed, key, indices):
    return np.stack([srswor_ids(n_population, sample_size, rng_stream(seed, *key, k))
                     for k in indices])


def _floyd_rows(n_population, sample_size, seed, key, indices):
    ks = np.asarray(list(indices), dtype=np.uint64)
    return design._floyd_rows(n_population, sample_size,
                              design._pcg64_seeds(seed, key, ks))


@pytest.mark.parametrize("key", [(), (3,), (9,), (11,), (1, 2**33)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                  2**96, 2**128 - 1, 2**128, 2**140])
def test_pcg64_seeds_equal_numpys_seed_sequence(seed, key):
    # the seed's word count crosses the pool size (4 words) at 2**96 and
    # 2**128; keys of one and of three words; k of one word at its edges
    ks = [0, 1, 2**31, 2**32 - 1]
    expected = [np.random.SeedSequence(seed, spawn_key=(*key, k)).generate_state(4, np.uint64)
                for k in ks]
    got = design._pcg64_seeds(seed, key, np.asarray(ks, dtype=np.uint64))
    np.testing.assert_array_equal(np.column_stack(got), expected)


@pytest.fixture
def floyd_calls(monkeypatch):
    """Counts the vectorised draws that replicate_ids makes."""
    calls = []
    floyd_rows = design._floyd_rows

    def counted(*args):
        calls.append(args[:2])
        return floyd_rows(*args)

    monkeypatch.setattr(design, "_floyd_rows", counted)
    return calls


_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**140))
_FIRST_K = st.one_of(st.integers(0, 2000), st.integers(2**32 - 40, 2**32 + 5))


@settings(max_examples=150, deadline=None)
@given(n_population=st.integers(1, 3000), data=st.data(), seed=_SEEDS,
       key=st.sampled_from([(), (3,), (1, 2**33)]), first=_FIRST_K,
       chunk=st.integers(1, 24))
def test_replicate_ids_equal_the_streams(n_population, data, seed, key, first, chunk):
    sample_size = data.draw(st.integers(1, min(n_population, 400)))
    indices = range(first, first + chunk)
    expected = _stream_ids(n_population, sample_size, seed, key, indices)
    np.testing.assert_array_equal(
        replicate_ids(n_population, sample_size, seed, key, indices), expected)
    if first + chunk <= 2**32:
        # the array path itself, whatever the chunk and sample sizes: every
        # row it marks exact is the stream's row
        ids, exact = _floyd_rows(n_population, sample_size, seed, key, indices)
        np.testing.assert_array_equal(ids[exact], expected[exact])


@pytest.mark.parametrize("n_population", [1, 2, 3, 4, 7, 50, 300])
def test_census_rows_match_the_streams(n_population):
    indices = range(40)
    expected = _stream_ids(n_population, n_population, 15, (3,), indices)
    assert np.all(expected == np.arange(n_population))
    np.testing.assert_array_equal(
        replicate_ids(n_population, n_population, 15, (3,), indices), expected)
    ids, exact = _floyd_rows(n_population, n_population, 15, (3,), indices)
    np.testing.assert_array_equal(ids[exact], expected[exact])


@pytest.mark.parametrize("sample_size, vectorised", [(400, True), (401, False)])
def test_floyd_and_tail_shuffle_sides_match_the_streams(floyd_calls, sample_size,
                                                        vectorised):
    # numpy shuffles a tail instead of running Floyd's loop once N > 10000
    # and n > N // 50; N = 20000 puts n = 400 and 401 on either side
    indices = range(30)
    ids = replicate_ids(20000, sample_size, 7, (3,), indices)
    np.testing.assert_array_equal(ids, _stream_ids(20000, sample_size, 7, (3,), indices))
    assert bool(floyd_calls) == vectorised


@pytest.mark.parametrize("n_population, rejections", [(2**31 + 1, True),
                                                       (3 * 2**30, True),
                                                       (2**32 - 1, False)])
def test_lemire_rejection_rows_fall_back_to_the_streams(floyd_calls, n_population,
                                                        rejections):
    # a draw on 0..j is rejected with probability (2**32 mod (j + 1)) / 2**32:
    # about 1/2 just above j = 2**31, 1/4 at 3 * 2**30, and 2**-32 at the
    # largest N the array path takes; rejected rows are left to the stream
    indices = range(32)
    ids = replicate_ids(n_population, 3, 2**40 + 3, (3,), indices)
    np.testing.assert_array_equal(ids, _stream_ids(n_population, 3, 2**40 + 3, (3,), indices))
    assert floyd_calls == [(n_population, 3)]
    _, exact = _floyd_rows(n_population, 3, 2**40 + 3, (3,), indices)
    assert 0 < exact.sum()
    assert (exact.sum() < len(indices)) == rejections


@pytest.mark.parametrize("n_population", [2**32, 2**32 + 5, 2**40])
def test_populations_beyond_32_bits_use_the_streams(floyd_calls, n_population):
    indices = range(16)
    ids = replicate_ids(n_population, 4, 15, (3,), indices)
    np.testing.assert_array_equal(ids, _stream_ids(n_population, 4, 15, (3,), indices))
    assert floyd_calls == []


def test_short_chunks_use_the_streams(floyd_calls):
    for chunk in (1, 2):
        indices = range(100, 100 + chunk)
        np.testing.assert_array_equal(replicate_ids(5000, 100, 15, (3,), indices),
                                      _stream_ids(5000, 100, 15, (3,), indices))
    assert floyd_calls == []
    replicate_ids(5000, 100, 15, (3,), range(250))
    assert floyd_calls == [(5000, 100)]


@settings(max_examples=200, deadline=None)
@given(e=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                    elements=st.floats(-1e100, 1e100)),
       n=st.integers(1, 10))
def test_unmasked_residual_variances_equal_an_all_true_mask(e, n):
    # the unmasked sums skip the mask; x * 1.0 = x, so no bit may move
    design = SurveyDesign(n + 10, n)
    np.testing.assert_array_equal(
        residual_variances(e, design),
        residual_variances(e, design, np.ones(e.shape, dtype=bool)))
