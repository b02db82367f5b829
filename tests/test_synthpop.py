"""Population, linkage and weight generators."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greglink.design import rng_stream
from greglink.errors import ValidationError
from greglink.estimators import link_aggregates
from greglink.harness import _build_block, load_scenario_file
from greglink.linkage import (
    INCIDENCE,
    WeightScheme,
    link_values,
    reverse_weights_best_link,
    weighted_sums,
)
from greglink.synthpop import (
    LinkageModel,
    _draw_false_records,
    PopulationModel,
    aux_from_population,
    gen_linkage,
    gen_pi_q_weights,
    gen_population,
    proportional_counts,
)


def test_population_near_deterministic_limit():
    model = PopulationModel(n_units=2000, sigma=1e-12)
    x, pop = gen_population(model, rng_stream(1, 0))
    assert np.corrcoef(x, pop.y)[0, 1] > 0.999999


def test_population_main_setting_moments():
    # sd(y) should be close to sqrt(25/12 + sigma^2) when the noise scale
    # is constant
    model = PopulationModel(n_units=50_000, sigma=1.5, gamma=0.0)
    x, pop = gen_population(model, rng_stream(2, 0))
    assert np.all((x > 0) & (x < 1))
    assert pop.y.std() == pytest.approx(np.sqrt(25 / 12 + 1.5**2), rel=0.02)
    assert pop.mean == pytest.approx(1 + 5 * 0.5, rel=0.02)


def test_population_heteroscedastic_binned_spread():
    # gamma=1, sigma=2: noise sd grows like 2x
    model = PopulationModel(n_units=200_000, sigma=2.0, gamma=1.0)
    x, pop = gen_population(model, rng_stream(3, 0))
    residuals = pop.y - (1 + 5 * x)
    for lo, hi in [(0.1, 0.2), (0.45, 0.55), (0.8, 0.9)]:
        mask = (x >= lo) & (x < hi)
        mid = (lo + hi) / 2
        assert residuals[mask].std() == pytest.approx(2 * mid, rel=0.06)


def test_population_model_validation():
    with pytest.raises(ValidationError):
        PopulationModel(n_units=10, sigma=0.0)
    with pytest.raises(ValidationError):
        PopulationModel(n_units=10, gamma=1.5)
    PopulationModel(n_units=2**63 - 1)
    with pytest.raises(ValidationError, match=r"^population size \d+ is not below 2\*\*63$"):
        PopulationModel(n_units=2**63)


def test_proportional_counts_rounding():
    assert list(proportional_counts(5000, (0.2, 0.4, 0.4))) == [1000, 2000, 2000]
    assert list(proportional_counts(10, (0.33, 0.33, 0.34))) == [3, 3, 4]
    counts = proportional_counts(7, (0.5, 0.25, 0.25))
    assert counts.sum() == 7


def test_linkage_identity_degenerate_case():
    model = LinkageModel(link_share=(1.0, 0.0, 0.0), match_rate=1.0,
                         correct_best_rate=1.0)
    matched, linkage, best = gen_linkage(50, model, rng_stream(4, 0))
    assert len(matched) == 50
    assert np.all(linkage.degrees == 1)
    assert np.all(linkage.link_units == linkage.link_records)
    assert np.array_equal(best, np.arange(50))


def test_linkage_counts_main_setting():
    model = LinkageModel(link_share=(0.4, 0.3, 0.3), match_rate=0.9,
                         correct_best_rate=0.9)
    matched, linkage, best = gen_linkage(5000, model, rng_stream(5, 0))
    counts = np.bincount(linkage.degrees)
    assert list(counts[1:]) == [2000, 1500, 1500]
    assert linkage.n_links == 2000 + 2 * 1500 + 3 * 1500
    assert len(matched) == 4500


def test_linkage_structural_audit():
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.4,
                         correct_best_rate=0.3)
    matched, linkage, best = gen_linkage(2000, model, rng_stream(6, 0))
    record_of_unit = dict(zip(matched.tolist(), matched.tolist()))
    assert len(record_of_unit) == round(2000 * 0.4)
    # every single-link unit's link is its match
    singles = np.flatnonzero(linkage.degrees == 1)
    assert len(singles) == 400
    for unit in singles:
        assert record_of_unit[int(unit)] == int(linkage.records_of(int(unit))[0])
    # exactly the matched multi-link units beyond the singles
    matched_multi = [u for u in record_of_unit if linkage.degrees[u] > 1]
    assert len(matched_multi) == round(2000 * 0.4) - 400
    # matches always appear among their unit's links, false links never
    # reference the unit's own record
    for unit, record in record_of_unit.items():
        assert record == unit
        assert record in linkage.records_of(unit)
    for unit in np.flatnonzero(linkage.degrees > 1):
        records = linkage.records_of(int(unit))
        others = records[records != unit]
        assert len(np.unique(others)) == len(others)
    # best links lie in the unit's link set; the correct-best count is exact
    correct = 0
    for pos, unit in enumerate(range(2000)):
        assert best[pos] in linkage.records_of(unit)
        if record_of_unit.get(unit) == best[pos]:
            correct += 1
    assert correct == round(2000 * 0.3)


def test_linkage_determinism():
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.8,
                         correct_best_rate=0.6)
    m1, l1, b1 = gen_linkage(800, model, rng_stream(7, 0))
    m2, l2, b2 = gen_linkage(800, model, rng_stream(7, 0))
    assert np.array_equal(m1, m2)
    assert np.array_equal(l1.link_units, l2.link_units)
    assert np.array_equal(l1.link_records, l2.link_records)
    assert np.array_equal(b1, b2)
    m3, l3, b3 = gen_linkage(800, model, rng_stream(8, 0))
    assert not np.array_equal(l1.link_records, l3.link_records)


def test_linkage_model_validation():
    with pytest.raises(ValidationError, match="match rate"):
        LinkageModel(link_share=(0.5, 0.25, 0.25), match_rate=0.3,
                     correct_best_rate=0.3)
    with pytest.raises(ValidationError, match="correct-best"):
        LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.5,
                     correct_best_rate=0.6)
    with pytest.raises(ValidationError, match="sum to 1"):
        LinkageModel(link_share=(0.5, 0.2, 0.2), match_rate=0.6,
                     correct_best_rate=0.6)


def test_pi_q_weights_rules():
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.6,
                         correct_best_rate=0.5)
    matched, linkage, _ = gen_linkage(1000, model, rng_stream(9, 0))
    scheme = WeightScheme("incidence", linkage,
                          gen_pi_q_weights(linkage, matched, 0.4, rng_stream(9, 1)))
    assert scheme.kind == INCIDENCE
    unit_of_record = dict(zip(matched.tolist(), matched.tolist()))
    m = linkage.multiplicities
    for record in range(linkage.n_records):
        if m[record] == 0:
            continue
        positions = np.flatnonzero(linkage.link_records == record)
        values = scheme.values[positions]
        units_here = linkage.link_units[positions]
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        if m[record] == 1:
            assert values[0] == 1.0
        else:
            assert np.isclose(values, 0.4).sum() == 1
            others = values[~np.isclose(values, 0.4)]
            assert np.allclose(others, 0.6 / (m[record] - 1))
            match_unit = unit_of_record.get(record)
            if match_unit is not None and match_unit in units_here:
                hit = values[units_here == match_unit][0]
                assert hit == pytest.approx(0.4)


def test_pi_q_weights_match_per_record_loop():
    # reference: one scalar draw per record without its match among its
    # links, records in ascending order; the vectorised draw must place q on
    # the same links and leave the generator in the same state
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.6,
                         correct_best_rate=0.5)
    matched, linkage, _ = gen_linkage(2000, model, rng_stream(12, 0))
    rng = rng_stream(12, 1)
    scheme = WeightScheme("incidence", linkage, gen_pi_q_weights(linkage, matched, 0.3, rng))

    ref_rng = rng_stream(12, 1)
    m = linkage.multiplicities
    expected = np.where(m[linkage.link_records] == 1, 1.0,
                        0.7 / np.maximum(m[linkage.link_records] - 1, 1))
    unit_of_record = dict(zip(matched.tolist(), matched.tolist()))
    for record in np.flatnonzero(m > 1):
        positions = np.flatnonzero(linkage.link_records == record)
        hits = np.flatnonzero(linkage.link_units[positions]
                              == unit_of_record.get(int(record), -1))
        if len(hits):
            expected[positions[hits[0]]] = 0.3
        else:
            expected[positions[ref_rng.integers(len(positions))]] = 0.3
    assert np.array_equal(scheme.values, expected)
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_pi_q_weights_multiplicity_range():
    # the record-side link counts spread wider than the unit-side ones, but
    # most records still carry at most 3 links
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.4,
                         correct_best_rate=0.4)
    matched, linkage, _ = gen_linkage(5000, model, rng_stream(10, 0))
    m = linkage.multiplicities
    assert m.max() > linkage.degrees.max()
    assert np.mean(m <= 3) > 0.75


@pytest.mark.parametrize("q", [0.0, 1.2])
def test_pi_q_weights_validation(q):
    model = LinkageModel(link_share=(1.0, 0.0, 0.0), match_rate=1.0,
                         correct_best_rate=1.0)
    matched, linkage, _ = gen_linkage(20, model, rng_stream(11, 0))
    with pytest.raises(ValidationError, match=r"q must lie in \(0, 1\]"):
        gen_pi_q_weights(linkage, matched, q, rng_stream(11, 1))


def test_pi_q_weights_at_q_1_put_full_weight_on_one_link_per_record():
    # q < 1 was demanded here alone, while every other q check takes (0, 1]
    model = LinkageModel(link_share=(0.2, 0.4, 0.4), match_rate=0.6,
                         correct_best_rate=0.5)
    matched, linkage, _ = gen_linkage(500, model, rng_stream(13, 0))
    values = gen_pi_q_weights(linkage, matched, 1.0, rng_stream(13, 1))
    WeightScheme("incidence", linkage, values)
    assert set(values.tolist()) == {0.0, 1.0}
    linked = linkage.multiplicities > 0
    np.testing.assert_array_equal(
        np.bincount(linkage.link_records[values == 1.0], minlength=500), linked.astype(int))


def test_aux_from_population_shape():
    x = np.array([0.25, 0.75])
    aux = aux_from_population(x)
    assert aux.x.shape == (2, 1)
    assert aux.mean[0] == pytest.approx(0.5)


# SHA-256 digests of the linkage set-up of the three bundled table blocks,
# recorded before set-up was rewritten to sort by integer keys, and of
# table1_block1's set-up at N = 100 000; the degree, multiplicity and
# estimator-input digests were recorded before set-up moved every per-unit
# and per-link value through one per-link unit index. Every array and
# generator state below must stay bit-identical.
GOLDEN_SETUP_PATH = Path(__file__).parent / "data" / "golden_setup.json"
SCENARIOS = Path(__file__).parent.parent / "scenarios"
SETUP_BLOCKS = {
    "table1_block1": ("table1_block1", None),
    "table2_block2": ("table2_block2", None),
    "table3_block3": ("table3_block3", None),
    "table1_block1_n100000": ("table1_block1", 100_000),
}


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = value.astype(value.dtype.newbyteorder("<")).tobytes()
    else:
        data = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _array_digest(a: np.ndarray | None):
    """Digest of an array's bits, dtype, shape and C-contiguity."""
    if a is None:
        return None
    return [_digest(a), a.dtype.str, list(a.shape), bool(a.flags.c_contiguous)]


def full_gram(link_sum, gram, weighted):
    """The aggregates with the full Σ x_l x_l' (n, q, q), its intercept row
    and column taken from the link sums, as the digests were recorded."""
    full = np.empty(link_sum.shape + link_sum.shape[-1:])
    full[:, 0, :] = full[:, :, 0] = link_sum
    full[:, 1:, 1:] = gram
    return link_sum, full, weighted


def setup_digests(block: str, n_population: int | None = None) -> dict[str, str]:
    """Digests of one block's population links, degrees, multiplicities,
    matches, best links, incidence weights and covariates, of both
    generators' states, and of every estimator's inputs as the harness
    builds them; ``n_population`` replaces the block's population size."""
    (config,) = load_scenario_file(SCENARIOS / f"{block}.scenario")
    if n_population is not None:
        config = dataclasses.replace(config, n_population=n_population)
    n = config.n_population
    x, _ = gen_population(config.population_model(), rng_stream(config.seed, 0))
    aux = aux_from_population(x)
    rng_links, rng_weights = rng_stream(config.seed, 1), rng_stream(config.seed, 2)
    matched, linkage, best = gen_linkage(n, config.linkage_model(), rng_links)
    incidence = WeightScheme("incidence", linkage, gen_pi_q_weights(
        linkage, matched, config.best_link_weight, rng_weights))
    reverse = reverse_weights_best_link(linkage, best, config.best_link_weight)
    digests = {
        "link_units": _digest(linkage.link_units),
        "link_records": _digest(linkage.link_records),
        "degrees": _digest(linkage.degrees),
        "multiplicities": _digest(linkage.multiplicities),
        "matches": _digest(np.column_stack([matched, matched])),
        "best": _digest(best),
        "pi_q_weights": _digest(incidence.values),
        "pi_q_covariates": _digest(weighted_sums(linkage, incidence,
                                                 link_values(linkage, aux))),
        "link_aggregates": _digest(np.concatenate(
            [a.ravel() for a in full_gram(*link_aggregates(linkage, reverse.values, aux))])),
        "links_rng": _digest(rng_links.bit_generator.state),
        "weights_rng": _digest(rng_weights.bit_generator.state),
    }
    for tag, inputs in zip(config.estimators, _build_block(config)[2]):
        digests[f"inputs_{tag}"] = _digest({
            "rows": [_array_digest(a) for a in inputs.rows],
            "calibration": _array_digest(inputs.calibration),
            "coefficients": _array_digest(inputs.coefficients),
        })
    return digests


@pytest.mark.parametrize("key", list(SETUP_BLOCKS))
def test_setup_matches_golden_digests(key):
    golden = json.loads(GOLDEN_SETUP_PATH.read_text(encoding="utf-8"))
    assert setup_digests(*SETUP_BLOCKS[key]) == golden[key]


def _draw_false_records_by_argsort(rng, owners, n_records):
    """The stable-argsort search for repeated (owner, record) pairs that
    ``_draw_false_records`` replaced by neighbour compares."""
    m = len(owners)
    cand = rng.integers(0, n_records - 1, size=m)
    cand = cand + (cand >= owners)
    while True:
        key = owners * np.int64(n_records) + cand
        order = np.argsort(key, kind="stable")
        dup_sorted = np.zeros(m, dtype=bool)
        dup_sorted[1:] = key[order][1:] == key[order][:-1]
        dup = np.zeros(m, dtype=bool)
        dup[order] = dup_sorted
        if not dup.any():
            return cand
        redraw = rng.integers(0, n_records - 1, size=int(dup.sum()))
        cand[dup] = redraw + (redraw >= owners[dup])


@settings(max_examples=200, deadline=None)
@given(n_records=st.integers(2, 12), seed=st.integers(0, 2**32),
       runs=st.lists(st.integers(0, 4), max_size=40))
def test_false_records_match_argsort_reference(n_records, seed, runs):
    runs = np.minimum(np.array(runs, dtype=np.int64), n_records - 1)[:n_records]
    owners = np.repeat(np.arange(len(runs), dtype=np.int64), runs)
    rng, reference_rng = rng_stream(seed, 1), rng_stream(seed, 1)
    cand = _draw_false_records(rng, owners, n_records)
    expected = _draw_false_records_by_argsort(reference_rng, owners, n_records)
    np.testing.assert_array_equal(cand, expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.all(cand != owners)
