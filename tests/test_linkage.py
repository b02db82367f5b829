"""Link structures, weight schemes and derived covariates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greglink.errors import ValidationError
from greglink.linkage import (
    AuxDatabase,
    MatchSet,
    WeightScheme,
    best_link_indicator_weights,
    build_linkage,
    derive_covariates,
    multiplicity_weights,
    reverse_weights_best_link,
)

# six units, six records; record 0 carries no links, unit 5 is unmatched
EXAMPLE_LINKS = [(0, 1), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 5), (5, 5)]
EXAMPLE_X = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.fixture
def example_aux():
    return AuxDatabase.from_values(EXAMPLE_X)


@pytest.fixture
def example_population_links(example_aux):
    return build_linkage(EXAMPLE_LINKS, 6, example_aux)


def test_population_adjacency(example_population_links):
    L = example_population_links
    assert L.scope == "population"
    assert L.n_links == 9
    assert list(L.records_of(2)) == [2, 3]
    assert list(L.records_of(3)) == [2, 3, 4]
    assert list(L.units_of(1)) == [0, 1]
    assert list(L.multiplicities) == [0, 2, 2, 2, 1, 2]
    assert list(L.degrees) == [1, 1, 2, 3, 1, 1]


def test_sample_adjacency(example_aux):
    # sample {1,2,3}: observed link sets of shared records
    links = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]
    L = build_linkage(links, [1, 2, 3], example_aux)
    assert L.scope == "sample"
    assert list(L.records_of(2)) == [2, 3]
    assert list(L.units_of(2)) == [2, 3]
    assert list(L.units_of(3)) == [2, 3]
    assert list(L.units_of(4)) == [3]
    assert list(L.degrees) == [1, 2, 3]
    assert set(L.covered_records) == {1, 2, 3, 4}


def test_identity_links_all_degrees_one():
    aux = AuxDatabase.from_values(np.arange(7.0))
    L = build_linkage([(i, i) for i in range(7)], 7, aux)
    assert np.all(L.degrees == 1)
    assert np.all(L.multiplicities == 1)


def test_hand_built_two_unit_linkage():
    aux = AuxDatabase.from_values(np.array([2.0, 4.0]))
    L = build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux)
    assert list(L.units_of(0)) == [0, 1]
    assert list(L.units_of(1)) == [1]
    assert list(L.degrees) == [1, 2]


def test_build_rejects_uncovered_unit():
    aux = AuxDatabase.from_values(np.arange(3.0))
    with pytest.raises(ValidationError, match="unit 1 has no links"):
        build_linkage([(0, 0), (2, 1)], 3, aux)


def test_build_rejects_duplicate_link():
    aux = AuxDatabase.from_values(np.arange(3.0))
    with pytest.raises(ValidationError, match="duplicate link"):
        build_linkage([(0, 0), (0, 0), (1, 1), (2, 2)], 3, aux)


def test_build_rejects_dangling_record():
    aux = AuxDatabase.from_values(np.arange(3.0))
    with pytest.raises(ValidationError, match="nonexistent record"):
        build_linkage([(0, 0), (1, 5), (2, 2)], 3, aux)


def test_build_rejects_link_outside_covered_units():
    aux = AuxDatabase.from_values(np.arange(3.0))
    with pytest.raises(ValidationError, match="uncovered unit"):
        build_linkage([(0, 0), (4, 1)], [0, 1], aux)


def test_multiplicity_weights_worked_example(example_population_links):
    scheme = multiplicity_weights(example_population_links)
    L = example_population_links
    w = {(int(u), int(r)): v
         for u, r, v in zip(L.link_units, L.link_records, scheme.values)}
    assert w[(1, 1)] == 0.5 and w[(0, 1)] == 0.5
    assert w[(2, 2)] == 0.5 and w[(3, 2)] == 0.5
    assert w[(2, 3)] == 0.5 and w[(3, 3)] == 0.5
    assert w[(3, 4)] == 1.0
    assert w[(4, 5)] == 0.5 and w[(5, 5)] == 0.5


def test_multiplicity_weights_one_one_linkage():
    aux = AuxDatabase.from_values(np.arange(4.0))
    L = build_linkage([(i, i) for i in range(4)], 4, aux)
    scheme = multiplicity_weights(L)
    assert np.all(scheme.values == 1.0)


def test_multiplicity_weights_hand_example():
    aux = AuxDatabase.from_values(np.array([2.0, 4.0]))
    L = build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux)
    scheme = multiplicity_weights(L)
    w = {(int(u), int(r)): v
         for u, r, v in zip(L.link_units, L.link_records, scheme.values)}
    assert w == {(0, 0): 0.5, (1, 0): 0.5, (1, 1): 1.0}


def test_multiplicity_weights_require_population_scope(example_aux):
    L = build_linkage([(1, 1), (2, 2)], [1, 2], example_aux)
    with pytest.raises(ValidationError, match="population links"):
        multiplicity_weights(L)


def test_reverse_weights_best_link_splits():
    aux = AuxDatabase.from_values(np.arange(6.0))
    L = build_linkage([(0, 0), (0, 1), (0, 2), (1, 3), (2, 4), (2, 5)], [0, 1, 2], aux)
    scheme = reverse_weights_best_link(L, np.array([1, 3, 5]), q=0.4)
    w = {(int(u), int(r)): v
         for u, r, v in zip(L.link_units, L.link_records, scheme.values)}
    assert w[(0, 1)] == pytest.approx(0.4)
    assert w[(0, 0)] == pytest.approx(0.3)
    assert w[(0, 2)] == pytest.approx(0.3)
    assert w[(1, 3)] == 1.0  # single link gets weight 1 regardless of q
    assert w[(2, 5)] == pytest.approx(0.4)
    assert w[(2, 4)] == pytest.approx(0.6)


def test_reverse_weights_two_links():
    aux = AuxDatabase.from_values(np.arange(2.0))
    L = build_linkage([(0, 0), (0, 1)], [0], aux)
    scheme = reverse_weights_best_link(L, np.array([0]), q=0.7)
    assert sorted(scheme.values.tolist()) == [pytest.approx(0.3), pytest.approx(0.7)]


def test_reverse_weights_validation():
    aux = AuxDatabase.from_values(np.arange(3.0))
    L = build_linkage([(0, 0), (0, 1)], [0], aux)
    with pytest.raises(ValidationError, match="not among its links"):
        reverse_weights_best_link(L, np.array([2]), q=0.4)
    # the first unit whose best link is missing is the one named
    L3 = build_linkage([(0, 0), (1, 1), (1, 2), (2, 0)], [0, 1, 2], aux)
    with pytest.raises(ValidationError, match="best link 0 of unit 1 is not"):
        best_link_indicator_weights(L3, np.array([0, 0, 1]))
    with pytest.raises(ValidationError, match="q must lie"):
        reverse_weights_best_link(L, np.array([0]), q=0.0)
    with pytest.raises(ValidationError, match="q must lie"):
        reverse_weights_best_link(L, np.array([0]), q=1.2)
    with pytest.raises(ValidationError, match="align with the covered units"):
        best_link_indicator_weights(L3, np.array([0, 1]))


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


def test_derive_covariates_unlinked_record_drops_value(example_population_links, example_aux):
    # record 0 is unlinked, so the weighted total drops exactly x_0
    scheme = multiplicity_weights(example_population_links)
    derived = derive_covariates(example_population_links, scheme, example_aux)
    assert derived.sum() == pytest.approx(EXAMPLE_X.sum() - EXAMPLE_X[0])


def test_derive_covariates_one_one_perfect():
    x = np.array([3.0, 1.0, 4.0, 1.5])
    aux = AuxDatabase.from_values(x)
    L = build_linkage([(i, i) for i in range(4)], 4, aux)
    for scheme in (multiplicity_weights(L),
                   reverse_weights_best_link(L, np.arange(4), 0.7),
                   best_link_indicator_weights(L, np.arange(4))):
        derived = derive_covariates(L, scheme, aux)
        assert np.allclose(derived[:, 0], x)
        assert derived.sum() == pytest.approx(x.sum())


def test_derive_covariates_hand_example():
    aux = AuxDatabase.from_values(np.array([2.0, 4.0]))
    L = build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux)
    derived = derive_covariates(L, multiplicity_weights(L), aux)
    assert derived[:, 0] == pytest.approx([1.0, 5.0])
    assert derived.sum() == pytest.approx(6.0)
    assert derived.sum() == pytest.approx(aux.total[0])


def test_derive_covariates_rejects_foreign_scheme(example_aux,
                                                  example_population_links):
    other = build_linkage(EXAMPLE_LINKS, 6, example_aux)
    scheme = multiplicity_weights(other)
    with pytest.raises(ValidationError, match="different linkage"):
        derive_covariates(example_population_links, scheme, example_aux)


def test_restrict_carries_reverse_weights(example_population_links, example_aux):
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


def test_weight_scheme_rejects_bad_sums(example_population_links):
    values = np.full(example_population_links.n_links, 0.5)
    with pytest.raises(ValidationError, match="sum to"):
        WeightScheme(kind="reverse", linkage=example_population_links, values=values)


@pytest.mark.parametrize("kind, message", [
    ("incidence", "incidence weights for record 4 sum to 0.5, not 1"),
    ("reverse", "reverse weights for unit 0 sum to 0.5, not 1"),
], ids=["incidence", "reverse"])
def test_weight_sum_errors_print_plain_numbers(example_population_links, kind, message):
    values = np.full(example_population_links.n_links, 0.5)
    with pytest.raises(ValidationError) as excinfo:
        WeightScheme(kind=kind, linkage=example_population_links, values=values)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", ["incidence", "reverse"])
def test_weight_scheme_rejects_non_finite_values(example_population_links, kind):
    values = multiplicity_weights(example_population_links).values.copy()
    values[1] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        WeightScheme(kind=kind, linkage=example_population_links, values=values)
    with pytest.raises(ValidationError, match="finite"):
        WeightScheme(kind=kind, linkage=example_population_links,
                     values=np.full(example_population_links.n_links, np.nan))


def test_matchset_injective():
    MatchSet(units=[0, 1], records=[1, 2])
    with pytest.raises(ValidationError, match="distinct"):
        MatchSet(units=[0, 1], records=[1, 1])
    m = MatchSet(units=[0, 2], records=[3, 1])
    assert dict(zip(m.records.tolist(), m.units.tolist())) == {3: 0, 1: 2}


# random small linkages: every unit picks a nonempty subset of records
links_strategy = st.integers(2, 7).flatmap(
    lambda n_rec: st.lists(
        st.sets(st.integers(0, n_rec - 1), min_size=1, max_size=min(3, n_rec)),
        min_size=1, max_size=8,
    ).map(lambda subsets: (n_rec, subsets))
)


@st.composite
def random_linkage(draw):
    n_rec, subsets = draw(links_strategy)
    links = [(i, r) for i, recs in enumerate(subsets) for r in recs]
    aux = AuxDatabase.from_values(
        draw(st.lists(st.floats(-10, 10), min_size=n_rec, max_size=n_rec)))
    return build_linkage(links, len(subsets), aux), aux


@given(random_linkage())
@settings(max_examples=60, deadline=None)
def test_transpose_consistency(linkage_aux):
    L, _ = linkage_aux
    for unit in L.covered_units:
        for rec in L.records_of(int(unit)):
            assert unit in L.units_of(int(rec))
    for rec in range(L.n_records):
        for unit in L.units_of(rec):
            assert rec in L.records_of(int(unit))
    assert L.multiplicities.sum() == L.n_links
    assert L.degrees.sum() == L.n_links


@given(random_linkage())
@settings(max_examples=60, deadline=None)
def test_incidence_sums_and_total_identity(linkage_aux):
    L, aux = linkage_aux
    scheme = multiplicity_weights(L)
    sums = np.bincount(L.link_records, weights=scheme.values,
                       minlength=L.n_records)
    linked = L.multiplicities > 0
    assert np.all(np.abs(sums[linked] - 1.0) <= 1e-12)
    derived = derive_covariates(L, scheme, aux)
    if np.all(linked):
        # every record linked: the weighted total telescopes to the file total
        scale = max(1.0, float(np.abs(aux.total[0])))
        assert abs(derived.sum() - aux.total[0]) <= 1e-10 * scale


@given(random_linkage(), st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_reverse_sums(linkage_aux, q):
    L, _ = linkage_aux
    best = np.array([L.records_of(int(u))[0] for u in L.covered_units])
    scheme = reverse_weights_best_link(L, best, q)
    sums = np.add.reduceat(scheme.values, L._unit_ptr[:-1])
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


@st.composite
def shuffled_links(draw):
    """Distinct (unit, record) pairs in random order, with the covered units
    to build them under: N for population scope, or sparse unit ids."""
    n_rec = draw(st.integers(1, 6))
    n_units = draw(st.integers(1, 8))
    if draw(st.booleans()):
        units, covered = list(range(n_units)), n_units
    else:
        units = sorted(draw(st.sets(st.integers(0, 40), min_size=n_units,
                                    max_size=n_units)))
        covered = units
    pairs = [(u, r) for u in units
             for r in draw(st.sets(st.integers(0, n_rec - 1), min_size=1, max_size=3))]
    return draw(st.permutations(pairs)), covered, n_rec


def reference_links(pairs):
    """Links in (unit, record) order by lexsort, and the stable record order."""
    pairs = np.asarray(pairs, dtype=np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    units, records = pairs[order, 0], pairs[order, 1]
    return units, records, np.argsort(records, kind="stable")


@given(shuffled_links())
@settings(max_examples=80, deadline=None)
def test_build_linkage_orders_links_like_lexsort(case):
    pairs, covered, n_rec = case
    L = build_linkage(pairs, covered, n_rec)
    units, records, rec_order = reference_links(pairs)
    assert np.array_equal(L.link_units, units)
    assert np.array_equal(L.link_records, records)
    for record in range(n_rec):
        assert np.array_equal(L.units_of(record),
                              units[rec_order][records[rec_order] == record])


@given(shuffled_links(), st.sampled_from(["duplicate", "dangling", "uncovered"]),
       st.data())
@settings(max_examples=80, deadline=None)
def test_build_linkage_rejects_bad_pairs_by_name(case, defect, data):
    pairs, covered, n_rec = case
    if defect == "duplicate":
        bad = data.draw(st.sampled_from(pairs))
        message = f"duplicate link ({bad[0]}, {bad[1]})"
    elif defect == "dangling":
        bad = (pairs[0][0], n_rec)
        message = f"link references nonexistent record {n_rec}"
    else:
        unit = covered if isinstance(covered, int) else max(covered) + 1
        bad = (unit, 0)
        message = f"link references uncovered unit {unit}"
    with pytest.raises(ValidationError) as excinfo:
        build_linkage(data.draw(st.permutations(pairs + [bad])), covered, n_rec)
    assert str(excinfo.value) == message
