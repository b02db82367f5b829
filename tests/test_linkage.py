"""Link structures, weight schemes and derived covariates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greglink.errors import ValidationError
from greglink.linkage import (
    AuxDatabase,
    WeightScheme,
    WeightSumError,
    _best_positions,
    build_linkage,
    link_values,
    multiplicity_weights,
    reverse_weights_best_link,
    unit_sums,
    weighted_sums,
)
from support import EXAMPLE_LINKS, EXAMPLE_X


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
    assert list(L.multiplicities) == [0, 2, 2, 2, 1, 2]
    assert list(L.degrees) == [1, 1, 2, 3, 1, 1]


def test_sample_adjacency(example_aux):
    # sample {1,2,3}: observed link sets of shared records
    links = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]
    L = build_linkage(links, [1, 2, 3], example_aux)
    assert L.scope == "sample"
    assert list(L.records_of(2)) == [2, 3]
    assert list(L.degrees) == [1, 2, 3]
    # records 2 and 3 are shared by units 2 and 3, record 4 is unit 3's alone
    assert list(L.multiplicities) == [0, 1, 2, 2, 1, 0]


def test_identity_links_all_degrees_one():
    aux = AuxDatabase.from_values(np.arange(7.0))
    L = build_linkage([(i, i) for i in range(7)], 7, aux)
    assert np.all(L.degrees == 1)
    assert np.all(L.multiplicities == 1)


def test_hand_built_two_unit_linkage():
    aux = AuxDatabase.from_values(np.array([2.0, 4.0]))
    L = build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux)
    assert list(L.multiplicities) == [2, 1]
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
        reverse_weights_best_link(L3, np.array([0, 0, 1]), q=0.4)
    with pytest.raises(ValidationError, match="q must lie"):
        reverse_weights_best_link(L, np.array([0]), q=0.0)
    with pytest.raises(ValidationError, match="q must lie"):
        reverse_weights_best_link(L, np.array([0]), q=1.2)
    with pytest.raises(ValidationError, match="align with the covered units"):
        reverse_weights_best_link(L3, np.array([0, 1]), q=0.4)


def test_derive_covariates_unlinked_record_drops_value(example_population_links, example_aux):
    # record 0 is unlinked, so the weighted total drops exactly x_0
    scheme = multiplicity_weights(example_population_links)
    derived = weighted_sums(example_population_links, scheme,
                            link_values(example_population_links, example_aux))
    assert derived.sum() == pytest.approx(EXAMPLE_X.sum() - EXAMPLE_X[0])


def test_derive_covariates_one_one_perfect():
    x = np.array([3.0, 1.0, 4.0, 1.5])
    aux = AuxDatabase.from_values(x)
    L = build_linkage([(i, i) for i in range(4)], 4, aux)
    for scheme in (multiplicity_weights(L),
                   reverse_weights_best_link(L, np.arange(4), 0.7),
                   # q = 1: the best-link indicator
                   reverse_weights_best_link(L, np.arange(4), 1.0)):
        derived = weighted_sums(L, scheme, link_values(L, aux))
        assert np.allclose(derived[:, 0], x)
        assert derived.sum() == pytest.approx(x.sum())


def test_derive_covariates_hand_example():
    aux = AuxDatabase.from_values(np.array([2.0, 4.0]))
    L = build_linkage([(0, 0), (1, 0), (1, 1)], 2, aux)
    derived = weighted_sums(L, multiplicity_weights(L), link_values(L, aux))
    assert derived[:, 0] == pytest.approx([1.0, 5.0])
    assert derived.sum() == pytest.approx(6.0)
    assert derived.sum() == pytest.approx(aux.total[0])


def test_derive_covariates_rejects_foreign_scheme(example_aux,
                                                  example_population_links):
    other = build_linkage(EXAMPLE_LINKS, 6, example_aux)
    scheme = multiplicity_weights(other)
    with pytest.raises(ValidationError, match="different linkage"):
        weighted_sums(example_population_links, scheme,
                      link_values(example_population_links, example_aux))


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
    # each record's link count is the number of unit link sets it is in
    unit_sets = [L.records_of(int(unit)) for unit in L.covered_units]
    assert np.array_equal(np.bincount(np.concatenate(unit_sets), minlength=L.n_records),
                          L.multiplicities)
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
    derived = weighted_sums(L, scheme, link_values(L, aux))
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
    """Links in (unit, record) order by lexsort."""
    pairs = np.asarray(pairs, dtype=np.int64)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order, 0], pairs[order, 1]


@given(shuffled_links())
@settings(max_examples=80, deadline=None)
def test_build_linkage_orders_links_like_lexsort(case):
    pairs, covered, n_rec = case
    L = build_linkage(pairs, covered, n_rec)
    units, records = reference_links(pairs)
    assert np.array_equal(L.link_units, units)
    assert np.array_equal(L.link_records, records)
    assert np.array_equal(L.multiplicities, np.bincount(records, minlength=n_rec))


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


def per_unit_links(L):
    """Each covered unit's link positions, by a plain loop over the links."""
    return [[l for l in range(L.n_links) if L.link_units[l] == unit]
            for unit in L.covered_units]


@given(shuffled_links(), st.floats(0.05, 1.0), st.data())
@settings(max_examples=80, deadline=None)
def test_unit_link_primitives_match_a_per_unit_loop(case, q, data):
    pairs, covered, n_rec = case
    L = build_linkage(pairs, covered, n_rec)
    links = per_unit_links(L)
    degrees = [len(positions) for positions in links]
    assert L.degrees.tolist() == degrees
    assert L._unit_ptr.tolist() == [0] + np.cumsum(degrees).tolist()
    assert L.multiplicities.tolist() == [
        sum(1 for r in L.link_records if r == record) for record in range(n_rec)]
    unit_index = [0] * L.n_links
    for i, positions in enumerate(links):
        for l in positions:
            unit_index[l] = i
    assert L.unit_index_per_link().tolist() == unit_index

    # sums over each unit's links, added in link order from 0.0
    column = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=L.n_links,
                                         max_size=L.n_links)))
    expected = []
    for positions in links:
        total = 0.0
        for l in positions:
            total += column[l]
        expected.append(total)
    assert unit_sums(L, [column], 1)[:, 0].tobytes() == np.array(expected).tobytes()

    # best links: each unit's record, or, for some units, one it lacks
    best = np.array([data.draw(st.sampled_from(sorted(set(L.link_records[positions])
                                                      | {n_rec})))
                     for positions in links])
    missing = [i for i, positions in enumerate(links)
               if best[i] not in L.link_records[positions]]
    if missing:
        i = missing[0]
        message = (f"best link {best[i]} of unit {L.covered_units[i]} "
                   "is not among its links")
        for build in (lambda: _best_positions(L, best),
                      lambda: reverse_weights_best_link(L, best, q)):
            with pytest.raises(ValidationError) as excinfo:
                build()
            assert str(excinfo.value) == message
    else:
        best_pos = [l for i, positions in enumerate(links) for l in positions
                    if L.link_records[l] == best[i]]
        assert _best_positions(L, best).tolist() == best_pos
        values = [0.0] * L.n_links
        for i, positions in enumerate(links):
            for l in positions:
                d = degrees[i]
                values[l] = (1.0 if d == 1 else q if l in best_pos
                             else (1.0 - q) / (d - 1))
        scheme = reverse_weights_best_link(L, best, q)
        assert scheme.values.tobytes() == np.array(values).tobytes()

    # reverse weights: the first unit whose weights do not sum to 1, and the
    # sum from 0.0, so a unit of -0.0 weights sums to 0.0
    weights = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                                 min_size=L.n_links, max_size=L.n_links))
    sums = []
    for positions in links:
        total = 0.0
        for l in positions:
            total += weights[l]
        sums.append(total)
    weights = np.array(weights)
    bad = [i for i, total in enumerate(sums) if abs(total - 1.0) > 1e-12]
    if not bad:
        WeightScheme(kind="reverse", linkage=L, values=weights)
        return
    with pytest.raises(WeightSumError) as excinfo:
        WeightScheme(kind="reverse", linkage=L, values=weights)
    i = bad[0]
    assert (excinfo.value.index, repr(excinfo.value.total)) == (
        int(L.covered_units[i]), repr(sums[i]))
    assert str(excinfo.value) == (
        f"reverse weights for unit {L.covered_units[i]} sum to {sums[i]!r}, not 1")


def test_reverse_weights_of_negative_zero_sum_to_zero(example_population_links):
    # the sum starts from 0.0, so it prints 0.0 where -0.0 + -0.0 printed -0.0
    values = multiplicity_weights(example_population_links).values.copy()
    values[:2] = -0.0
    with pytest.raises(WeightSumError) as excinfo:
        WeightScheme(kind="reverse", linkage=example_population_links, values=values)
    assert str(excinfo.value) == "reverse weights for unit 0 sum to 0.0, not 1"
