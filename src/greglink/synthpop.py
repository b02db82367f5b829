"""Synthetic populations, matches, links and link weights for simulation.

The generators follow one fixed recipe. Study values come from a linear
model with uniform covariate and optionally heteroscedastic noise. The
auxiliary file equals the population, so unit i's match is record i, and
the matches are given by the matched units alone; the ideal matched-data
estimator is computable as a reference.
Link counts, match coverage and best-link quality are controlled by three
proportions:

* a share of units per link count 1, 2 or 3;
* the share of units whose match is among their links (every single-link
  unit's link is its match; the remaining matched units are drawn uniformly
  from the multi-link units);
* the share of units whose best link is their match (drawn uniformly from
  the matched multi-link units; every other unit's best link is drawn
  uniformly from its false links).

False links are drawn uniformly without replacement from the records other
than the unit's own matching record, so match counts stay exact. All draws
consume an explicit generator; identical seeds give identical structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import MAX_POPULATION
from .errors import ValidationError
from .linkage import (
    POPULATION,
    AuxDatabase,
    LinkageStructure,
    Population,
    build_linkage,
    link_key,
)


INTERCEPT, SLOPE = 1.0, 5.0


@dataclass(frozen=True)
class PopulationModel:
    """Linear study-variable model y = INTERCEPT + SLOPE * x + noise.

    The covariate is uniform on (0, 1); the noise is centred normal with
    per-unit scale sigma * x**gamma, so gamma = 0 is homoscedastic and
    gamma = 1 makes the spread proportional to the covariate.
    """

    n_units: int
    sigma: float = 1.5
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise ValidationError("population must have at least 1 unit")
        if self.n_units >= MAX_POPULATION:
            raise ValidationError(f"population size {self.n_units} is not below 2**63")
        if not 0 < self.sigma < np.inf:
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class LinkageModel:
    """Link-count shares, match coverage, best-link quality and the
    weight placed on best links."""

    link_share: tuple[float, float, float]
    match_rate: float
    correct_best_rate: float
    best_link_weight: float = 0.4

    def __post_init__(self) -> None:
        share = tuple(float(v) for v in self.link_share)
        if len(share) != 3 or not all(0 <= v <= 1 for v in share):
            raise ValidationError(f"link shares must be three numbers in [0, 1], got {share}")
        if abs(sum(share) - 1.0) > 1e-9:
            raise ValidationError(f"link shares must sum to 1, got {sum(share):.12g}")
        p1 = share[0]
        if not p1 - 1e-12 <= self.match_rate <= 1 + 1e-12:
            raise ValidationError(
                f"match rate {self.match_rate} outside [{p1}, 1] "
                "(every single-link unit is matched)"
            )
        if not p1 - 1e-12 <= self.correct_best_rate <= self.match_rate + 1e-12:
            raise ValidationError(
                f"correct-best rate {self.correct_best_rate} outside "
                f"[{p1}, {self.match_rate}]"
            )
        if not 0 < self.best_link_weight <= 1:
            raise ValidationError("best-link weight must lie in (0, 1]")
        object.__setattr__(self, "link_share", share)

    def counts(self, n_units: int) -> tuple[np.ndarray, int, int]:
        """The units with 1, 2 and 3 links, the matched units and the
        correctly best-linked units that ``gen_linkage`` draws for
        ``n_units`` units.

        Raises ``ValidationError`` when rounding leaves fewer matched units
        than single-link units, or correctly best-linked units outside the
        single-link units to the matched units, and when any draw can give
        a unit more false links, each a distinct record of another unit,
        than the ``n_units - 1`` such records: a unit of the largest link
        count can have all its links false as soon as some unit is unmatched.
        """
        if n_units < 1:
            raise ValidationError("population must have at least 1 unit")
        per_degree = proportional_counts(n_units, self.link_share)
        n_single = int(per_degree[0])
        matched = round(n_units * self.match_rate)
        if matched < n_single:
            raise ValidationError(f"match rate {self.match_rate} inconsistent with "
                                  f"{n_single} single-link units")
        correct_best = round(n_units * self.correct_best_rate)
        if not n_single <= correct_best <= matched:
            raise ValidationError(f"correct-best rate {self.correct_best_rate} "
                                  "inconsistent with the match counts")
        # the largest link count, less the match when every unit is matched
        most_false = int(np.flatnonzero(per_degree)[-1]) + (matched < n_units)
        if most_false >= n_units:
            raise ValidationError(f"a unit can need {most_false} distinct false links, "
                                  f"but only {n_units - 1} other records exist")
        return per_degree, matched, correct_best


def gen_population(model: PopulationModel,
                   rng: np.random.Generator) -> tuple[np.ndarray, Population]:
    """Draw covariates and study values; returns (x, population)."""
    x = rng.uniform(size=model.n_units)
    scale = model.sigma * x**model.gamma
    noise = rng.normal(0.0, 1.0, size=model.n_units) * scale
    y = INTERCEPT + SLOPE * x + noise
    return x, Population(y=y)


def proportional_counts(n: int, shares: tuple[float, ...]) -> np.ndarray:
    """Integer category counts: banker's rounding, largest share absorbs
    the remainder so the counts sum exactly to n."""
    counts = np.array([round(n * s) for s in shares], dtype=np.int64)
    counts[int(np.argmax(shares))] += n - counts.sum()
    if np.any(counts < 0):
        raise ValidationError(f"shares {shares} produce negative counts at n={n}")
    return counts


def _draw_false_records(rng: np.random.Generator, owners: np.ndarray,
                        n_records: int) -> np.ndarray:
    """Uniform distinct false records per owner, never the owner's own record.

    ``owners`` is ascending, so a repeated (owner, record) pair lies within
    one owner's run and is found by comparing each link with the links 1, 2,
    ... places before it, up to the longest run. Every repeat after the
    first is redrawn, in link order, until none is left.
    """
    m = len(owners)
    cand = rng.integers(0, n_records - 1, size=m)
    cand = cand + (cand >= owners)
    same_owner = []
    for offset in range(1, m):
        same = owners[offset:] == owners[:-offset]
        if not same.any():
            break
        same_owner.append((offset, same))
    while True:
        dup = np.zeros(m, dtype=bool)
        for offset, same in same_owner:
            dup[offset:] |= same & (cand[offset:] == cand[:-offset])
        if not dup.any():
            return cand
        redraw = rng.integers(0, n_records - 1, size=int(dup.sum()))
        cand[dup] = redraw + (redraw >= owners[dup])


def gen_linkage(n_units: int, model: LinkageModel, rng: np.random.Generator
                ) -> tuple[np.ndarray, LinkageStructure, np.ndarray]:
    """Generate matches, population links and best links over A = U.

    Returns the matched units in ascending order (the units whose match,
    record i for unit i, is among their links), the population-scope
    linkage, and the best-link record per unit. ``model.counts(n_units)``
    gives, and checks, the unit counts before any draw.
    """
    per_degree, n_matched, n_correct_best = model.counts(n_units)
    n_single, n_double = int(per_degree[0]), int(per_degree[1])

    degree = np.empty(n_units, dtype=np.int64)
    perm = rng.permutation(n_units)
    degree[perm[:n_single]] = 1
    degree[perm[n_single:n_single + n_double]] = 2
    degree[perm[n_single + n_double:]] = 3

    multi_units = np.flatnonzero(degree > 1)
    extra_matched = np.sort(rng.choice(multi_units, size=n_matched - n_single,
                                       replace=False))
    matched = degree == 1
    matched[extra_matched] = True

    n_false = degree - matched.astype(np.int64)
    owners = np.repeat(np.arange(n_units, dtype=np.int64), n_false)
    false_records = _draw_false_records(rng, owners, n_units)

    matched_units = np.flatnonzero(matched)
    pairs = np.empty((len(matched_units) + len(owners), 2), dtype=np.int64)
    pairs[:len(matched_units)] = matched_units[:, None]
    pairs[len(matched_units):, 0] = owners
    pairs[len(matched_units):, 1] = false_records
    del owners  # not needed again; freed before build_linkage's own arrays
    linkage = build_linkage(pairs, n_units, n_units)

    correct_best = rng.choice(extra_matched, size=n_correct_best - n_single,
                              replace=False)

    best = np.full(n_units, -1, dtype=np.int64)
    best[degree == 1] = np.flatnonzero(degree == 1)
    best[correct_best] = correct_best
    rest = np.flatnonzero(best < 0)
    false_offsets = np.concatenate([[0], np.cumsum(n_false)])
    pick = rng.integers(0, n_false[rest])
    best[rest] = false_records[false_offsets[rest] + pick]

    return matched_units, linkage, best


def gen_pi_q_weights(linkage: LinkageStructure, matched: np.ndarray, q: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Unequal incidence weights, one per link: q on record r's link to its
    match, unit r, when r is among the ``matched`` units, otherwise q on a
    uniformly chosen link; the other links share (1 - q) equally. Single-link
    records get weight 1. ``link_weights`` checks them."""
    if linkage.scope != POPULATION:
        raise ValidationError("incidence weights require population links")
    if not 0 < q <= 1:
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    m = linkage.multiplicities
    records = linkage.link_records
    values = np.where(m == 1, 1.0, (1.0 - q) / np.maximum(m - 1, 1))[records]
    # q on the match link where it is among the record's links, otherwise on
    # a link drawn per record, records in ascending order
    is_matched = np.zeros(linkage.n_records, dtype=bool)
    is_matched[matched] = True
    hit = np.flatnonzero(linkage.link_units == records)
    hit = hit[(is_matched & (m > 1))[records[hit]]]
    values[hit] = q
    need = m > 1
    need[records[hit]] = False
    need = np.flatnonzero(need)
    pick = rng.integers(0, m[need])
    # links in record order, units ascending within each record: one
    # in-place sort of a unique integer key, whose remainder is the order
    n_links = linkage.n_links
    order = link_key(records, np.arange(n_links), n_links)
    order.sort()
    np.remainder(order, n_links, out=order)
    values[order[np.cumsum(m)[need] - m[need] + pick]] = q
    return values


def aux_from_population(x: np.ndarray) -> AuxDatabase:
    """Auxiliary file equal to the population: record i holds x_i."""
    return AuxDatabase.from_values(x)
