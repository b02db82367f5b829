"""Bipartite link structures between population units and auxiliary records.

Units and records are dense 0-based integer indices; external identifiers are
mapped at ingestion (see ``dataio``). A structure is population-scoped when it
covers every unit 0..N-1 (all record link sets fully known) and sample-scoped
when it covers only the sampled units, in which case a record's observed link
set may be a strict subset of its true one.

Links are stored in one direction only: sorted by (unit, record), with one
offset per covered unit. The record side is kept only as per-record link
counts; a record's units come from a scan of the link arrays.

Weight schemes are immutable once built: they are constants of the sampling
process, and nothing downstream may mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

WEIGHT_SUM_TOL = 1e-12

POPULATION = "population"
SAMPLE = "sample"

INCIDENCE = "incidence"
REVERSE = "reverse"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AuxDatabase:
    """Auxiliary records: one fixed-dimension real vector per record.

    The vectors hold substantive covariates only; assisting models add their
    own intercept. Record ids are the row indices 0..n_records-1, so
    duplicates cannot occur by construction; duplicate external ids are
    rejected at ingestion.
    """

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValidationError("auxiliary matrix must be (n_records, dim>=1)")
        if not np.all(np.isfinite(x)):
            raise ValidationError("auxiliary values must be finite")
        object.__setattr__(self, "x", _readonly(x))

    @classmethod
    def from_values(cls, values: np.ndarray) -> "AuxDatabase":
        """Build from a single 1-d covariate."""
        return cls(x=np.asarray(values, dtype=np.float64).reshape(-1, 1))

    @property
    def n_records(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def total(self) -> np.ndarray:
        return self.x.sum(axis=0)

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.n_records


@dataclass(frozen=True)
class Population:
    """Study-variable values for units 0..N-1 (fully known in simulation mode)."""

    y: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1 or len(y) < 1:
            raise ValidationError("population values must be a nonempty 1-d array")
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def total(self) -> float:
        return float(self.y.sum())

    @property
    def mean(self) -> float:
        return float(self.y.mean())


@dataclass(frozen=True)
class MatchSet:
    """True unit-record matches (simulation mode): an injective partial map,
    held as the matched units in ascending order and the record of each."""

    units: np.ndarray
    records: np.ndarray

    def __post_init__(self) -> None:
        units = np.asarray(self.units, dtype=np.int64)
        records = np.asarray(self.records, dtype=np.int64)
        if units.ndim != 1 or records.shape != units.shape:
            raise ValidationError("matches need one record per matched unit")
        if np.any(np.diff(units) <= 0):
            raise ValidationError("matched units must be distinct and ascending")
        if np.any(np.diff(np.sort(records)) == 0):
            raise ValidationError("matches must map distinct units to distinct records")
        object.__setattr__(self, "units", _readonly(units))
        object.__setattr__(self, "records", _readonly(records))


class LinkageStructure:
    """Links between covered units and auxiliary records.

    A CSR layout over the links sorted by (unit, record): a unit's links are
    an O(1) slice, and ``degrees`` and ``multiplicities`` count the links of
    each covered unit and each record. No record-side index is built; the
    units of one record come from a scan of the link arrays, in the same
    ascending order.
    """

    def __init__(self, scope: str, covered_units: np.ndarray, n_records: int,
                 link_units: np.ndarray, link_records: np.ndarray):
        # invariants are enforced by build_linkage / restrict; this constructor
        # trusts sorted, validated inputs
        self.scope = scope
        self.covered_units = _readonly(covered_units)
        self.n_records = n_records
        self.link_units = _readonly(link_units)
        self.link_records = _readonly(link_records)
        self._unit_ptr = _readonly(np.searchsorted(
            link_units, np.append(covered_units, covered_units[-1] + 1)))
        self.degrees = _readonly(np.diff(self._unit_ptr).astype(np.int64, copy=False))
        self.multiplicities = _readonly(
            np.bincount(link_records, minlength=n_records).astype(np.int64, copy=False))

    @property
    def n_links(self) -> int:
        return len(self.link_units)

    @property
    def n_covered(self) -> int:
        return len(self.covered_units)

    @property
    def covered_records(self) -> np.ndarray:
        """Records reached by at least one link."""
        return np.unique(self.link_records)

    def unit_position(self, unit: int) -> int:
        pos = int(np.searchsorted(self.covered_units, unit))
        if pos >= self.n_covered or self.covered_units[pos] != unit:
            raise ValidationError(f"unit {unit} is not covered by this linkage")
        return pos

    def records_of(self, unit: int) -> np.ndarray:
        """The link set of a covered unit."""
        pos = self.unit_position(unit)
        return self.link_records[self._unit_ptr[pos]:self._unit_ptr[pos + 1]]

    def units_of(self, record: int) -> np.ndarray:
        """Units linked to a record, ascending: the full link set under
        population scope, the observed sample link set otherwise. Scans
        every link."""
        if not 0 <= record < self.n_records:
            raise ValidationError(f"record {record} out of range")
        return self.link_units[self.link_records == record]

    def unit_index_per_link(self) -> np.ndarray:
        """Covered-unit position of each link, aligned with the link arrays."""
        if self.scope == POPULATION:
            return self.link_units  # units 0..N-1 are their own positions
        return np.repeat(np.arange(self.n_covered), self.degrees)

    def restrict(self, unit_ids: np.ndarray) -> tuple["LinkageStructure", np.ndarray]:
        """Sample-scope restriction to a subset of covered units.

        Returns the restricted structure and the positions of its links in
        this structure's link order, so per-link data (weights) can be carried
        over by indexing.
        """
        units = np.unique(np.asarray(unit_ids, dtype=np.int64))
        pos = np.searchsorted(self.covered_units, units)
        if np.any(pos >= self.n_covered) or np.any(self.covered_units[pos] != units):
            missing = units[(pos >= self.n_covered) | (self.covered_units[np.minimum(pos, self.n_covered - 1)] != units)]
            raise ValidationError(f"units not covered by linkage: {missing[:5].tolist()}")
        keep = np.zeros(self.n_covered, dtype=bool)
        keep[pos] = True
        link_index = np.flatnonzero(np.repeat(keep, self.degrees))
        sub = LinkageStructure(
            scope=SAMPLE,
            covered_units=units,
            n_records=self.n_records,
            link_units=self.link_units[link_index],
            link_records=self.link_records[link_index],
        )
        return sub, link_index


def link_key(positions: np.ndarray, records: np.ndarray, n_records: int) -> np.ndarray:
    """One int64 key per link, ordering links by (unit position, record).

    Distinct links get distinct keys, so any sort of the keys puts the links
    in the same order, and equal keys are repeated links. The key is exact
    while the number of positions times ``n_records`` stays below 2**63.
    """
    key = positions * np.int64(n_records)
    key += records
    return key


def build_linkage(links: Iterable[tuple[int, int]] | np.ndarray,
                  covered_units: int | Sequence[int] | np.ndarray,
                  records: AuxDatabase | int) -> LinkageStructure:
    """Build and validate a linkage structure from (unit, record) pairs.

    ``covered_units`` given as an integer N means population scope over units
    0..N-1; given as a collection of ids it means sample scope over exactly
    those units. Every covered unit must carry at least one link; records may
    carry none.
    """
    pairs = np.asarray(list(links) if not isinstance(links, np.ndarray) else links,
                       dtype=np.int64)
    if pairs.size == 0:
        raise ValidationError("empty link set")
    pairs = pairs.reshape(-1, 2)
    n_records = records.n_records if isinstance(records, AuxDatabase) else int(records)

    if isinstance(covered_units, (int, np.integer)):
        scope = POPULATION
        covered = np.arange(int(covered_units), dtype=np.int64)
    else:
        scope = SAMPLE
        covered = np.unique(np.asarray(covered_units, dtype=np.int64))
    if len(covered) == 0:
        raise ValidationError("no covered units")
    if covered[0] < 0:
        raise ValidationError("unit ids must be nonnegative")

    units = pairs[:, 0]
    recs = pairs[:, 1]
    if recs.min() < 0 or recs.max() >= n_records:
        bad = recs[(recs < 0) | (recs >= n_records)][0]
        raise ValidationError(f"link references nonexistent record {bad}")
    if scope == POPULATION:
        # covered units are 0..N-1, so a unit is its own position
        pos = units
        bad_mask = (units < 0) | (units >= len(covered))
    else:
        pos = np.searchsorted(covered, units)
        bad_mask = (pos >= len(covered)) | (covered[np.minimum(pos, len(covered) - 1)] != units)
    if np.any(bad_mask):
        raise ValidationError(f"link references uncovered unit {units[bad_mask][0]}")

    key = link_key(pos, recs, n_records)
    key.sort()
    dup = np.flatnonzero(key[1:] == key[:-1])
    pos, recs = np.divmod(key, n_records, out=(key, np.empty_like(key)))
    units = pos if scope == POPULATION else covered[pos]
    if len(dup):
        raise ValidationError(f"duplicate link ({units[dup[0]]}, {recs[dup[0]]})")

    structure = LinkageStructure(scope, covered, n_records, units, recs)
    if np.any(structure.degrees == 0):
        missing = covered[np.flatnonzero(structure.degrees == 0)[0]]
        raise ValidationError(f"unit {missing} has no links")
    return structure


class WeightSumError(ValidationError):
    """Weights that do not sum to 1 over one record's units (incidence) or
    one unit's records (reverse). ``index`` is that record's or unit's dense
    index; ``message`` names it by an external id instead."""

    def __init__(self, kind: str, index: int, total: float):
        self.kind, self.index, self.total = kind, index, total
        super().__init__(self.message(index))

    def message(self, name) -> str:
        side = "record" if self.kind == INCIDENCE else "unit"
        return f"{self.kind} weights for {side} {name} sum to {self.total!r}, not 1"


@dataclass(frozen=True)
class WeightScheme:
    """Per-link weights of one of two kinds.

    Incidence weights sum to one over the units linked to each record (so
    they require population scope); reverse weights sum to one over the
    records linked to each unit and are available from sample links alone.
    A weight may be zero only on an existing link; non-links carry no entry.
    """

    kind: str
    linkage: LinkageStructure
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in (INCIDENCE, REVERSE):
            raise ValidationError(f"unknown weight kind {self.kind!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.linkage.n_links,):
            raise ValidationError("need exactly one weight per link")
        if not np.all(np.isfinite(values)):
            raise ValidationError("weights must be finite")
        if np.any(values < -WEIGHT_SUM_TOL) or np.any(values > 1 + WEIGHT_SUM_TOL):
            raise ValidationError("weights must lie in [0, 1]")
        if self.kind == INCIDENCE:
            if self.linkage.scope != POPULATION:
                raise ValidationError("incidence weights require population links")
            sums = np.bincount(self.linkage.link_records, weights=values,
                               minlength=self.linkage.n_records)
            linked = self.linkage.multiplicities > 0
            bad = np.abs(sums[linked] - 1.0) > WEIGHT_SUM_TOL
            if np.any(bad):
                rec = int(np.flatnonzero(linked)[np.flatnonzero(bad)[0]])
                raise WeightSumError(INCIDENCE, rec, float(sums[rec]))
        else:
            sums = np.add.reduceat(values, self.linkage._unit_ptr[:-1])
            bad = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
            if np.any(bad):
                i = np.flatnonzero(bad)[0]
                raise WeightSumError(REVERSE, int(self.linkage.covered_units[i]),
                                     float(sums[i]))
        object.__setattr__(self, "values", _readonly(values))

    def restrict(self, sub: LinkageStructure, link_index: np.ndarray) -> "WeightScheme":
        """Carry reverse weights onto a restriction produced by
        ``LinkageStructure.restrict`` (incidence sums would break)."""
        if self.kind != REVERSE:
            raise ValidationError("only reverse weights survive restriction to a sample")
        return WeightScheme(kind=REVERSE, linkage=sub, values=self.values[link_index])


def multiplicity_weights(linkage: LinkageStructure) -> WeightScheme:
    """Equal-split incidence weights 1/m per record with m > 0 links."""
    if linkage.scope != POPULATION:
        raise ValidationError("incidence weights require population links")
    values = 1.0 / linkage.multiplicities[linkage.link_records]
    return WeightScheme(kind=INCIDENCE, linkage=linkage, values=values)


def _best_positions(linkage: LinkageStructure, best_links: np.ndarray) -> np.ndarray:
    """Link-array position of each unit's best link, validating membership.

    ``best_links`` holds the best record of each covered unit, in covered
    order. Links are distinct within a unit, so each unit's segment of the
    link array matches its best record at most once.
    """
    best = np.asarray(best_links, dtype=np.int64)
    if best.shape != (linkage.n_covered,):
        raise ValidationError("best links must align with the covered units")
    hit = linkage.link_records == np.repeat(best, linkage.degrees)
    found = np.logical_or.reduceat(hit, linkage._unit_ptr[:-1])
    if not found.all():
        i = int(np.argmin(found))
        raise ValidationError(
            f"best link {best[i]} of unit {linkage.covered_units[i]} "
            "is not among its links"
        )
    return np.flatnonzero(hit)


def reverse_weights_best_link(linkage: LinkageStructure,
                              best_links: np.ndarray, q: float) -> WeightScheme:
    """Reverse weights that put q on each unit's best link.

    A unit with a single link gets weight 1 regardless of q; with d > 1 links
    the best link gets q and each other link gets (1 - q) / (d - 1).
    """
    if not 0 < q <= 1:
        raise ValidationError(f"q must lie in (0, 1], got {q}")
    best_pos = _best_positions(linkage, best_links)
    d = linkage.degrees
    per_unit_other = np.where(d > 1, (1.0 - q) / np.maximum(d - 1, 1), 0.0)
    values = np.repeat(per_unit_other, d)
    values[best_pos] = np.where(d > 1, q, 1.0)
    return WeightScheme(kind=REVERSE, linkage=linkage, values=values)


def best_link_indicator_weights(linkage: LinkageStructure,
                                best_links: np.ndarray) -> WeightScheme:
    """Degenerate reverse weights: full weight on each unit's best link.

    Not an incidence scheme: one record may be the best link of several units,
    so its unit-side weights need not sum to 1.
    """
    best_pos = _best_positions(linkage, best_links)
    values = np.zeros(linkage.n_links)
    values[best_pos] = 1.0
    return WeightScheme(kind=REVERSE, linkage=linkage, values=values)


def unit_sums(linkage: LinkageStructure, columns: Iterable[np.ndarray]) -> np.ndarray:
    """Each per-link column summed over every covered unit's links, added in
    link order from 0.0: (n_covered, number of columns).

    ``columns`` is consumed one column at a time, so a generator keeps a
    single per-link temporary alive.
    """
    unit_idx = linkage.unit_index_per_link()
    return np.column_stack([np.bincount(unit_idx, weights=column, minlength=linkage.n_covered)
                            for column in columns])


def derive_covariates(linkage: LinkageStructure, scheme: WeightScheme,
                      aux: AuxDatabase) -> np.ndarray:
    """The scheme-weighted sums of the record values over each covered
    unit's links, (n_covered, dim): the covariate of the incidence- and
    reverse-weighted estimators."""
    if scheme.linkage is not linkage:
        raise ValidationError("weight scheme was built for a different linkage")
    if aux.n_records != linkage.n_records:
        raise ValidationError("auxiliary database does not match the linkage")
    return unit_sums(linkage, (scheme.values * aux.x[linkage.link_records, j]
                               for j in range(aux.dim)))
