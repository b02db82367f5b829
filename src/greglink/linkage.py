"""Bipartite link structures between population units and auxiliary records.

Units and records are dense 0-based integer indices; external identifiers are
mapped at ingestion (see ``dataio``). A structure is population-scoped when it
covers every unit 0..N-1 (all record link sets fully known) and sample-scoped
when it covers only the sampled units, in which case a record's observed link
set may be a strict subset of its true one.

Links are stored in one direction only: sorted by (unit, record), with one
offset per covered unit. The record side is kept only as per-record link
counts.

Each link also stores the position of its unit among the covered units,
computed once when the structure is built; under population scope that is
the unit id itself. Every step that moves values between units and links
goes through this index: a per-unit value reaches the links by one gather
at it, and per-link values reach the units by one ``np.bincount`` over it,
which adds each unit's links in link order from 0.0. The degrees and the
unit offsets are counted from it too.

Simulated populations (``synthpop``) take the auxiliary file to be the
population, so unit i's match is record i, and the units whose match is
among their links stand for the matches; no unit-record match map exists.

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
    def total(self) -> float:
        return float(self.y.sum())

    @property
    def mean(self) -> float:
        return float(self.y.mean())


class LinkageStructure:
    """Links between covered units and auxiliary records.

    A CSR layout over the links sorted by (unit, record): a unit's links are
    an O(1) slice, and ``degrees`` and ``multiplicities`` count the links of
    each covered unit and each record. Each link's covered-unit position is
    stored (``unit_index_per_link``). No record-side index is built.
    """

    def __init__(self, scope: str, covered_units: np.ndarray, n_records: int,
                 link_units: np.ndarray, link_records: np.ndarray):
        # invariants are enforced by build_linkage, which restrict calls
        # over the kept links, and by dataio.assemble_estimation_inputs; this
        # constructor trusts sorted, validated inputs
        self.scope = scope
        self.covered_units = _readonly(covered_units)
        self.n_records = n_records
        # each link's covered-unit position, units 0..N-1 being their own,
        # and each link's record; both kept writable, as np.bincount copies
        # a read-only index on every call, and never written
        self._unit_index = (link_units if scope == POPULATION
                            else np.searchsorted(covered_units, link_units))
        self._record_index = link_records
        self.link_units = _readonly(link_units.view())
        self.link_records = _readonly(link_records.view())
        self.degrees = _readonly(np.bincount(
            self._unit_index, minlength=len(covered_units)).astype(np.int64, copy=False))
        unit_ptr = np.zeros(len(covered_units) + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=unit_ptr[1:])
        self._unit_ptr = _readonly(unit_ptr)
        self.multiplicities = _readonly(
            np.bincount(link_records, minlength=n_records).astype(np.int64, copy=False))

    @property
    def n_links(self) -> int:
        return len(self.link_units)

    @property
    def n_covered(self) -> int:
        return len(self.covered_units)

    def unit_position(self, unit: int) -> int:
        pos = int(np.searchsorted(self.covered_units, unit))
        if pos >= self.n_covered or self.covered_units[pos] != unit:
            raise ValidationError(f"unit {unit} is not covered by this linkage")
        return pos

    def records_of(self, unit: int) -> np.ndarray:
        """The link set of a covered unit."""
        pos = self.unit_position(unit)
        return self.link_records[self._unit_ptr[pos]:self._unit_ptr[pos + 1]]

    def unit_index_per_link(self) -> np.ndarray:
        """Covered-unit position of each link, aligned with the link arrays
        (a read-only view of the stored index)."""
        return _readonly(self._unit_index.view())

    def restrict(self, unit_ids: np.ndarray) -> tuple["LinkageStructure", np.ndarray]:
        """Sample-scope restriction to a subset of covered units.

        Returns the restricted structure, which ``build_linkage`` builds from
        the links of those units, and the positions of its links in this
        structure's link order, so per-link data (weights) can be carried over
        by indexing.
        """
        units = np.unique(np.asarray(unit_ids, dtype=np.int64))
        pos = np.searchsorted(self.covered_units, units)
        if np.any(pos >= self.n_covered) or np.any(self.covered_units[pos] != units):
            missing = units[(pos >= self.n_covered) | (self.covered_units[np.minimum(pos, self.n_covered - 1)] != units)]
            raise ValidationError(f"units not covered by linkage: {missing[:5].tolist()}")
        keep = np.isin(self.link_units, units)
        links = np.column_stack([self.link_units, self.link_records])[keep]
        return build_linkage(links, units, self.n_records), np.flatnonzero(keep)


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
            sums = np.bincount(self.linkage._record_index, weights=values,
                               minlength=self.linkage.n_records)
            linked = self.linkage.multiplicities > 0
            bad = np.abs(sums[linked] - 1.0) > WEIGHT_SUM_TOL
            if np.any(bad):
                rec = int(np.flatnonzero(linked)[np.flatnonzero(bad)[0]])
                raise WeightSumError(INCIDENCE, rec, float(sums[rec]))
        else:
            sums = np.bincount(self.linkage._unit_index, weights=values,
                               minlength=self.linkage.n_covered)
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
    with np.errstate(divide="ignore"):  # a record without links gets no weight
        per_record = 1.0 / linkage.multiplicities
    values = per_record[linkage.link_records]
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
    unit = linkage.unit_index_per_link()
    pos = np.flatnonzero(linkage.link_records == best[unit])
    if len(pos) < linkage.n_covered:
        found = np.zeros(linkage.n_covered, dtype=bool)
        found[unit[pos]] = True
        i = int(np.argmin(found))
        raise ValidationError(
            f"best link {best[i]} of unit {linkage.covered_units[i]} "
            "is not among its links"
        )
    return pos


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
    values = per_unit_other[linkage.unit_index_per_link()]
    values[best_pos] = np.where(d > 1, q, 1.0)
    return WeightScheme(kind=REVERSE, linkage=linkage, values=values)


def link_weights(kind: str, linkage: LinkageStructure, values: np.ndarray | None = None,
                 best_links: np.ndarray | None = None, q: float | None = None) -> WeightScheme:
    """The weights of ``kind`` an estimator gets, by one rule: the per-link
    ``values`` read as that kind; else incidence weights 1/m; else reverse
    weights with ``q`` on each unit's best link; else reverse weights 1/d."""
    if values is not None:
        return WeightScheme(kind=kind, linkage=linkage, values=values)
    if kind == INCIDENCE:
        return multiplicity_weights(linkage)
    if best_links is not None:
        return reverse_weights_best_link(linkage, best_links, q)
    equal = (1.0 / linkage.degrees)[linkage.unit_index_per_link()]
    return WeightScheme(kind=REVERSE, linkage=linkage, values=equal)


def best_link_indicator_weights(linkage: LinkageStructure,
                                best_links: np.ndarray) -> WeightScheme:
    """Degenerate reverse weights: full weight on each unit's best link, which
    are ``reverse_weights_best_link`` at q = 1.

    Not an incidence scheme: one record may be the best link of several units,
    so its unit-side weights need not sum to 1.
    """
    return reverse_weights_best_link(linkage, best_links, 1.0)


def unit_sums(linkage: LinkageStructure, columns: Iterable[np.ndarray],
              n_columns: int) -> np.ndarray:
    """Each of the ``n_columns`` per-link columns summed over every covered
    unit's links, added in link order from 0.0: (n_covered, n_columns).

    ``columns`` is consumed one column at a time and each sum is written
    into the result as it is made, so a generator keeps a single per-link
    temporary alive.
    """
    sums = np.empty((linkage.n_covered, n_columns))
    for j, column in enumerate(columns):
        sums[:, j] = np.bincount(linkage._unit_index, weights=column,
                                 minlength=linkage.n_covered)
        del column  # freed before the generator makes the next one
    return sums


def check_aux_matches(linkage: LinkageStructure, aux: AuxDatabase) -> None:
    """Reject an auxiliary database whose records are not the linkage's."""
    if aux.n_records != linkage.n_records:
        raise ValidationError("auxiliary database does not match the linkage")


def link_values(linkage: LinkageStructure, aux: AuxDatabase) -> np.ndarray:
    """The record values at each link, (n_links, dim), in link order."""
    check_aux_matches(linkage, aux)
    return aux.x[linkage.link_records]


def weighted_sums(linkage: LinkageStructure, scheme: WeightScheme,
                  x_links: np.ndarray) -> np.ndarray:
    """The scheme-weighted sums of the record values ``x_links``
    (``link_values``) over each covered unit's links, (n_covered, dim)."""
    if scheme.linkage is not linkage:
        raise ValidationError("weight scheme was built for a different linkage")
    return unit_sums(linkage, (scheme.values * column for column in x_links.T),
                     x_links.shape[1])


def derive_covariates(linkage: LinkageStructure, scheme: WeightScheme,
                      aux: AuxDatabase) -> np.ndarray:
    """The scheme-weighted sums of the record values over each covered
    unit's links, (n_covered, dim): the covariate of the incidence- and
    reverse-weighted estimators."""
    return weighted_sums(linkage, scheme, link_values(linkage, aux))
