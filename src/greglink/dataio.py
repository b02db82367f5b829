"""CSV ingestion and export.

File schemas (header row required, UTF-8, decimal point):

* auxiliary file:  ``record_id,x1,...,xp``
* link file:       ``unit_id,record_id[,weight][,is_best]``
* sample file:     ``unit_id,y,pi``

External unit and record identifiers may be arbitrary strings; they are
mapped to dense 0-based indices on ingestion (numerically when every id
parses as an integer, lexicographically otherwise) and mapped back on
output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .design import Sample, SurveyDesign
from .errors import ValidationError
from .linkage import AuxDatabase, LinkageStructure, build_linkage, link_key

_TRUE_FLAGS = frozenset({"1", "true", "yes"})
_FLAGS = _TRUE_FLAGS | {"0", "false", "no", ""}


def _parse_float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ValidationError(f"{where}: not a number: {value!r}") from exc


def _read_rows(path: str | Path) -> tuple[list[str], list[int], list[list[str]]]:
    """The stripped header, then the line numbers and cells of the non-blank rows."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file, header row required")
            linenos, rows = [], []
            for lineno, row in enumerate(reader, start=2):
                if "".join(row).strip():
                    linenos.append(lineno)
                    rows.append(row)
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    return [h.strip() for h in header], linenos, rows


def _check_widths(path: str | Path, width: int, linenos: list[int],
                  rows: list[list[str]]) -> None:
    if any(map(width.__ne__, map(len, rows))):
        lineno = next(n for n, row in zip(linenos, rows) if len(row) != width)
        raise ValidationError(f"{path}:{lineno}: expected {width} fields")


def _float_columns(path: str | Path, linenos: list[int], rows: list[list[str]],
                   columns: Sequence[int]) -> list[np.ndarray]:
    """Cells of each column parsed with ``float``; a bad cell is reported at
    the first line that holds one, as a row-by-row parse would."""
    try:
        return [np.fromiter(map(float, map(itemgetter(j), rows)), np.float64, len(rows))
                for j in columns]
    except ValueError:
        for lineno, row in zip(linenos, rows):
            for j in columns:
                _parse_float(row[j], f"{path}:{lineno}")
        raise


def _flag_column(path: str | Path, linenos: list[int], rows: list[list[str]],
                 column: int) -> np.ndarray:
    """Cells of a flag column: 1, true or yes; 0, false, no or empty; any case."""
    cells = [row[column].strip().lower() for row in rows]
    if not _FLAGS.issuperset(cells):
        i = next(i for i, cell in enumerate(cells) if cell not in _FLAGS)
        raise ValidationError(f"{path}:{linenos[i]}: not a 0/1 flag: {rows[i][column]!r}")
    return np.fromiter(map(_TRUE_FLAGS.__contains__, cells), bool, len(cells))


def _unique_index(path: str | Path, keys: list[str], what: str) -> dict[str, int]:
    """Position of each key; the error names the first key that repeats."""
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        # a repeated key maps to its last position, so its first one differs
        dup = next(k for i, k in enumerate(keys) if index[k] != i)
        raise ValidationError(f"{path}: duplicate {what} {dup!r}")
    return index


@dataclass(frozen=True)
class AuxTable:
    aux: AuxDatabase
    record_keys: list[str]
    index_of: dict[str, int]


def read_aux_csv(path: str | Path) -> AuxTable:
    header, linenos, rows = _read_rows(path)
    if len(header) < 2 or header[0] != "record_id":
        raise ValidationError(
            f"{path}: auxiliary header must be record_id,x1,...,xp, got {header}"
        )
    _check_widths(path, len(header), linenos, rows)
    values = np.column_stack(_float_columns(path, linenos, rows, range(1, len(header))))
    keys = [row[0].strip() for row in rows]
    index_of = _unique_index(path, keys, "record id")
    return AuxTable(aux=AuxDatabase(x=values), record_keys=keys, index_of=index_of)


@dataclass(frozen=True)
class LinkTable:
    unit_keys: list[str]
    record_keys: list[str]
    weights: np.ndarray | None
    is_best: np.ndarray | None


def read_links_csv(path: str | Path) -> LinkTable:
    header, linenos, rows = _read_rows(path)
    expected_prefix = ["unit_id", "record_id"]
    if header[:2] != expected_prefix:
        raise ValidationError(
            f"{path}: link header must start with unit_id,record_id, got {header}"
        )
    extras = header[2:]
    if any(col not in ("weight", "is_best") for col in extras):
        raise ValidationError(f"{path}: unknown link columns {extras}")
    if len(set(extras)) != len(extras):
        raise ValidationError(f"{path}: repeated link columns {extras}")
    _check_widths(path, len(header), linenos, rows)
    weights = is_best = None
    if "weight" in extras:
        [weights] = _float_columns(path, linenos, rows, [header.index("weight")])
    if "is_best" in extras:
        is_best = _flag_column(path, linenos, rows, header.index("is_best"))
    return LinkTable(unit_keys=[row[0].strip() for row in rows],
                     record_keys=[row[1].strip() for row in rows],
                     weights=weights, is_best=is_best)


@dataclass(frozen=True)
class SampleTable:
    unit_keys: list[str]
    y: np.ndarray
    pi: np.ndarray


def read_sample_csv(path: str | Path) -> SampleTable:
    header, linenos, rows = _read_rows(path)
    if header != ["unit_id", "y", "pi"]:
        if len(header) < 3 or "pi" not in header:
            raise ValidationError(f"{path}: sample header must be unit_id,y,pi")
        raise ValidationError(f"{path}: sample header must be unit_id,y,pi, got {header}")
    _check_widths(path, 3, linenos, rows)
    y, pi = _float_columns(path, linenos, rows, (1, 2))
    unit_keys = [row[0].strip() for row in rows]
    _unique_index(path, unit_keys, "sample unit")
    return SampleTable(unit_keys=unit_keys, y=y, pi=pi)


def order_keys(keys: set[str]) -> list[str]:
    """Deterministic id ordering: numeric when every key is an integer, with
    keys of equal value ("1" and "01") ordered as strings.

    The keys are sorted as strings, then stably by value, which costs less
    than one sort on (value, string) pairs.
    """
    ordered = sorted(keys)
    try:
        return sorted(ordered, key=int)
    except ValueError:
        return ordered


def build_file_linkage(aux_table: AuxTable, link_table: LinkTable,
                       unit_index: Mapping[str, int],
                       n_population: int | None) -> tuple[LinkageStructure, np.ndarray]:
    """The linkage of a link file's rows, and the row of each of its links.

    Unit keys map to dense indices through ``unit_index``, record keys
    through the auxiliary file. The linkage is population-scoped exactly when
    ``unit_index`` holds ``n_population`` units, otherwise sample-scoped over
    all of them, so each must carry a link. Indexing a per-row column of the
    link file with the returned rows aligns it with the linkage's link order.
    A link given twice is rejected by its unit and record keys.
    """
    n_links = len(link_table.record_keys)
    try:
        records = np.fromiter(map(aux_table.index_of.__getitem__, link_table.record_keys),
                              np.int64, n_links)
    except KeyError as exc:
        raise ValidationError(
            f"link file references unknown record {exc.args[0]!r}"
        ) from exc
    units = np.fromiter(map(unit_index.__getitem__, link_table.unit_keys), np.int64, n_links)
    key = link_key(units, records, aux_table.aux.n_records)
    rows = np.argsort(key)
    repeats = np.flatnonzero(np.diff(key[rows]) == 0)
    if len(repeats):
        # the repeated rows carry the same keys, whichever of them sorts first
        row = rows[repeats[0]]
        raise ValidationError(f"link file repeats the link of unit {link_table.unit_keys[row]!r}"
                              f" to record {link_table.record_keys[row]!r}")
    n_units = len(unit_index)
    linkage = build_linkage(
        np.column_stack([units, records]),
        n_population if n_units == n_population else np.arange(n_units, dtype=np.int64),
        aux_table.aux,
    )
    return linkage, rows


def _best_links(linkage: LinkageStructure, flags: np.ndarray,
                unit_keys: list[str]) -> np.ndarray:
    """Each covered unit's flagged record; a unit's only link needs no flag."""
    unit_of_link = linkage.unit_index_per_link()
    n_flagged = np.bincount(unit_of_link[flags], minlength=linkage.n_covered)
    if np.any(n_flagged > 1):
        unit = linkage.covered_units[np.argmax(n_flagged > 1)]
        raise ValidationError(f"unit {unit_keys[unit]!r} flags more than one best link")
    single = linkage.degrees == 1
    resolved = single | (n_flagged == 1)
    if not resolved.all():
        unit = linkage.covered_units[np.argmin(resolved)]
        raise ValidationError(
            f"unit {unit_keys[unit]!r} has multiple links but none flagged as best"
        )
    return linkage.link_records[flags | single[unit_of_link]]


@dataclass(frozen=True)
class EstimationInputs:
    """Everything the file-based estimation path needs, densely indexed."""

    aux: AuxDatabase
    linkage: LinkageStructure
    sample: Sample
    y: np.ndarray                 # aligned with sample.ids
    weights: np.ndarray | None    # per link, aligned with linkage order
    best_links: np.ndarray | None  # per covered unit
    unit_keys: list[str]          # dense unit index -> external id
    record_keys: list[str]


def assemble_estimation_inputs(sample_path: str | Path, aux_path: str | Path,
                               links_path: str | Path,
                               n_population: int) -> EstimationInputs:
    """Read and cross-validate the three files against a known population size.

    The linkage is population-scoped exactly when the link file covers
    ``n_population`` distinct units, otherwise sample-scoped over the units
    it covers. Sampled units must all carry links.
    """
    aux_table = read_aux_csv(aux_path)
    link_table = read_links_csv(links_path)
    sample_table = read_sample_csv(sample_path)

    linked = set(link_table.unit_keys)
    unit_keys = order_keys(linked.union(sample_table.unit_keys))
    if len(unit_keys) > n_population:
        raise ValidationError(
            f"files reference {len(unit_keys)} units but the population size is {n_population}"
        )
    missing = [k for k in sample_table.unit_keys if k not in linked]
    if missing:
        raise ValidationError(f"sampled units without links: {missing[:5]}")

    # every unit is linked now, so unit_keys are exactly the link file's units
    unit_index = dict(zip(unit_keys, range(len(unit_keys))))
    linkage, link_rows = build_file_linkage(aux_table, link_table, unit_index,
                                            n_population)
    weights = None
    if link_table.weights is not None:
        weights = link_table.weights[link_rows]
    best_links = None
    if link_table.is_best is not None:
        best_links = _best_links(linkage, link_table.is_best[link_rows], unit_keys)

    sample_ids = np.fromiter(map(unit_index.__getitem__, sample_table.unit_keys),
                             np.int64, len(sample_table.unit_keys))
    order = np.argsort(sample_ids)
    design = SurveyDesign(n_population=n_population,
                          sample_size=len(sample_ids), kind="external")
    sample = Sample(ids=sample_ids[order], pi=sample_table.pi[order], design=design)
    return EstimationInputs(
        aux=aux_table.aux,
        linkage=linkage,
        sample=sample,
        y=sample_table.y[order],
        weights=weights,
        best_links=best_links,
        unit_keys=unit_keys,
        record_keys=aux_table.record_keys,
    )


def write_aux_csv(path: str | Path, aux: AuxDatabase,
                  record_keys: Sequence[str] | None = None) -> None:
    keys = record_keys if record_keys is not None else [str(i) for i in range(aux.n_records)]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id"] + [f"x{j + 1}" for j in range(aux.dim)])
        for key, row in zip(keys, aux.x):
            writer.writerow([key] + [repr(float(v)) for v in row])


def write_links_csv(path: str | Path, linkage: LinkageStructure,
                    weights: np.ndarray | None = None,
                    best_links: np.ndarray | None = None,
                    unit_keys: Sequence[str] | None = None,
                    record_keys: Sequence[str] | None = None) -> None:
    ukey = (lambda u: unit_keys[u]) if unit_keys is not None else str
    rkey = (lambda r: record_keys[r]) if record_keys is not None else str
    best_record = None
    if best_links is not None:
        best_record = {int(u): int(r)
                       for u, r in zip(linkage.covered_units, best_links)}
    header = ["unit_id", "record_id"]
    if weights is not None:
        header.append("weight")
    if best_record is not None:
        header.append("is_best")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for pos, (unit, record) in enumerate(zip(linkage.link_units,
                                                 linkage.link_records)):
            row = [ukey(int(unit)), rkey(int(record))]
            if weights is not None:
                row.append(repr(float(weights[pos])))
            if best_record is not None:
                row.append("1" if best_record[int(unit)] == int(record) else "0")
            writer.writerow(row)


def write_sample_csv(path: str | Path, sample: Sample, y: np.ndarray,
                     unit_keys: Sequence[str] | None = None) -> None:
    ukey = (lambda u: unit_keys[u]) if unit_keys is not None else str
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit_id", "y", "pi"])
        for unit, value, prob in zip(sample.ids, y, sample.pi):
            writer.writerow([ukey(int(unit)), repr(float(value)), repr(float(prob))])
