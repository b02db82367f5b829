"""CSV ingestion and export.

File schemas (header row required, UTF-8, decimal point):

* auxiliary file:  ``record_id,x1,...,xp``
* link file:       ``unit_id,record_id[,weight][,is_best]``
* sample file:     ``unit_id,y,pi``

External unit and record identifiers may be arbitrary strings; they are
mapped to dense 0-based indices on ingestion and mapped back on output.
Units (link and sample files) are indexed in ``order_keys`` order, records
by their row in the auxiliary file. Each id namespace is first mapped to
int64 codes by ``_key_codes``: the ids' values when every id of the
namespace is canonical decimal, as ``write_*_csv`` write them, else a
numbering of the distinct strings. Every later step (unknown records, unit
positions, unlinked sampled units, repeated links) runs once on the codes
with ``argsort`` and ``searchsorted``, so both kinds of id give the same
indices and the same errors. Repeated aux and sample ids are rejected as
each file is read, by a set of the id strings.

A file is read along one of two paths, picked by its own text. A plain file
(no quote, no NUL, no carriage return outside ``\\r\\n``, no empty header
line, no blank row or key, every row as wide as the header, no field over
``csv.field_size_limit()``) is split into columns with ``str`` operations;
the files ``write_*_csv`` write are plain. Every other file, for example one
with quoted fields as R's ``write.csv`` writes them, is split by
``csv.reader``. Both paths give the same tables, error texts and line
numbers.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .design import Sample, SurveyDesign
from .errors import ValidationError
from .linkage import AuxDatabase, LinkageStructure, build_linkage, link_key

_TRUE_FLAGS = frozenset({"1", "true", "yes"})
_FLAGS = _TRUE_FLAGS | {"0", "false", "no", ""}

T = TypeVar("T")


def _parse_float(value: str, where: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ValidationError(f"{where}: not a number: {value!r}") from exc
    if not math.isfinite(number):
        raise ValidationError(f"{where}: not a finite number: {value!r}")
    return number


@dataclass(frozen=True)
class _Rows:
    """A file's header and data rows, column by column."""

    header: list[str]               # stripped header cells
    linenos: Sequence[int]          # the line each data row starts on
    columns: list[Sequence[str]]    # data cells per column; column 0, the key, stripped


HeaderCheck = Callable[[Path, list[str]], None]


def _read_table(path: str | Path, check_header: HeaderCheck,
                build: Callable[[Path, _Rows], T]) -> T:
    """``build`` applied to the rows of a CSV file whose header passes
    ``check_header``.

    A plain file is split by ``_plain_rows``, any other file by ``_csv_rows``;
    on a plain file both give the same header, cells and line numbers.
    """
    path = Path(path)
    rows = _plain_rows(path)
    if rows is None:
        return build(path, _csv_rows(path, check_header))
    check_header(path, rows.header)
    return build(path, rows)


def _plain_rows(path: Path) -> _Rows | None:
    """The rows of a plain file, split with ``str`` operations; None for any
    other file.

    A file is plain when it is UTF-8 text without a quote, a NUL or a
    carriage return outside ``\\r\\n``, has a header line that is not empty
    (``csv.reader`` reads an empty line as no cells) and at least one data
    row, every row as wide as the header and with a key that is not blank (so
    no blank row), and no field longer than ``csv.field_size_limit()``.
    ``csv.reader`` splits such a text into the same cells.
    """
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    text = text.removesuffix("\n")
    header_end = text.find("\n")
    if header_end <= 0 or not _fields_fit(text, csv.field_size_limit()):
        return None
    width = text.count(",", 0, header_end) + 1
    n_rows = text.count("\n")
    # each line break now opens a cell, so every row is `width` cells wide
    # exactly when the line breaks open the cells at multiples of `width`
    cells = text.replace("\n", ",\n").split(",")
    firsts = cells[width::width]
    if len(cells) != (n_rows + 1) * width or "".join(firsts).count("\n") != n_rows:
        return None
    keys = list(map(str.strip, firsts))
    if not all(keys):
        return None
    return _Rows(header=list(map(str.strip, cells[:width])),
                 linenos=range(2, n_rows + 2),
                 columns=[keys, *(cells[width + j::width] for j in range(1, width))])


def _fields_fit(text: str, limit: int) -> bool:
    """Whether no field of a quote-free text is longer than ``limit``. A
    longer field covers one of the offsets limit, 2 limit, ..., so only the
    fields at those offsets are measured."""
    for offset in range(limit, len(text), limit):
        start = max(text.rfind(",", 0, offset), text.rfind("\n", 0, offset)) + 1
        ends = [end for end in (text.find(",", offset), text.find("\n", offset)) if end >= 0]
        if min(ends, default=len(text)) - start > limit:
            return False
    return True


def _csv_rows(path: Path, check_header: HeaderCheck) -> _Rows:
    """The rows of any file, split by ``csv.reader``; whitespace-only rows
    are skipped, and each error names the file and the line it is on."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            records = list(reader)
            starts: Sequence[int] = range(1, len(records) + 1)
            if reader.line_num != len(records):
                # a quoted field spans lines: read again for each record's last line
                handle.seek(0)
                reader = csv.reader(handle)
                ends = [reader.line_num for _ in reader]
                starts = [1, *(end + 1 for end in ends[:-1])]
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    if not records:
        raise ValidationError(f"{path}: empty file, header row required")
    header = [h.strip() for h in records[0]]
    check_header(path, header)
    kept = list(map(str.strip, map("".join, records)))
    kept[0] = ""  # the header is no data row
    rows = list(compress(records, kept))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    linenos = list(compress(starts, kept))
    width = len(header)
    if any(map(width.__ne__, map(len, rows))):
        lineno = next(n for n, row in zip(linenos, rows) if len(row) != width)
        raise ValidationError(f"{path}:{lineno}: expected {width} fields")
    columns = [list(map(itemgetter(j), rows)) for j in range(width)]
    columns[0] = list(map(str.strip, columns[0]))
    return _Rows(header=header, linenos=linenos, columns=columns)


def _float_columns(path: Path, rows: _Rows, columns: Sequence[int]) -> list[np.ndarray]:
    """Cells of each column parsed with ``float``; a cell that is not a
    number, or not a finite one, is reported at the first line that holds
    one, as a row-by-row parse would."""
    n_rows = len(rows.linenos)
    try:
        values = [np.fromiter(map(float, rows.columns[j]), np.float64, n_rows) for j in columns]
    except ValueError:
        pass
    else:
        if all(np.isfinite(v).all() for v in values):
            return values
    for i, lineno in enumerate(rows.linenos):
        for j in columns:
            _parse_float(rows.columns[j][i], f"{path}:{lineno}")
    raise AssertionError("no bad cell found")


def _flag_column(path: Path, rows: _Rows, column: int) -> np.ndarray:
    """Cells of a flag column: 1, true or yes; 0, false, no or empty; any case."""
    text = ",".join(rows.columns[column]) + ","
    flags = text[::2]
    if text[1::2] == "," * len(flags) and not flags.strip("01"):
        # a comma after every character, and each character a 0 or a 1: the
        # cells are exactly "0" and "1", as ``write_links_csv`` writes them
        return np.frombuffer(flags.encode("ascii"), np.uint8) == ord("1")
    cells = list(map(str.lower, map(str.strip, rows.columns[column])))
    if not _FLAGS.issuperset(cells):
        i = next(i for i, cell in enumerate(cells) if cell not in _FLAGS)
        raise ValidationError(f"{path}:{rows.linenos[i]}: not a 0/1 flag: "
                              f"{rows.columns[column][i]!r}")
    return np.fromiter(map(_TRUE_FLAGS.__contains__, cells), bool, len(cells))


def _decimal_values(keys: Sequence[str]) -> np.ndarray | None:
    """The values of keys that are all canonical decimal, else None.

    A canonical decimal key is what ``write_*_csv`` write: ASCII digits with
    no leading zero (bar ``"0"`` itself), at most 18 of them, so its value
    fits in int64 and no other canonical key has that value. The keys are
    checked and parsed in one pass over their joined bytes.
    """
    if not keys:
        return np.zeros(0, np.int64)
    text = ",".join(keys) + ","
    if not text.isascii():
        return None
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    digits = chars - np.uint8(ord("0"))  # any byte but a digit wraps to 10 or more
    if np.count_nonzero(digits < 10) != len(chars) - len(keys):
        return None  # a byte other than the joining commas is no digit
    ends = np.flatnonzero(chars == ord(","))
    lengths = np.diff(ends, prepend=-1) - 1
    if (lengths.min() < 1 or lengths.max() > 18
            or np.any(chars[(ends - lengths)[lengths > 1]] == ord("0"))):
        return None
    values = np.zeros(len(keys), np.int64)
    for shift in range(lengths.max(), 0, -1):
        # the digit `shift` places before each key's end; none before its start
        values *= 10
        values += digits[ends - shift] * (lengths >= shift)
    return values


def _key_codes(columns: Sequence[Sequence[str]], ordered: bool) -> list[np.ndarray]:
    """An int64 code for each key of the key columns of one id namespace;
    two keys get the same code exactly when they are the same string.

    When every key is canonical decimal, each code is the key's value.
    Otherwise the codes number the distinct keys: by ``order_keys`` rank when
    ``ordered``, else by each key's last place in the columns. On either
    path the codes of ``ordered`` columns sort as ``order_keys`` sorts their
    keys.
    """
    values = []
    for column in columns:
        column_values = _decimal_values(column)
        if column_values is None:
            break
        values.append(column_values)
    else:
        return values
    # each distinct key to its last place in the columns, then to its rank
    index = dict(zip(chain.from_iterable(columns), count()))
    if ordered:
        index = dict(zip(order_keys(index), count()))
    return [np.fromiter(map(index.__getitem__, column), np.int64, len(column))
            for column in columns]


def _check_unique(path: Path, keys: Sequence[str], what: str) -> None:
    """Reject a repeated key; the error names the key of the earliest row
    whose key recurs."""
    if len(set(keys)) < len(keys):
        counts = Counter(keys)
        first = next(key for key in keys if counts[key] > 1)
        raise ValidationError(f"{path}: duplicate {what} {first!r}")


@dataclass(frozen=True)
class AuxTable:
    aux: AuxDatabase
    record_keys: list[str]


def _check_aux_header(path: Path, header: list[str]) -> None:
    if len(header) < 2 or header[0] != "record_id":
        raise ValidationError(
            f"{path}: auxiliary header must be record_id,x1,...,xp, got {header}"
        )


def _aux_table(path: Path, rows: _Rows) -> AuxTable:
    values = np.column_stack(_float_columns(path, rows, range(1, len(rows.header))))
    keys = rows.columns[0]
    _check_unique(path, keys, "record id")
    return AuxTable(aux=AuxDatabase(x=values), record_keys=keys)


def read_aux_csv(path: str | Path) -> AuxTable:
    return _read_table(path, _check_aux_header, _aux_table)


@dataclass(frozen=True)
class LinkTable:
    unit_keys: list[str]
    record_keys: list[str]
    weights: np.ndarray | None
    is_best: np.ndarray | None


def _check_link_header(path: Path, header: list[str]) -> None:
    if header[:2] != ["unit_id", "record_id"]:
        raise ValidationError(
            f"{path}: link header must start with unit_id,record_id, got {header}"
        )
    extras = header[2:]
    if any(col not in ("weight", "is_best") for col in extras):
        raise ValidationError(f"{path}: unknown link columns {extras}")
    if len(set(extras)) != len(extras):
        raise ValidationError(f"{path}: repeated link columns {extras}")


def _link_table(path: Path, rows: _Rows) -> LinkTable:
    weights = is_best = None
    if "weight" in rows.header:
        [weights] = _float_columns(path, rows, [rows.header.index("weight")])
    if "is_best" in rows.header:
        is_best = _flag_column(path, rows, rows.header.index("is_best"))
    return LinkTable(unit_keys=rows.columns[0],
                     record_keys=list(map(str.strip, rows.columns[1])),
                     weights=weights, is_best=is_best)


def read_links_csv(path: str | Path) -> LinkTable:
    return _read_table(path, _check_link_header, _link_table)


@dataclass(frozen=True)
class SampleTable:
    unit_keys: list[str]
    y: np.ndarray
    pi: np.ndarray


def _check_sample_header(path: Path, header: list[str]) -> None:
    if header != ["unit_id", "y", "pi"]:
        raise ValidationError(f"{path}: sample header must be unit_id,y,pi, got {header}")


def _sample_table(path: Path, rows: _Rows) -> SampleTable:
    y, pi = _float_columns(path, rows, (1, 2))
    outside = (pi <= 0) | (pi > 1)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValidationError(f"{path}:{rows.linenos[i]}: inclusion probability "
                              f"not in (0, 1]: {rows.columns[2][i]!r}")
    unit_keys = rows.columns[0]
    _check_unique(path, unit_keys, "sample unit")
    return SampleTable(unit_keys=unit_keys, y=y, pi=pi)


def read_sample_csv(path: str | Path) -> SampleTable:
    return _read_table(path, _check_sample_header, _sample_table)


def order_keys(keys: Iterable[str]) -> list[str]:
    """Deterministic id ordering: numeric when every key is an integer, with
    keys of equal value ("1" and "01") ordered as strings.

    The keys are sorted as strings, then stably by value, which costs less
    than one sort on (value, string) pairs. Ids that are all canonical
    decimal never come here: ``_key_codes`` orders them by their values.
    """
    ordered = sorted(keys)
    try:
        return sorted(ordered, key=int)
    except ValueError:
        return ordered


@dataclass(frozen=True)
class EstimationInputs:
    """An auxiliary file and a link file read together, densely indexed, and
    the sample file read with them, if any."""

    aux: AuxDatabase
    linkage: LinkageStructure
    sample: Sample | None         # None without a sample file
    y: np.ndarray | None          # aligned with sample.ids
    weights: np.ndarray | None    # per link, aligned with linkage order
    # per covered unit: the flagged record, or the only one when the file has
    # no is_best column and each unit has one link; else None
    best_links: np.ndarray | None
    unit_keys: list[str]          # dense unit index -> external id
    record_keys: list[str]


def assemble_estimation_inputs(sample_path: str | Path | None, aux_path: str | Path,
                               links_path: str | Path,
                               n_population: int | None) -> EstimationInputs:
    """Read a link file's linkage over an auxiliary file, and a sample file
    if one is given, whose units must all carry links; resolve each unit's
    best link when the link file flags one, or when every linked unit has a
    single link.

    The linked and sampled units must number at most ``n_population`` when
    it is given; a sample file needs it. Unit keys map to dense indices in
    ``order_keys`` order, record keys to their rows in the auxiliary file;
    both go through the codes of ``_key_codes``. The linkage is
    population-scoped exactly when the link file covers ``n_population``
    distinct units, otherwise sample-scoped over the units it covers. A link
    given twice is rejected by its unit and record keys.
    """
    if sample_path is not None and n_population is None:
        raise ValidationError("a sample file needs the population size")
    aux_table = read_aux_csv(aux_path)
    link_table = read_links_csv(links_path)
    # read and checked before the linkage is built, whose errors come last
    sample_table = None if sample_path is None else read_sample_csv(sample_path)
    sample_keys = [] if sample_table is None else sample_table.unit_keys

    link_units, sample_units = _key_codes([link_table.unit_keys, sample_keys], ordered=True)
    # the linked units' codes in ascending order, and each link's position among them
    by_unit = np.argsort(link_units)
    sorted_units = link_units[by_unit]
    firsts = np.append(True, sorted_units[1:] != sorted_units[:-1])
    linked = sorted_units[firsts]
    units = np.empty(len(link_units), np.int64)
    units[by_unit] = np.cumsum(firsts) - 1
    sample_ids, sampled_linked = _search(linked, sample_units)
    n_referenced = len(linked) + len(sample_ids) - np.count_nonzero(sampled_linked)
    if n_population is not None and n_referenced > n_population:
        raise ValidationError(f"files reference {n_referenced} units but the "
                              f"population size is {n_population}")
    if not sampled_linked.all():
        missing = [sample_keys[i] for i in np.flatnonzero(~sampled_linked)[:5]]
        raise ValidationError(f"sampled units without links: {missing}")

    aux_records, link_records = _key_codes(
        [aux_table.record_keys, link_table.record_keys], ordered=False)
    by_record = np.argsort(aux_records)
    records, known = _search(aux_records[by_record], link_records)
    if not known.all():
        row = np.argmin(known)
        raise ValidationError(
            f"link file references unknown record {link_table.record_keys[row]!r}")
    records = by_record[records]
    key = link_key(units, records, aux_table.aux.n_records)
    rows = np.argsort(key)
    repeats = np.flatnonzero(np.diff(key[rows]) == 0)
    if len(repeats):
        # the repeated rows carry the same keys, whichever of them sorts first
        row = rows[repeats[0]]
        raise ValidationError(f"link file repeats the link of unit {link_table.unit_keys[row]!r}"
                              f" to record {link_table.record_keys[row]!r}")
    unit_keys = list(map(link_table.unit_keys.__getitem__, by_unit[firsts].tolist()))
    n_units = len(unit_keys)
    linkage = build_linkage(
        np.column_stack([units, records]),
        n_population if n_units == n_population else np.arange(n_units, dtype=np.int64),
        aux_table.aux,
    )
    # indexing a per-row column with the sorted rows aligns it with the links
    best_links = None
    if link_table.is_best is not None:
        best_links = _best_links(linkage, link_table.is_best[rows], unit_keys)
    elif np.all(linkage.degrees == 1):
        best_links = linkage.link_records

    sample = y = None
    if sample_table is not None:
        order = np.argsort(sample_ids)
        design = SurveyDesign(n_population=n_population, sample_size=len(sample_ids))
        sample = Sample(ids=sample_ids[order], pi=sample_table.pi[order], design=design)
        y = sample_table.y[order]
    return EstimationInputs(
        aux=aux_table.aux,
        linkage=linkage,
        sample=sample,
        y=y,
        weights=None if link_table.weights is None else link_table.weights[rows],
        best_links=best_links,
        unit_keys=unit_keys,
        record_keys=aux_table.record_keys,
    )


def _search(ordered: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each code sits in the ascending, nonempty ``ordered``, and
    whether it is there."""
    # a search for ascending codes resumes where the last one ended, so
    # sorting them first costs less than searching them in file order
    by_code = np.argsort(codes)
    at = np.empty_like(by_code)
    at[by_code] = np.searchsorted(ordered, codes[by_code])
    return at, ordered[np.minimum(at, len(ordered) - 1)] == codes


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


def write_aux_csv(path: str | Path, aux: AuxDatabase) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id"] + [f"x{j + 1}" for j in range(aux.dim)])
        for key, row in enumerate(aux.x):
            writer.writerow([key] + [repr(float(v)) for v in row])


def write_links_csv(path: str | Path, linkage: LinkageStructure,
                    weights: np.ndarray | None = None,
                    best_links: np.ndarray | None = None) -> None:
    header = ["unit_id", "record_id"]
    columns = [linkage.link_units.tolist(), linkage.link_records.tolist()]
    if weights is not None:
        header.append("weight")
        columns.append([repr(float(w)) for w in weights])
    if best_links is not None:
        header.append("is_best")
        is_best = linkage.link_records == np.repeat(best_links, linkage.degrees)
        columns.append(is_best.astype(int).tolist())
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_sample_csv(path: str | Path, sample: Sample, y: np.ndarray) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit_id", "y", "pi"])
        for unit, value, prob in zip(sample.ids, y, sample.pi):
            writer.writerow([int(unit), repr(float(value)), repr(float(prob))])
