"""CSV ingestion: exact error texts and line numbers, agreement of the plain
and the csv path, and invariance of the estimates to row order, quoting, line
ends and order-preserving renaming of unit ids."""

import contextlib
import csv
import dataclasses
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greglink import dataio
from greglink.cli import main
from greglink.dataio import (
    assemble_estimation_inputs,
    order_keys,
    read_aux_csv,
    read_links_csv,
    read_sample_csv,
    write_aux_csv,
    write_links_csv,
    write_sample_csv,
)
from greglink.design import draw_srswor, rng_stream
from greglink.errors import ValidationError
from greglink.linkage import AuxDatabase
from greglink.synthpop import LinkageModel, PopulationModel, gen_linkage, gen_population

FILE_ESTIMATORS = "ht,pi,sub,sbl,sri,sls"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def raised_text(call, *args) -> str:
    with pytest.raises(ValidationError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("reader, text, message", [
    (read_aux_csv, "record_id,x1,x2\na,0.1,0.2\nb,0.3,oops\n",
     "3: not a number: 'oops'"),
    (read_aux_csv, "record_id,x1,x2\na,0.1,0.2\nb,x,y\n",
     "3: not a number: 'x'"),
    (read_links_csv, "unit_id,record_id,weight\n1,a,0.5\n1,b,heavy\n",
     "3: not a number: 'heavy'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,two,0.5\n",
     "3: not a number: 'two'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0,half\n",
     "3: not a number: 'half'"),
    # the first bad cell in row order, whether no number or not a finite one
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,x,0.5\n3,-inf,0.5\n",
     "3: not a number: 'x'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0, NaN\n3,x,0.5\n",
     "3: not a finite number: ' NaN'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0\n3,4.0,nan\n",
     "4: not a finite number: 'nan'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0,-0.5\n3,4.0,2\n",
     "3: inclusion probability not in (0, 1]: '-0.5'"),
    # values the data model used to reject with no file or line, plain and quoted
    (read_aux_csv, "record_id,x1\na,1\nb,nan\n", "3: not a finite number: 'nan'"),
    (read_aux_csv, 'record_id,x1\n"a","1"\n"b","nan"\n', "3: not a finite number: 'nan'"),
    (read_sample_csv, "unit_id,y,pi\n1,inf,0.5\n", "2: not a finite number: 'inf'"),
    (read_sample_csv, 'unit_id,y,pi\n"1","inf","0.5"\n', "2: not a finite number: 'inf'"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0,1.5\n",
     "3: inclusion probability not in (0, 1]: '1.5'"),
    (read_sample_csv, 'unit_id,y,pi\n"1","2.0","0.5"\n"2","3.0","1.5"\n',
     "3: inclusion probability not in (0, 1]: '1.5'"),
    (read_links_csv, "unit_id,record_id,weight\n1,a,nan\n", "2: not a finite number: 'nan'"),
    (read_links_csv, 'unit_id,record_id,weight\n"1","a","nan"\n',
     "2: not a finite number: 'nan'"),
    (read_links_csv, "unit_id,record_id,weight,is_best\n1,a,1.0,1\n2,b,1.0,maybe\n",
     "3: not a 0/1 flag: 'maybe'"),
    (read_links_csv, "unit_id,record_id,is_best\n1,a,0\n2,b,000\n", "3: not a 0/1 flag: '000'"),
    (read_aux_csv, "record_id,x1\na,1\nb,2,3\n", "3: expected 2 fields"),
    (read_links_csv, "unit_id,record_id,is_best\n1,a,1\n2,b\n", "3: expected 3 fields"),
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n2,3.0\n", "3: expected 3 fields"),
    # whitespace-only rows are skipped; later rows keep their file line numbers
    (read_sample_csv, "unit_id,y,pi\n1,2.0,0.5\n   \n\n , \n2,x,0.5\n",
     "6: not a number: 'x'"),
    (read_aux_csv, "record_id,x1\n\na,1\n \t\nb,2,3\n", "5: expected 2 fields"),
    # a quoted field spanning lines: each row is named by the line it starts on
    (read_sample_csv, 'unit_id,y,pi\n"a\nb",1,0.5\n2,x,0.5\n', "4: not a number: 'x'"),
    (read_sample_csv, 'unit_id,y,pi\n1,"2\r\n",0.5\n"b",3,0.5\n2,4,"\n\nhalf"\n',
     "5: not a number: '\\n\\nhalf'"),
])
def test_reader_errors_name_file_and_line(tmp_path, reader, text, message):
    path = write(tmp_path / "table.csv", text)
    assert raised_text(reader, path) == f"{path}:{message}"


@pytest.mark.parametrize("reader, text", [
    (read_aux_csv, "record_id,x1\n"),
    (read_links_csv, "unit_id,record_id,is_best\r\n \r\n,,\r\n"),
    (read_sample_csv, "unit_id,y,pi"),
])
def test_header_without_data_rows_is_rejected(tmp_path, reader, text):
    path = write(tmp_path / "table.csv", text)
    assert raised_text(reader, path) == f"{path}: no data rows"


@pytest.mark.parametrize("header", ["unit_id,y", "unit_id,pi,y", "unit_id,y,pi,w", ""])
def test_sample_header_error_names_the_header_found(tmp_path, header):
    path = write(tmp_path / "sample.csv", f"{header}\n1,2.0,0.5\n")
    found = next(csv.reader([header]), [])
    assert raised_text(read_sample_csv, path) == (
        f"{path}: sample header must be unit_id,y,pi, got {found}")


def test_whitespace_rows_are_skipped(tmp_path):
    path = write(tmp_path / "sample.csv", "unit_id,y,pi\n\n1, 2.0,0.5\n  ,\n 2 ,3.0,0.25\n")
    table = read_sample_csv(path)
    assert table.unit_keys == ["1", "2"]
    assert table.y.tolist() == [2.0, 3.0]
    assert table.pi.tolist() == [0.5, 0.25]


def test_flag_column_spellings(tmp_path):
    path = write(tmp_path / "links.csv",
                 "unit_id,record_id,is_best\n1,a,1\n1,b, no\n2,a,TRUE\n2,b,\n"
                 "3,a,Yes\n3,b,False\n4,a,0\n")
    table = read_links_csv(path)
    assert table.is_best.tolist() == [True, False, True, False, True, False, False]


@pytest.mark.parametrize("reader, text, message", [
    (read_aux_csv, "record_id,x1\na,1\nb,2\nb,3\na,4\n", "duplicate record id 'a'"),
    (read_sample_csv, "unit_id,y,pi\n7,1,0.5\n8,1,0.5\n8,1,0.5\n7,1,0.5\n",
     "duplicate sample unit '7'"),
])
def test_duplicate_keys_name_first_repeated_key(tmp_path, reader, text, message):
    path = write(tmp_path / "table.csv", text)
    assert raised_text(reader, path) == f"{path}: {message}"


@pytest.mark.parametrize("links, message", [
    ("unit_id,record_id\n1,a\n2,zz\n", "link file references unknown record 'zz'"),
    ("unit_id,record_id,is_best\n1,a,1\n2,a,0\n2,b,1\n2,c,1\n3,b,1\n3,c,1\n",
     "unit '2' flags more than one best link"),
    ("unit_id,record_id,is_best\n1,a,0\n2,a,1\n2,b,0\n3,b,0\n3,c,0\n4,a,0\n4,c,0\n",
     "unit '3' has multiple links but none flagged as best"),
])
def test_assemble_cross_check_errors(tmp_path, links, message):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,3\n")
    links = write(tmp_path / "links.csv", links)
    sample = write(tmp_path / "sample.csv", "unit_id,y,pi\n1,2.0,0.5\n2,3.0,0.5\n")
    assert raised_text(assemble_estimation_inputs, sample, aux, links, 10) == message


@pytest.mark.parametrize("links, best", [
    ("unit_id,record_id,is_best\n1,a,0\n1,b,1\n2,c,0\n", ["b", "c"]),
    # no flags: each unit's only link, when every linked unit has one
    ("unit_id,record_id\n1,b\n2,a\n3,c\n", ["b", "a", "c"]),
    ("unit_id,record_id\n1,b\n2,a\n3,a\n3,c\n", None),
], ids=["flagged", "only-links", "unresolved"])
def test_best_links_are_flagged_or_every_unit_s_only_link(tmp_path, links, best):
    aux = write(tmp_path / "aux.csv", "record_id,x1\na,1\nb,2\nc,3\n")
    inputs = assemble_estimation_inputs(None, aux, write(tmp_path / "links.csv", links),
                                        n_population=None)
    resolved = inputs.best_links
    assert best == (None if resolved is None else [inputs.record_keys[r] for r in resolved])


@pytest.fixture
def generated_files(tmp_path):
    """Population-scope links with best-link flags and an SRSWOR sample."""
    n_population, n = 300, 40
    x, population = gen_population(PopulationModel(n_units=n_population),
                                   rng_stream(5, 0))
    model = LinkageModel(link_share=(0.4, 0.3, 0.3), match_rate=0.8,
                         correct_best_rate=0.7)
    _, linkage, best = gen_linkage(n_population, model, rng_stream(5, 1))
    sample = draw_srswor(n_population, n, rng_stream(5, 2))
    paths = {name: tmp_path / f"{name}.csv" for name in ("aux", "links", "sample")}
    write_aux_csv(paths["aux"], AuxDatabase.from_values(x))
    write_links_csv(paths["links"], linkage, best_links=best)
    write_sample_csv(paths["sample"], sample, population.y[sample.ids])
    return paths, n_population


def estimate_stdout(capsys, paths, n_population) -> str:
    code = main(["estimate", "--sample", str(paths["sample"]), "--aux", str(paths["aux"]),
                 "--links", str(paths["links"]), "--estimator", FILE_ESTIMATORS,
                 "--big-n", str(n_population)])
    out = capsys.readouterr().out
    assert code == 0
    return out


def rewrite_rows(source, target, transform, **writer_options):
    with open(source, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    with open(target, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, **writer_options)
        writer.writerow(header)
        writer.writerows(transform(rows))


def test_estimates_invariant_to_row_order(tmp_path, capsys, generated_files):
    paths, n_population = generated_files
    reference = estimate_stdout(capsys, paths, n_population)
    assert reference.count("point estimate") == 6
    rng = np.random.default_rng(11)
    shuffled = dict(paths)
    for name in ("links", "sample"):
        shuffled[name] = tmp_path / f"shuffled_{name}.csv"
        rewrite_rows(paths[name], shuffled[name],
                     lambda rows: [rows[i] for i in rng.permutation(len(rows))])
    assert estimate_stdout(capsys, shuffled, n_population) == reference


def test_estimates_invariant_to_order_preserving_unit_renaming(tmp_path, capsys,
                                                               generated_files):
    paths, n_population = generated_files
    reference = estimate_stdout(capsys, paths, n_population)
    renamed = dict(paths)
    for name in ("links", "sample"):
        renamed[name] = tmp_path / f"renamed_{name}.csv"
        # zero-padded names sort lexicographically as the integers did numerically
        rewrite_rows(paths[name], renamed[name],
                     lambda rows: [[f"unit-{int(row[0]):06d}", *row[1:]] for row in rows])
    assert estimate_stdout(capsys, renamed, n_population) == reference


@pytest.mark.parametrize("writer_options", [{"quoting": csv.QUOTE_ALL},
                                            {"lineterminator": "\n"}])
def test_estimates_invariant_to_quoting_and_line_ends(tmp_path, capsys, generated_files,
                                                      writer_options):
    paths, n_population = generated_files
    reference = estimate_stdout(capsys, paths, n_population)
    rewritten = {name: tmp_path / f"rewritten_{name}.csv" for name in paths}
    for name in paths:
        rewrite_rows(paths[name], rewritten[name], list, **writer_options)
    assert estimate_stdout(capsys, rewritten, n_population) == reference


READERS = {"aux": read_aux_csv, "links": read_links_csv, "sample": read_sample_csv}


@pytest.mark.parametrize("line_end", ["\r\n", "\n"])
def test_written_files_take_the_plain_path(tmp_path, generated_files, line_end):
    paths, _ = generated_files
    for name, reader in READERS.items():
        path = paths[name]
        assert b"\r\n" in path.read_bytes()
        if line_end == "\n":
            path = tmp_path / f"lf_{name}.csv"
            rewrite_rows(paths[name], path, list, lineterminator="\n")
            assert b"\r" not in path.read_bytes()
        with mock.patch.object(dataio, "_csv_rows", side_effect=AssertionError(path)):
            reader(path)


FIELD_LIMIT = csv.field_size_limit()
PADDING = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\x1c", "\u2028", "\x85"])
JUNK = st.text(alphabet=" \t\r\xa0\x1c\u2028\x85\v,01.eExn-_", max_size=4)


def padded(cells):
    return st.tuples(PADDING, cells, PADDING).map("".join)


def mostly(common, rare, times=3):
    """Draws from ``common`` ``times`` times as often as from ``rare``."""
    return st.sampled_from([common] * times + [rare]).flatmap(lambda cells: cells)


def with_junk(cells):
    return mostly(cells, st.one_of(JUNK, st.just("k" * FIELD_LIMIT)))


KEYS = with_junk(padded(st.text(alphabet="ab01\u2028\x1c-", min_size=1, max_size=4)
                        .filter(lambda key: key.strip())))
NUMBERS = with_junk(padded(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                                     st.integers(-9, 9).map(str),
                                     st.sampled_from(["nan", "-inf", "1_0", "1e3", "x", ""]))))
FLAGS = with_junk(padded(st.sampled_from(["1", "0", "true", "No", "YES", "", "maybe"])))
LAYOUTS = [
    (read_aux_csv, [("record_id", KEYS), ("x1", NUMBERS)]),
    (read_aux_csv, [("record_id", KEYS), ("x1", NUMBERS), ("x2", NUMBERS)]),
    (read_links_csv, [("unit_id", KEYS), ("record_id", KEYS)]),
    (read_links_csv, [("unit_id", KEYS), ("record_id", KEYS), ("weight", NUMBERS),
                      ("is_best", FLAGS)]),
    (read_links_csv, [("unit_id", KEYS), ("record_id", KEYS), ("is_best", FLAGS)]),
    (read_sample_csv, [("unit_id", KEYS), ("y", NUMBERS), ("pi", NUMBERS)]),
]
BLANK_ROWS = ["", " ", ",", " , ", "\xa0", "\x1c,", "\u2028", "\t,\t,", "\x85,\u2029"]
# inserted anywhere: each sends the text to the csv path, or is a cell of it
INSERTS = ["\0", "\r", '"', '"a,\n"', ",", "\n", "x" * (FIELD_LIMIT + 1)]


@st.composite
def table_files(draw):
    """A reader and the bytes of a file for it, mostly well formed."""
    reader, columns = draw(st.sampled_from(LAYOUTS))
    header = ",".join(name for name, _ in columns)
    header = draw(st.sampled_from([header] * 9 + ["", f" {header} ", f"{header},x", "unit_id,y"]))
    row = st.tuples(*(cells for _, cells in columns)).map(",".join)
    odd_row = st.one_of(row.map(lambda cells: cells.rpartition(",")[0]),
                        row.map(lambda cells: cells + ",1"), st.sampled_from(BLANK_ROWS))
    rows = draw(st.lists(mostly(row, odd_row, times=3), min_size=1, max_size=6))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    text = line_end.join([header, *rows]) + draw(st.sampled_from(["", line_end]))
    at = draw(st.integers(0, len(text)))
    text = text[:at] + draw(st.sampled_from([""] * 2 * len(INSERTS) + INSERTS)) + text[at:]
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return reader, data[:at] + draw(st.sampled_from([b""] * 18 + [b"\xff", b"\xc3"])) + data[at:]


def fingerprint(value):
    """A value's fields, arrays as their dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return [fingerprint(getattr(value, field.name)) for field in dataclasses.fields(value)]
    return value


def read_outcome(reader, path):
    try:
        return fingerprint(reader(path))
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(case=table_files())
# one case per condition of a plain file, each of which csv reads differently
@example(case=(read_links_csv, b"unit_id,record_id\n1,a\n \xc2\xa0, \n"))
@example(case=(read_links_csv, b"unit_id,record_id\n1,a,b\n2\n"))
@example(case=(read_links_csv, b"unit_id,record_id\r\na\rb,c\r\n"))
@example(case=(read_links_csv, b"unit_id,record_id\n1,a\x00\n"))
@example(case=(read_links_csv, b'unit_id,record_id\n"a",b\n'))
@example(case=(read_links_csv, b"unit_id,record_id\n1," + b"x" * (FIELD_LIMIT + 1)))
@example(case=(read_links_csv, b"unit_id,record_id\n1," + b"x" * FIELD_LIMIT))
# an empty header line, which csv reads as no cells
@example(case=(read_aux_csv, b"\n0"))
# a plain file with a bad cell, whose error the plain path raises itself
@example(case=(read_aux_csv, b"record_id,x1\na,0.5\nb,x\n"))
def test_plain_and_csv_paths_give_one_table_or_error(tmp_path_factory, case):
    reader, data = case
    path = tmp_path_factory.getbasetemp() / "agreement.csv"
    path.write_bytes(data)
    with mock.patch.object(dataio, "_plain_rows", return_value=None):
        expected = read_outcome(reader, path)
    assert read_outcome(reader, path) == expected


def test_link_header_rejects_repeated_columns(tmp_path):
    path = write(tmp_path / "links.csv", "unit_id,record_id,weight,weight\n1,a,0.5,0.5\n")
    assert raised_text(read_links_csv, path) == (
        f"{path}: repeated link columns ['weight', 'weight']")


@pytest.mark.parametrize("keys, expected", [
    (["1", "01", "2"], ["01", "1", "2"]),
    (["10", "1_0", "9"], ["9", "10", "1_0"]),
    (["b", "a", "01", "1"], ["01", "1", "a", "b"]),
])
def test_order_keys_breaks_equal_values_on_the_string(keys, expected):
    # keys of equal integer value came out in set iteration order, which
    # follows PYTHONHASHSEED; both input orders now give one list
    assert order_keys(keys) == expected
    assert order_keys(keys[::-1]) == expected


@st.composite
def id_structures(draw):
    """A small linkage, sample and auxiliary file over drawn integer ids, in
    drawn row orders."""
    n_units = draw(st.integers(2, 7))
    n_records = draw(st.integers(1, 5))
    # up to 18 digits, the longest canonical decimal id
    ids = st.integers(0, 10**18 - 1) | st.integers(0, 20)
    unit_ids = draw(st.lists(ids, min_size=n_units, max_size=n_units, unique=True))
    record_ids = draw(st.lists(ids, min_size=n_records, max_size=n_records, unique=True))
    values = st.floats(-9, 9, allow_nan=False).map(repr)
    aux = draw(st.lists(values, min_size=n_records, max_size=n_records))
    links = []
    for unit in unit_ids:
        records = sorted(draw(st.sets(st.sampled_from(record_ids), min_size=1)))
        best = draw(st.sampled_from(records))
        links += [(unit, record, int(record == best)) for record in records]
    links = draw(st.permutations(links))
    sampled = draw(st.lists(st.sampled_from(unit_ids), min_size=2, max_size=n_units,
                            unique=True))
    y = draw(st.lists(values, min_size=len(sampled), max_size=len(sampled)))
    n_population = n_units + draw(st.integers(0, 2))
    return {"aux": list(zip(record_ids, aux)), "links": links,
            "sample": [(unit, value, repr(len(sampled) / n_population))
                       for unit, value in zip(sampled, y)],
            "n_population": n_population, "flagged": draw(st.booleans())}


def write_structure(directory, structure, unit_id, record_id):
    """The structure's three files, each id written by ``unit_id`` or ``record_id``."""
    directory.mkdir()
    best = ",is_best" if structure["flagged"] else ""
    rows = {
        "aux": ["record_id,x1", *(f"{record_id(r)},{x}" for r, x in structure["aux"])],
        "links": [f"unit_id,record_id{best}",
                  *(f"{unit_id(u)},{record_id(r)}" + (f",{flag}" if best else "")
                    for u, r, flag in structure["links"])],
        "sample": ["unit_id,y,pi", *(f"{unit_id(u)},{y},{pi}" for u, y, pi in structure["sample"])],
    }
    return {name: write(directory / f"{name}.csv", "\n".join(lines) + "\n")
            for name, lines in rows.items()}


def cli_outcomes(paths, n_population):
    """Exit code and output of ``diagnose`` and of ``estimate`` with each estimator."""
    files = ["--aux", paths["aux"], "--links", paths["links"], "--sample", paths["sample"],
             "--big-n", str(n_population)]
    outcomes = []
    for argv in (["diagnose", *files], *(["estimate", *files, "--estimator", estimator]
                                         for estimator in FILE_ESTIMATORS.split(","))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue() + err.getvalue()
        for name, path in paths.items():
            text = text.replace(path, name)
        outcomes.append(f"{code}\n{text}")
    return outcomes


def prefixed(prefix):
    # a fixed width: the strings sort as the values do
    return lambda unit_or_record: f"{prefix}{unit_or_record:018d}"


def unprefixed(text):
    return re.sub(r"\b[ur](\d{18})\b", lambda match: str(int(match.group(1))), text)


@settings(max_examples=60, deadline=None)
@given(structure=id_structures())
def test_canonical_and_string_ids_give_one_result(tmp_path_factory, structure):
    directory = tmp_path_factory.mktemp("ids")
    plain = write_structure(directory / "canonical", structure, str, str)
    named = write_structure(directory / "prefixed", structure, prefixed("u"), prefixed("r"))
    n_population = structure["n_population"]
    with mock.patch.object(dataio, "order_keys", side_effect=AssertionError("string path")):
        by_value = assemble_estimation_inputs(plain["sample"], plain["aux"], plain["links"],
                                              n_population)
    by_string = assemble_estimation_inputs(named["sample"], named["aux"], named["links"],
                                           n_population)
    assert by_value.unit_keys == list(map(str, sorted({unit for unit, *_ in structure["links"]})))
    assert list(map(unprefixed, by_string.unit_keys)) == by_value.unit_keys
    assert list(map(unprefixed, by_string.record_keys)) == by_value.record_keys
    for name in ("aux", "sample", "y", "weights", "best_links"):
        assert fingerprint(getattr(by_string, name)) == fingerprint(getattr(by_value, name))
    for name in ("scope", "covered_units", "n_records", "link_units", "link_records"):
        assert fingerprint(getattr(by_string.linkage, name)) == fingerprint(
            getattr(by_value.linkage, name))
    assert list(map(unprefixed, cli_outcomes(named, n_population))) == cli_outcomes(
        plain, n_population)


def write_id_files(directory, aux_ids, links, sample_ids, quoting=csv.QUOTE_MINIMAL):
    """Aux, link and sample files over the given ids, every value 1."""
    tables = {"aux": (["record_id", "x1"], [(key, "1") for key in aux_ids]),
              "links": (["unit_id", "record_id"], links),
              "sample": (["unit_id", "y", "pi"], [(key, "1", "0.5") for key in sample_ids])}
    paths = {}
    for name, (header, rows) in tables.items():
        paths[name] = str(directory / f"{name}.csv")
        with open(paths[name], "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, quoting=quoting)
            writer.writerow(header)
            writer.writerows(rows)
    return paths


def assembled(paths):
    """The unit keys of the assembled files, or the error text."""
    try:
        inputs = assemble_estimation_inputs(paths["sample"], paths["aux"], paths["links"], 99)
    except ValidationError as exc:
        return str(exc).replace(paths["aux"], "aux").replace(paths["sample"], "sample")
    return inputs.unit_keys


# ids that are no canonical decimal; the first is left out of one file in turn
EDGE_IDS = {
    "00": (["00", "3", "10"], ["00", "3", "10"]),
    "007 beside 7": (["007", "7", "3"], ["3", "007", "7"]),
    "+1": (["+1", "10", "2"], ["+1", "2", "10"]),
    "1_0 beside 10": (["1_0", "10", "9"], ["9", "10", "1_0"]),
    "-1": (["-1", "5", "10"], ["-1", "5", "10"]),
    "arabic-indic": (["١٢", "3", "20"], ["3", "١٢", "20"]),
    "19 digits": (["9999999999999999999", "5", "10"], ["5", "10", "9999999999999999999"]),
    "space, quoted": ([" 1", "10", "2"], ["1", "2", "10"]),
}


@pytest.mark.parametrize("ids, unit_keys", EDGE_IDS.values(), ids=EDGE_IDS.keys())
def test_ids_off_the_decimal_path_keep_order_and_errors(tmp_path, ids, unit_keys):
    quoting = csv.QUOTE_ALL if ids[0].startswith(" ") else csv.QUOTE_MINIMAL
    edge, key = ids[0], ids[0].strip()

    def outcome(name, aux_ids=ids, links=ids, sample_ids=ids):
        directory = tmp_path / name
        directory.mkdir()
        return assembled(write_id_files(directory, aux_ids, [(k, k) for k in links],
                                        sample_ids, quoting))

    assert outcome("whole") == unit_keys
    assert outcome("unlinked", links=ids[1:]) == f"sampled units without links: [{key!r}]"
    assert outcome("unknown", aux_ids=ids[1:]) == f"link file references unknown record {key!r}"
    assert outcome("repeated", links=[*ids, edge]) == (
        f"link file repeats the link of unit {key!r} to record {key!r}")
    assert outcome("duplicate", aux_ids=[*ids, edge]) == f"aux: duplicate record id {key!r}"
    assert outcome("duplicate unit", sample_ids=[*ids, edge]) == (
        f"sample: duplicate sample unit {key!r}")


@pytest.mark.parametrize("name", [str, prefixed("k")], ids=["canonical", "prefixed"])
def test_first_of_two_faults_is_reported(tmp_path, name):
    ids = list(map(name, [4, 17, 9]))
    pairs = [(k, k) for k in ids]
    # a repeated aux id is found on reading, before the unknown record
    (tmp_path / "dup").mkdir()
    assert assembled(write_id_files(tmp_path / "dup", [*ids[1:], ids[2]], pairs, ids[1:])) == (
        f"aux: duplicate record id {ids[2]!r}")
    # a sampled unit without links is found before the repeated link
    (tmp_path / "unlinked").mkdir()
    assert assembled(write_id_files(tmp_path / "unlinked", ids, [*pairs[1:], pairs[2]],
                                    ids)) == f"sampled units without links: [{ids[0]!r}]"


def test_empty_record_id_is_unknown(tmp_path):
    paths = write_id_files(tmp_path, ["0", "1"], [("1", "0"), ("2", "")], ["1", "2"])
    assert assembled(paths) == "link file references unknown record ''"


def test_duplicate_error_names_the_earliest_of_several_repeated_keys(tmp_path):
    # every key twice, so the first key to recur is the first one, 99; the
    # sort may put either row of a key first
    keys = [str(k) for k in [*range(99, -1, -1)] * 2]
    path = write(tmp_path / "aux.csv", "record_id,x1\n" + "".join(f"{k},1\n" for k in keys))
    assert raised_text(read_aux_csv, path) == f"{path}: duplicate record id '99'"
