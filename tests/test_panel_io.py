"""The columnar panel reader and table writers against the row-by-row reference.

``tests/_row_loader.py`` keeps the loader and writers that read and wrote a
panel one row and one field at a time. Every fuzzed CSV must load to
bit-identical arrays under both, or fail with the same exception type and
message; the only exemption is a row that lacks a mapped field after its
unit and time, where the reference crashes with an ``IndexError`` and the
columnar loader must report "line N: too few fields" for the row the
reference crashed on. The writers must produce the same bytes.
"""

import csv
import io
import random

import numpy as np
import pytest

from mldid import ColumnSchema, load_panel, panel as panel_module, write_panel_csv
from mldid.estimator import CattPanel
from mldid.exceptions import PanelValidationError
from mldid.report import CATT_CHUNK_ROWS, write_catt_panel_csv

from _row_loader import (
    load_panel_rows,
    write_catt_panel_csv_rows,
    write_panel_csv_rows,
)
from _utils import make_panel

N_FUZZ = 3000

# \x1c is removed by str.strip but rejected by int() and float().
PADS = (" ", "\t", "  ", "\x1c")
BAD_TIMES = ("x", "1.5", "", " ", "0", "-1", "+1", " 2", "1e0", "٣")
BAD_GROUPS = ("1", "-2", "2.5", "abc", " 3 ", "", "0", "02", "-0", "\x1c2")
BAD_VALUES = ("", "  ", "abc", "nan", "inf", "-inf", "1e999", "0x1", "1,5",
              "1_000.5", " -0.0 ", "\x1c1.5")


def _field(rng, value):
    """A value, sometimes padded with whitespace."""
    if rng.random() < 0.1:
        return rng.choice(PADS) + value + rng.choice(PADS)
    return value


def _fuzz_case(rng):
    """A small panel CSV with 0-3 corruptions; returns (text, schema)."""
    T, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2)
    ids = rng.sample(["a", "b", "c", "10", "2", "u 1", "Z"], n)
    covs = [f"x_{j + 1}" for j in range(p)]
    header = ["id", "time", "group", "y", *covs]
    if rng.random() < 0.2:
        header.append("note")
    if rng.random() < 0.3:
        rng.shuffle(header)
    group_of = {u: rng.choice(["", "0", *map(str, range(2, T + 1))]) for u in ids}
    rows = []
    for u in ids:
        for t in range(1, T + 1):
            row = {"id": u, "time": str(t), "group": group_of[u],
                   "y": repr(rng.gauss(0, 1)), "note": "n"}
            for c in covs:
                row[c] = rng.choice([repr(rng.gauss(0, 1)), str(rng.randint(-3, 3))])
            rows.append({k: _field(rng, v) for k, v in row.items()})
    if rng.random() < 0.3:
        rng.shuffle(rows)

    lines = [[r[h] for h in header] for r in rows]
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
        kind = rng.choice(["time", "dup", "drop", "group", "group-unit", "value",
                           "blank", "extra", "pad-id", "short", "copy-covariate"])
        k = rng.randrange(len(lines)) if lines else None
        if k is None or len(lines[k]) < len(header):
            kind = "blank"
        if kind == "time":
            lines[k][header.index("time")] = rng.choice(BAD_TIMES + (str(T + 1),))
        elif kind == "dup":
            copy = list(lines[k])
            copy[header.index("y")] = "7.5"
            lines.insert(rng.randrange(len(lines) + 1), copy)
        elif kind == "drop":
            del lines[k]
        elif kind == "group":
            lines[k][header.index("group")] = rng.choice(BAD_GROUPS + (str(T + 1),))
        elif kind == "group-unit":
            unit = lines[k][header.index("id")]
            label = rng.choice(BAD_GROUPS + (str(T + 1),))
            for line in lines:
                if len(line) == len(header) and line[header.index("id")] == unit:
                    line[header.index("group")] = label
        elif kind == "value":
            name = rng.choice(["y", *covs])
            lines[k][header.index(name)] = rng.choice(BAD_VALUES)
        elif kind == "blank":
            blank = rng.choice([[], [""] * len(header), [" ", "\t"], ["  "] * 7])
            lines.insert(rng.randrange(len(lines) + 1), blank)
        elif kind == "extra":
            lines[k] = lines[k] + ["e"] * rng.randint(1, 3)
        elif kind == "pad-id":
            lines[k][header.index("id")] = " " + lines[k][header.index("id")] + "\t"
        elif kind == "short":
            lines[k] = lines[k][: rng.randrange(len(header))]
        elif kind == "copy-covariate" and len(covs) == 2:
            source, target = (header.index(c) for c in rng.sample(covs, 2))
            for line in lines:
                if len(line) == len(header):
                    line[target] = line[source]

    delimiter = rng.choice([",", ",", ";"])
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(header)
    writer.writerows(lines)
    if rng.random() < 0.3 and covs:
        schema = ColumnSchema(covariates=tuple(reversed(covs)), delimiter=delimiter)
    else:
        schema = ColumnSchema(delimiter=delimiter)
    return buf.getvalue(), schema


# Message part -> outcome; the first part found names the message, so
# "line N: too few fields" is matched before ": time ".
CATEGORIES = {
    "too few fields": "unit or time field missing",
    "time values must cover": "time coverage",
    "no data rows found": "no data rows",
    "appears more than once": "repeated period",
    "cannot start in period 1": "group one",
    "outside the panel horizon": "group past horizon",
    "group changes": "group changes",
    "is empty": "empty value",
    "is not numeric": "non-numeric value",
    "is not finite": "non-finite value",
    "is missing": "missing period",
    ": time ": "bad time",
    "is not an integer": "bad group label",
    "equals covariate": "repeated covariate",
}


def _category(message):
    return next(label for part, label in CATEGORIES.items() if part in message)


def _run(loader, text, schema):
    try:
        return loader(io.StringIO(text, newline=""), schema), None
    except Exception as err:  # noqa: BLE001 - the test compares what was raised
        return None, err


def _crash_line(err):
    """The line the reference was reading when it crashed."""
    tb = err.__traceback__
    line = None
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "_load_panel_stream":
            line = tb.tb_frame.f_locals.get("line_no")
        tb = tb.tb_next
    return line


def _assert_same_panel(a, b, text):
    assert a.unit_ids.dtype == b.unit_ids.dtype == object, text
    assert a.unit_ids.tolist() == b.unit_ids.tolist() == sorted(b.unit_ids.tolist()), text
    assert a.n_periods == b.n_periods, text
    assert a.covariate_names == b.covariate_names, text
    for name in ("groups", "outcomes", "covariates"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, (name, text)
        assert x.tobytes() == y.tobytes(), (name, text)
        assert x.flags.c_contiguous, (name, text)


def test_fuzzed_panels_match_row_reference():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(N_FUZZ):
        text, schema = _fuzz_case(rng)
        new, new_err = _run(load_panel, text, schema)
        ref, ref_err = _run(load_panel_rows, text, schema)
        if ref_err is None:
            assert new_err is None, (text, new_err)
            _assert_same_panel(new, ref, text)
            outcome = "loaded"
        elif isinstance(ref_err, IndexError):
            line = _crash_line(ref_err)
            assert line is not None, text
            assert type(new_err) is PanelValidationError, (text, new_err)
            assert str(new_err) == f"line {line}: too few fields", (text, new_err)
            outcome = "short row (reference crashes)"
        else:
            assert isinstance(ref_err, PanelValidationError), (text, ref_err)
            assert type(new_err) is type(ref_err), (text, ref_err, new_err)
            assert str(new_err) == str(ref_err), text
            outcome = _category(str(ref_err))
        seen[outcome] = seen.get(outcome, 0) + 1
    # Every branch of the reader was reached many times.
    for outcome in ("loaded", "short row (reference crashes)", *CATEGORIES.values()):
        assert seen.get(outcome, 0) >= 10, (outcome, seen)


def test_reference_panels_load_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    for n, T, p in ((40, 8, 5), (25, 4, 0), (3, 2, 2)):
        panel = make_panel(
            groups=rng.choice([0, *range(2, T + 1)], n),
            n_periods=T,
            outcomes=rng.standard_normal((n, T)) * 1e3,
            covariates=rng.standard_normal((n, T, p)) if p else np.zeros((n, T, 0)),
            unit_ids=[f"u{k}" for k in rng.permutation(n)],
        )
        path = tmp_path / f"panel_{n}.csv"
        write_panel_csv(panel, path)
        _assert_same_panel(load_panel(path), load_panel_rows(path), str(path))


def _rows(edit=None):
    """The data rows of a small well-formed panel, after ``edit(rows)``."""
    rows = []
    for k, (unit, group) in enumerate((("a", "2"), ("b", "0"), ("c", "3"))):
        for t in (1, 2, 3):
            rows.append([unit, str(t), group, repr(0.5 * t + k), repr(k - 0.25 * t),
                         str(k * t % 3)])
    if edit is not None:
        edit(rows)
    return rows


def _text(rows, end="\n", delimiter=","):
    lines = [["id", "time", "group", "y", "x1", "x2"], *rows]
    return end.join(delimiter.join(line) for line in lines) + end


def _set(row, column, value):
    def edit(rows):
        rows[row][column] = value
    return edit


def _each(column, value_of):
    def edit(rows):
        for row in rows:
            row[column] = value_of(row)
    return edit


def _pad_numbers(rows):
    for row in (rows[0], rows[4]):
        row[1:5] = [f" {field}\t" for field in row[1:5]]


# Each case: (file text, schema options, read by numpy's reader). The rest
# go to the row reader.
READER_CASES = {
    "plain": (_text(_rows()), {}, True),
    "crlf": (_text(_rows(), end="\r\n"), {}, True),
    "blank lines": (_text(_rows()).replace("\nb,1", "\n\n\nb,1") + "\n\n", {}, True),
    "spaces around numbers": (_text(_rows(_pad_numbers)), {}, True),
    "U+001C around a number": (_text(_rows(_set(2, 3, "\x1c1.5\x1f"))), {}, True),
    "non-ASCII ids": (_text(_rows(_each(0, lambda row: {"a": "é", "b": "日本",
                                                         "c": "ü1"}[row[0]]))), {}, True),
    "tab-delimited": (_text(_rows(), delimiter="\t"), {"delimiter": "\t"}, True),
    "extra field": (_text(_rows(lambda rows: rows[3].append("note"))), {}, True),
    "nan outcome": (_text(_rows(_set(4, 3, "nan"))), {}, True),
    "inf covariate": (_text(_rows(_set(5, 4, "-inf"))), {}, True),
    "repeated key": (_text(_rows(lambda rows: rows.insert(6, list(rows[2])))), {}, True),
    "missing period": (_text(_rows(lambda rows: rows.pop(4))), {}, True),
    "time gap": (_text(_rows(_each(1, lambda row: "4" if row[1] == "3" else row[1]))),
                 {}, True),
    "group change": (_text(_rows(_set(1, 2, "3"))), {}, True),
    "bad group label": (_text(_rows(_set(7, 2, "x"))), {}, True),
    "duplicate covariate": (_text(_rows(_each(5, lambda row: row[4]))), {}, True),
    "quoted id": (_text(_rows(_set(0, 0, '"a"'))), {}, False),
    "quoted number": (_text(_rows(_set(3, 3, '"1.25"'))), {}, False),
    "spaces around ids": (_text(_rows(_set(0, 0, " a"))), {}, False),
    "U+001C around an id": (_text(_rows(_set(0, 0, "a\x1c"))), {}, False),
    "Unicode digits": (_text(_rows(_set(2, 3, "\u0661.\u0665"))), {}, False),
    "underscored number": (_text(_rows(_set(2, 4, "1_0"))), {}, False),
    "white-space line": (_text(_rows()).replace("\nb,1", "\n  \nb,1"), {}, False),
    "short row": (_text(_rows(lambda rows: rows[5].pop())), {}, False),
    "empty outcome": (_text(_rows(_set(1, 3, ""))), {}, False),
    "time not an integer": (_text(_rows(_set(1, 1, "2.0"))), {}, False),
    "no data rows": (_text([]), {}, False),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_path_reader_matches_row_reader(case, tmp_path, monkeypatch):
    # A path is read by numpy's reader exactly when the row reader would
    # read it the same way; either way it loads the row reader's panel bit
    # for bit, or raises its exception type and message.
    text, options, fast = READER_CASES[case]
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = ColumnSchema(**options)
    row_reads = []
    read_rows = panel_module._read_rows
    monkeypatch.setattr(panel_module, "_read_rows",
                        lambda *args: row_reads.append(args) or read_rows(*args))
    got, got_err = _run(lambda _, schema: load_panel(path, schema), text, schema)
    assert bool(row_reads) is not fast, case
    want, want_err = _run(lambda _, schema: load_panel(path.read_bytes(), schema), text, schema)
    if want_err is None:
        assert got_err is None, (case, got_err)
        _assert_same_panel(got, want, case)
    else:
        assert isinstance(want_err, PanelValidationError), (case, want_err)
        assert type(got_err) is type(want_err), (case, got_err, want_err)
        assert str(got_err) == str(want_err), case


def _panel_for_writing(unit_ids, p):
    rng = np.random.default_rng(5)
    n, T = len(unit_ids), 3
    y = rng.standard_normal((n, T))
    y[0, 1] = -0.0
    x = rng.standard_normal((n, T, p)) * 10.0 ** rng.integers(-20, 20, (n, T, p))
    return make_panel(rng.choice([0, 2, 3], n), T, y, x, unit_ids=unit_ids)


@pytest.mark.parametrize("unit_ids,p,delimiter", [
    (["b", "a", "c, d", 'q"t'], 2, ","),
    (np.arange(4, dtype=object), 1, ";"),
    (np.arange(3, dtype=np.int64), 3, ","),
    (["x"], 0, ","),
])
def test_write_panel_csv_matches_row_writer(tmp_path, unit_ids, p, delimiter):
    panel = _panel_for_writing(unit_ids, p)
    write_panel_csv(panel, tmp_path / "new.csv", delimiter=delimiter)
    write_panel_csv_rows(panel, tmp_path / "ref.csv", delimiter=delimiter)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("unit_ids", [
    np.array(["u3", "u1", "a,b", "7"], dtype=object),
    np.arange(4, dtype=object),
    # Ids that csv quotes, or that look as if it might.
    np.array(['a"b', "c,d", "e\nf", "g\r\nh", " lead", "", "u 1", "\x1c"], dtype=object),
    np.array([], dtype=object),
    # More rows than one chunk: ints, and strings with a few quoted ids.
    np.arange(2 * CATT_CHUNK_ROWS + 5),
    np.array([f"u{i}" if i % 997 else f"u,{i}" for i in range(CATT_CHUNK_ROWS + 3)],
             dtype=object),
])
def test_write_catt_panel_csv_matches_row_writer(tmp_path, unit_ids):
    n = unit_ids.shape[0]
    rng = np.random.default_rng(9)
    tau = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    tau[1:2] = -0.0
    tau[2:3] = np.inf
    catt = CattPanel(
        unit_ids=unit_ids,
        g=np.resize(np.array([2, 2, 3, 3]), n),
        e=np.resize(np.array([-2, 0, 1, 5], dtype=np.int64), n),
        tau=tau,
        score=np.resize([np.nan, 1e-300, -2.5, 1 / 3, -np.inf, -0.0, np.inf, 0.0], n),
        X=np.zeros((n, 1)),
        covariate_names=("x_1",),
    )
    write_catt_panel_csv(tmp_path / "new.csv", catt)
    write_catt_panel_csv_rows(tmp_path / "ref.csv", catt)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
