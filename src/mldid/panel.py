"""Staggered-adoption panel data model, its CSV format and two-period slices."""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .exceptions import (
    EmptyControlGroup,
    EmptyTreatedGroup,
    GroupOne,
    MissingValue,
    MldidError,
    NonFiniteData,
    NonMonotoneTreatment,
    PanelValidationError,
    UnbalancedPanel,
)

# Group label for units that never start treatment. This is also the value
# used in the CSV interchange format (an empty group field parses to it).
NEVER_TREATED = 0


@dataclass(frozen=True)
class ColumnSchema:
    """Mapping from CSV columns to panel fields.

    ``covariates=None`` selects every column not otherwise mapped.
    """

    unit: str = "id"
    time: str = "time"
    group: str = "group"
    outcome: str = "y"
    covariates: tuple[str, ...] | None = None
    delimiter: str = ","


@dataclass(frozen=True)
class PanelDataset:
    """Balanced unit-by-period panel with staggered absorbing treatment.

    Units are stored in a fixed deterministic order; ``groups[i]`` is the
    first treated period of unit i (``NEVER_TREATED`` if none), outcomes
    and covariates are dense ``(n_units, T)`` and ``(n_units, T, p)``
    arrays over periods 1..T, every entry finite.
    """

    unit_ids: np.ndarray
    groups: np.ndarray
    n_periods: int
    outcomes: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        n = self.unit_ids.shape[0]
        T = self.n_periods
        if self.outcomes.shape != (n, T):
            raise PanelValidationError("outcome array shape does not match panel")
        if self.covariates.shape[:2] != (n, T):
            raise PanelValidationError("covariate array shape does not match panel")
        for name in ("outcomes", "covariates"):
            if not np.isfinite(getattr(self, name)).all():
                raise PanelValidationError(f"{name} contain NaN or infinite entries")
        if np.any(self.groups == 1):
            bad = self.unit_ids[self.groups == 1][0]
            raise GroupOne(f"unit {bad}: treatment cannot start in period 1")
        valid = (self.groups == NEVER_TREATED) | (
            (self.groups >= 2) & (self.groups <= T)
        )
        if not np.all(valid):
            bad = self.unit_ids[~valid][0]
            raise PanelValidationError(
                f"unit {bad}: group label outside 2..{T} and not never-treated"
            )

    @property
    def n_units(self) -> int:
        return int(self.unit_ids.shape[0])

    @property
    def cohorts(self) -> list[int]:
        """Sorted first-treatment periods present in the panel."""
        gs = np.unique(self.groups)
        return [int(g) for g in gs if g != NEVER_TREATED]

    @property
    def group_sizes(self) -> dict[int, int]:
        return {g: int(np.sum(self.groups == g)) for g in self.cohorts}


@dataclass(frozen=True)
class TwoPeriodSlice:
    """One (g, t) estimation cell: cohort g versus not-yet-treated controls.

    The baseline period is always g-1. ``g_flag`` is 1 for cohort-g rows;
    covariates are the baseline-period values. ``X``, ``y_pre`` and
    ``y_post`` must be finite, so no estimator downstream meets a NaN.
    """

    g: int
    t: int
    pre_period: int
    unit_ids: np.ndarray
    unit_rows: np.ndarray  # row index into the parent panel
    g_flag: np.ndarray
    y_pre: np.ndarray
    y_post: np.ndarray
    X: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        for name in ("X", "y_pre", "y_post"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteData(f"{name} contains NaN or infinite entries")

    @property
    def e(self) -> int:
        return self.t - self.g

    @property
    def n_units(self) -> int:
        return int(self.g_flag.shape[0])

    @property
    def n_treated(self) -> int:
        return int(self.g_flag.sum())

    @property
    def n_control(self) -> int:
        return self.n_units - self.n_treated


def _parse_group(raw: str, unit, T: int) -> int:
    raw = raw.strip()
    if raw == "" or raw == "0":
        return NEVER_TREATED
    try:
        g = int(raw)
    except ValueError as err:
        raise PanelValidationError(f"unit {unit}: group {raw!r} is not an integer") from err
    if g == 1:
        raise GroupOne(f"unit {unit}: treatment cannot start in period 1")
    if g < 0 or g > T:
        raise PanelValidationError(
            f"unit {unit}: group {g} outside the panel horizon 2..{T}"
        )
    return g


def load_panel(source, schema: ColumnSchema | None = None) -> PanelDataset:
    """Read and validate a long-format panel from delimited text.

    ``source`` may be a path, a text file object, or bytes. Rows are keyed
    by (unit, period); the panel must be balanced over periods 1..T with a
    constant group label per unit, no missing values and no covariate
    that equals an earlier one on every row.

    A path whose mapped fields all parse is read by numpy's C reader
    (:func:`_read_columns`); any other input, and any path that reader
    cannot take as the row reader would, is read row by row. Both feed the
    same checks, so they give the same panel or raise the same error.
    """
    schema = schema or ColumnSchema()
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return _load_panel_stream(fh, schema, source)
    if isinstance(source, bytes):
        return _load_panel_stream(io.StringIO(source.decode("utf-8")), schema)
    return _load_panel_stream(source, schema)


def _header_columns(header: list[str]) -> dict[str, int]:
    """Column index of each (stripped) header name; a repeated name is an error."""
    col: dict[str, int] = {}
    for i, raw in enumerate(header):
        name = raw.strip()
        if name in col:
            raise PanelValidationError(f"duplicate column {name!r}")
        col[name] = i
    return col


def _is_blank(row: list[str]) -> bool:
    return all(f.strip() == "" for f in row)


def _parse_column(raw: list[str], parse, fill):
    """``parse`` applied to every field; a failing field becomes ``fill``.

    The fast pass hands the fields to ``parse`` as read, which accepts
    exactly the strings it accepts after ``str.strip`` except for the
    separators U+001C..U+001F that only ``str.strip`` removes; only a
    failed pass goes field by field on the stripped text, as a row-wise
    read would.
    """
    try:
        return list(map(parse, raw))
    except ValueError:
        pass
    out = []
    for s in raw:
        try:
            out.append(parse(s.strip()))
        except ValueError:
            out.append(fill)
    return out


def _check_value(raw: str, where: str, label: str) -> None:
    """Raise the ``MissingValue`` a row-wise read gives for a bad field."""
    text = raw.strip()
    if text == "":
        raise MissingValue(f"{where}: {label} is empty")
    try:
        value = float(text)
    except ValueError:
        raise MissingValue(f"{where}: {label} {text!r} is not numeric") from None
    if not np.isfinite(value):
        raise MissingValue(f"{where}: {label} is not finite")


def _load_panel_stream(fh, schema: ColumnSchema, path=None) -> PanelDataset:
    """Map the header, read the mapped columns and check them into a panel."""
    reader = csv.reader(fh, delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelValidationError("input is empty") from None
    col = _header_columns(header)
    for required in (schema.unit, schema.time, schema.group, schema.outcome):
        if required not in col:
            raise PanelValidationError(f"missing required column {required!r}")
    if schema.covariates is None:
        mapped = {schema.unit, schema.time, schema.group, schema.outcome}
        cov_names = tuple(h for h in col if h not in mapped)
    else:
        cov_names = tuple(schema.covariates)
        for name in cov_names:
            if name not in col:
                raise PanelValidationError(f"missing covariate column {name!r}")

    # Fields in read order: unit, time, group, outcome, covariates.
    index = [col[name] for name in
             (schema.unit, schema.time, schema.group, schema.outcome, *cov_names)]
    columns = None if path is None else _read_columns(path, schema.delimiter, index)
    if columns is None:
        columns = _read_rows(reader, index)
    return _checked_panel(*columns, cov_names)


def _read_columns(path, delimiter: str, index: list[int]):
    """The mapped columns of a well-formed delimited file, read by ``np.loadtxt``.

    Returns None wherever the row reader might read the file otherwise: a
    quote character (which ``csv`` reads as quoting) anywhere in the file,
    a field that does not parse, no data row, or a unit id with
    surrounding white space. Otherwise ids and groups are the fields as
    ``csv`` reads them, and each number is what the row reader makes of
    its stripped text.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if b'"' in chunk:
                return None
    fields = np.dtype([("id", object), ("t", np.int64), ("g", object)]
                      + [(f"v{k}", np.float64) for k in range(len(index) - 3)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=fields, delimiter=delimiter, comments=None,
                               skiprows=1, usecols=index, ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    ids = table["id"].tolist()
    if list(map(str.strip, ids)) != ids:
        return None
    values = [np.ascontiguousarray(table[f"v{k}"]) for k in range(len(index) - 3)]
    return ids, np.ascontiguousarray(table["t"]), table["g"].tolist(), values, None


@dataclass(frozen=True)
class _RowFields:
    """What the row reader kept of each data row for its error messages."""

    fields: list    # the mapped fields as read, one list per mapped column
    lens: np.ndarray  # fields per row
    index: list     # column of each mapped field
    line_no: np.ndarray


def _read_rows(reader, index: list[int]):
    """The mapped columns of the data rows, read row by row by ``csv``.

    Every check is a mask over the rows. Too few fields for the unit and
    time, or a time that is not an integer, raise here at the first such
    row; blank rows are dropped. A field that does not parse reads as a NaN
    (a bad group as -1 later), and a row too short for a later field keeps
    an empty one; :func:`_checked_panel` reports both from ``_RowFields``.
    """
    width = max(index) + 1
    rows = list(reader)
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    blank = lens == 0
    # Only a short row or one with a blank time field can be blank; short
    # rows are padded so every mapped field can be taken, and ``lens``
    # keeps what was read.
    for k in np.flatnonzero(lens < width):
        blank[k] = _is_blank(rows[k])
        rows[k] = rows[k] + [""] * (width - lens[k])
    fields = [list(map(itemgetter(j), rows)) for j in index]
    t_list = _parse_column(fields[1], int, None)
    bad_time = np.zeros(len(t_list), dtype=bool)
    if None in t_list:
        bad_time[[k for k, t in enumerate(t_list) if t is None]] = True
        for k in np.flatnonzero(bad_time & ~blank & (lens >= width)):
            blank[k] = _is_blank(rows[k])
    del rows

    short_key = lens <= max(index[0], index[1])
    fail = ~blank & (short_key | bad_time)
    if fail.any():
        k = int(np.argmax(fail))
        if short_key[k]:
            raise PanelValidationError(f"line {k + 2}: too few fields")
        raise PanelValidationError(
            f"line {k + 2}: time {fields[1][k].strip()!r} is not an integer"
        )
    line_no = np.arange(2, len(t_list) + 2)
    if blank.any():
        keep = ~blank
        fields = [list(compress(f, keep)) for f in fields]
        t_list = list(compress(t_list, keep))
        lens, line_no = lens[keep], line_no[keep]
    # A field that is not a number reads NaN, so it fails the finite check.
    values = [np.array(_parse_column(f, float, np.nan), dtype=np.float64)
              for f in fields[3:]]
    return (list(map(str.strip, fields[0])), t_list, fields[2], values,
            _RowFields(fields, lens, index, line_no))


def _checked_panel(ids, t, g_raw, values, rows, cov_names) -> PanelDataset:
    """Check the mapped columns of the data rows and build the panel.

    ``ids`` are the stripped unit ids, ``t`` the periods (an int64 array,
    or a list of ints from the row reader), ``g_raw``
    the group fields as read and ``values`` the outcome and covariate
    columns (NaN where a field did not parse). When a check fails, the
    first failing row in file order raises the message of the first check
    it fails, in the order a row-by-row read makes them: a repeated period,
    the group (too few fields, label, change within the unit), the outcome
    and each covariate. Missing periods are reported last. ``rows`` (None
    when every field parsed) gives a short row's line and a bad field's
    text.
    """
    if not ids:
        raise PanelValidationError("no data rows found")
    # The row reader's times are Python ints of any size.
    times = np.unique(t).tolist() if isinstance(t, np.ndarray) else sorted(set(t))
    T = times[-1]
    # Distinct integers from 1 to T cover 1..T exactly when there are T.
    if times[0] != 1 or len(times) != T:
        raise UnbalancedPanel(f"time values must cover 1..{T} exactly; saw {times}")
    t = np.asarray(t, dtype=np.int64)

    units = sorted(set(ids))
    unit_index = {u: i for i, u in enumerate(units)}
    ui = np.fromiter(map(unit_index.__getitem__, ids), dtype=np.intp, count=len(ids))
    n, p = len(units), len(cov_names)
    key = ui * T + (t - 1)

    order = np.argsort(key, kind="stable")
    repeated = np.zeros(key.shape[0], dtype=bool)
    repeated[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    parsed = {}
    for raw in set(g_raw):
        try:
            parsed[raw] = _parse_group(raw, None, T)
        except PanelValidationError:
            parsed[raw] = -1
    g = np.fromiter(map(parsed.__getitem__, g_raw), dtype=np.int64, count=key.shape[0])
    first_row = np.unique(ui, return_index=True)[1]
    first_g = g[first_row[ui]]
    fail = repeated | (g < 0) | (g != first_g)
    if rows is not None:
        fail |= rows.lens <= max(rows.index)
    for v in values:
        fail |= ~np.isfinite(v)
    if fail.any():
        k = int(np.argmax(fail))
        unit, period = ids[k], int(t[k])
        if repeated[k]:
            raise UnbalancedPanel(f"unit {unit}: period {period} appears more than once")
        where = f"unit {unit}, period {period}"
        for m, label in enumerate(("group", "outcome", *cov_names), start=2):
            if rows is not None and rows.lens[k] <= rows.index[m]:
                raise PanelValidationError(f"line {rows.line_no[k]}: too few fields")
            if m > 2:
                if not np.isfinite(values[m - 3][k]):
                    if rows is not None:
                        _check_value(rows.fields[m][k], where, label)
                    raise MissingValue(f"{where}: {label} is not finite")
                continue
            g_k = _parse_group(g_raw[k], unit, T)
            if g_k != first_g[k]:
                raise NonMonotoneTreatment(
                    f"unit {unit}: group changes from {first_g[k]} to {g_k} "
                    f"at period {period}"
                )

    if key.shape[0] < n * T:
        seen = np.zeros(n * T, dtype=bool)
        seen[key] = True
        i, tm = divmod(int(np.argmin(seen)), T)
        raise UnbalancedPanel(f"unit {units[i]}: period {tm + 1} is missing")
    # Two equal covariates enter every fit with the same data, so how a fit
    # splits its coefficient between them, and so tau-hat's slope on each,
    # is arbitrary.
    for j in range(1, p):
        for i in range(j):
            if np.array_equal(values[1 + i], values[1 + j]):
                raise PanelValidationError(
                    f"covariate {cov_names[j]!r} equals covariate {cov_names[i]!r} "
                    "on every row")

    groups = np.empty(n, dtype=np.int64)
    groups[ui] = g
    outcomes = np.empty(n * T)
    outcomes[key] = values[0]
    covariates = np.empty((n * T, p))
    for j, v in enumerate(values[1:]):
        covariates[key, j] = v
    return PanelDataset(
        unit_ids=np.array(units, dtype=object),
        groups=groups,
        n_periods=T,
        outcomes=outcomes.reshape(n, T),
        covariates=covariates.reshape(n, T, p),
        covariate_names=cov_names,
    )


def write_panel_csv(panel: PanelDataset, path, delimiter: str = ",") -> None:
    """Write a panel in the interchange format accepted by load_panel."""
    n, T, p = panel.n_units, panel.n_periods, len(panel.covariate_names)
    # One column per field; csv writes a Python float as str(), which is
    # its repr.
    columns = [
        np.repeat(panel.unit_ids, T).tolist(),
        np.tile(np.arange(1, T + 1), n).tolist(),
        np.repeat(panel.groups.astype(np.int64), T).tolist(),
        panel.outcomes.astype(np.float64).ravel().tolist(),
        *panel.covariates.astype(np.float64).reshape(n * T, p).T.tolist(),
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["id", "time", "group", "y", *panel.covariate_names])
        writer.writerows(zip(*columns))


def read_catt_panel_csv(path):
    """The unit, e, tau_hat and score columns of a ``catt_panel.csv``.

    Returns the unit ids as read (strings), ``e`` as int64 and the two
    effect columns as float64. Empty lines are skipped. A missing or
    repeated column, a row without one of the four fields, an ``e`` that is
    not an integer and an effect that is not a finite number raise a
    ``PanelValidationError`` whose message starts with "catt panel".
    """
    names = ("unit", "e", "tau_hat", "score")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            col = _header_columns(next(reader, []))
        except PanelValidationError as err:
            raise PanelValidationError(f"catt panel: {err}") from None
        for name in names:
            if name not in col:
                raise PanelValidationError(f"catt panel: missing column {name!r}")
        rows = list(reader)
    index = [col[name] for name in names]
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = (lens > 0) & (lens <= max(index))
    if short.any():
        raise PanelValidationError(
            f"catt panel line {np.argmax(short) + 2}: too few fields")
    line_no = np.flatnonzero(lens) + 2
    if line_no.shape[0] < len(rows):
        rows = list(compress(rows, lens))
    units, e_raw, tau_raw, score_raw = (list(map(itemgetter(j), rows)) for j in index)
    del rows
    e = _parse_column(e_raw, int, None)
    tau = _parse_column(tau_raw, float, None)
    score = _parse_column(score_raw, float, None)
    for name, raw, values, kind in (("e", e_raw, e, "an integer"),
                                    ("tau_hat", tau_raw, tau, "a number"),
                                    ("score", score_raw, score, "a number")):
        if None in values:
            k = values.index(None)
            raise PanelValidationError(
                f"catt panel line {line_no[k]}: {name} {raw[k].strip()!r} is not {kind}"
            )
    tau, score = np.array(tau, dtype=np.float64), np.array(score, dtype=np.float64)
    for name, raw, values in (("tau_hat", tau_raw, tau), ("score", score_raw, score)):
        bad = ~np.isfinite(values)
        if bad.any():
            k = int(np.argmax(bad))
            raise PanelValidationError(
                f"catt panel line {line_no[k]}: {name} {raw[k].strip()!r} is not finite")
    return units, np.array(e, dtype=np.int64), tau, score


def slice_rows(panel: PanelDataset, g: int, t: int) -> np.ndarray:
    """Panel rows of the (g, t) cell's units, in panel order.

    Treated units are cohort g; controls are units with group > max(g-1, t)
    or never treated, so both of a control's outcomes predate its own
    treatment. Raises what :func:`slice_two_period` raises.
    """
    T = panel.n_periods
    if not (2 <= g <= T):
        raise MldidError(f"g={g} outside 2..{T}")
    if not (1 <= t <= T):
        raise MldidError(f"t={t} outside 1..{T}")
    if t == g - 1:
        raise MldidError(f"(g={g}, t={t}) is the reference cell; nothing to estimate")

    treated = panel.groups == g
    horizon = max(g - 1, t)
    # Controls are units outside cohort g whose treatment has not started
    # by either period the cell observes.
    control = (
        (panel.groups == NEVER_TREATED) | (panel.groups > horizon)
    ) & ~treated
    if not treated.any():
        raise empty_treated_error(g)
    if not control.any():
        raise empty_control_error(g, t)
    return np.flatnonzero(treated | control)


def slice_two_period(panel: PanelDataset, g: int, t: int) -> TwoPeriodSlice:
    """Build the (g, t) estimation cell.

    Treated rows are cohort g observed at periods (g-1, t); controls are
    the other units of :func:`slice_rows`, observed at the same two
    periods.
    """
    rows = slice_rows(panel, g, t)
    pre = g - 1
    return TwoPeriodSlice(
        g=g,
        t=t,
        pre_period=pre,
        unit_ids=panel.unit_ids[rows],
        unit_rows=rows,
        g_flag=(panel.groups[rows] == g).astype(np.int8),
        y_pre=panel.outcomes[rows, pre - 1].copy(),
        y_post=panel.outcomes[rows, t - 1].copy(),
        X=panel.covariates[rows, pre - 1, :].copy(),
        covariate_names=panel.covariate_names,
    )


def empty_treated_error(g: int) -> EmptyTreatedGroup:
    """What slicing cell (g, t) raises when cohort g has no units."""
    return EmptyTreatedGroup(f"no units in cohort g={g}")


def empty_control_error(g: int, t: int) -> EmptyControlGroup:
    """What slicing cell (g, t) raises when it has no control units."""
    return EmptyControlGroup(
        f"cell (g={g}, t={t}): no unit outside cohort {g} is untreated "
        f"through period {max(g - 1, t)}"
    )


def enumerate_cells(
    panel: PanelDataset, include_placebo: bool = False
) -> list[tuple[int, int]]:
    """All estimable (g, t) cells, excluding the g-1 reference period.

    Post-treatment cells have t >= g; with ``include_placebo`` the
    pre-treatment cells t < g-1 are added.
    """
    T = panel.n_periods
    cells = []
    for g in panel.cohorts:
        for t in range(g, T + 1):
            cells.append((g, t))
        if include_placebo:
            for t in range(1, g - 1):
                cells.append((g, t))
    return sorted(cells)
