"""Row-by-row reference for the columnar panel reader and table writers.

``load_panel_rows`` is the loader that ``mldid.panel.load_panel`` replaced:
it strips, parses and checks every field of every row in Python and raises
at the first row that fails. The tests require the columnar loader to give
bit-identical arrays or the same exception type and message. The one known
difference: a row that has its unit and time but lacks a later mapped field
makes this reference crash with an ``IndexError``, where the columnar
loader reports "line N: too few fields".

``write_panel_csv_rows`` and ``write_catt_panel_csv_rows`` are the writers
that sent every value through ``report._fmt`` one row at a time; the
columnar writers must produce the same bytes.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from mldid.exceptions import (
    MissingValue,
    NonMonotoneTreatment,
    PanelValidationError,
    UnbalancedPanel,
)
from mldid.panel import ColumnSchema, PanelDataset, _parse_group
from mldid.report import _write_rows


def load_panel_rows(source, schema: ColumnSchema | None = None) -> PanelDataset:
    schema = schema or ColumnSchema()
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return _load_panel_stream(fh, schema)
    if isinstance(source, bytes):
        return _load_panel_stream(io.StringIO(source.decode("utf-8")), schema)
    return _load_panel_stream(source, schema)


def _load_panel_stream(fh, schema: ColumnSchema) -> PanelDataset:
    reader = csv.reader(fh, delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelValidationError("input is empty") from None
    header = [h.strip() for h in header]
    col = {name: i for i, name in enumerate(header)}
    for required in (schema.unit, schema.time, schema.group, schema.outcome):
        if required not in col:
            raise PanelValidationError(f"missing required column {required!r}")
    if schema.covariates is None:
        mapped = {schema.unit, schema.time, schema.group, schema.outcome}
        cov_names = tuple(h for h in header if h not in mapped)
    else:
        cov_names = tuple(schema.covariates)
        for name in cov_names:
            if name not in col:
                raise PanelValidationError(f"missing covariate column {name!r}")

    records = []
    times = set()
    for line_no, row in enumerate(reader, start=2):
        if not row or all(f.strip() == "" for f in row):
            continue
        try:
            unit = row[col[schema.unit]].strip()
            t_raw = row[col[schema.time]].strip()
        except IndexError:
            raise PanelValidationError(f"line {line_no}: too few fields") from None
        try:
            t = int(t_raw)
        except ValueError:
            raise PanelValidationError(
                f"line {line_no}: time {t_raw!r} is not an integer"
            ) from None
        times.add(t)
        records.append((unit, t, row, line_no))
    if not records:
        raise PanelValidationError("no data rows found")

    T = max(times)
    if min(times) != 1 or times != set(range(1, T + 1)):
        raise UnbalancedPanel(
            f"time values must cover 1..{T} exactly; saw {sorted(times)}"
        )

    units = sorted({r[0] for r in records})
    unit_index = {u: i for i, u in enumerate(units)}
    n, p = len(units), len(cov_names)
    outcomes = np.full((n, T), np.nan)
    covariates = np.full((n, T, p), np.nan)
    groups = np.full(n, -1, dtype=np.int64)
    seen = np.zeros((n, T), dtype=bool)

    for unit, t, row, line_no in records:
        i = unit_index[unit]
        if seen[i, t - 1]:
            raise UnbalancedPanel(f"unit {unit}: period {t} appears more than once")
        seen[i, t - 1] = True
        g = _parse_group(row[col[schema.group]], unit, T)
        if groups[i] == -1:
            groups[i] = g
        elif groups[i] != g:
            raise NonMonotoneTreatment(
                f"unit {unit}: group changes from {groups[i]} to {g} at period {t}"
            )
        y_raw = row[col[schema.outcome]].strip()
        if y_raw == "":
            raise MissingValue(f"unit {unit}, period {t}: outcome is empty")
        try:
            y_val = float(y_raw)
        except ValueError:
            raise MissingValue(
                f"unit {unit}, period {t}: outcome {y_raw!r} is not numeric"
            ) from None
        if not np.isfinite(y_val):
            raise MissingValue(f"unit {unit}, period {t}: outcome is not finite")
        outcomes[i, t - 1] = y_val
        for j, name in enumerate(cov_names):
            x_raw = row[col[name]].strip()
            if x_raw == "":
                raise MissingValue(f"unit {unit}, period {t}: {name} is empty")
            try:
                x_val = float(x_raw)
            except ValueError:
                raise MissingValue(
                    f"unit {unit}, period {t}: {name} {x_raw!r} is not numeric"
                ) from None
            if not np.isfinite(x_val):
                raise MissingValue(f"unit {unit}, period {t}: {name} is not finite")
            covariates[i, t - 1, j] = x_val

    missing = ~seen
    if missing.any():
        i, tm = np.argwhere(missing)[0]
        raise UnbalancedPanel(f"unit {units[i]}: period {tm + 1} is missing")

    for j in range(1, len(cov_names)):
        for i in range(j):
            if np.array_equal(covariates[..., i], covariates[..., j]):
                raise PanelValidationError(
                    f"covariate {cov_names[j]!r} equals covariate {cov_names[i]!r} "
                    "on every row")

    return PanelDataset(
        unit_ids=np.array(units, dtype=object),
        groups=groups,
        n_periods=T,
        outcomes=outcomes,
        covariates=covariates,
        covariate_names=cov_names,
    )


def write_panel_csv_rows(panel: PanelDataset, path, delimiter: str = ",") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["id", "time", "group", "y", *panel.covariate_names])
        for i in range(panel.n_units):
            g = int(panel.groups[i])
            for t in range(1, panel.n_periods + 1):
                writer.writerow(
                    [
                        panel.unit_ids[i],
                        t,
                        g,
                        repr(float(panel.outcomes[i, t - 1])),
                        *[repr(float(v)) for v in panel.covariates[i, t - 1]],
                    ]
                )


def write_catt_panel_csv_rows(path, panel) -> None:
    _write_rows(
        path,
        ["unit", "e", "tau_hat", "score"],
        [
            (panel.unit_ids[i], panel.e[i], panel.tau[i], panel.score[i])
            for i in range(panel.n_rows)
        ],
    )
