"""Staggered-adoption panel data model and two-period slice construction."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    EmptyControlGroup,
    EmptyTreatedGroup,
    GroupOne,
    MissingValue,
    MldidError,
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
    arrays over periods 1..T.
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

    @property
    def never_treated_mask(self) -> np.ndarray:
        return self.groups == NEVER_TREATED


@dataclass(frozen=True)
class TwoPeriodSlice:
    """One (g, t) estimation cell: cohort g versus not-yet-treated controls.

    The baseline period is always g-1. ``g_flag`` is 1 for cohort-g rows;
    covariates are the baseline-period values.
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
    control_rule: str = "not-yet-treated"

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
    constant group label per unit and no missing values.
    """
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

    return PanelDataset(
        unit_ids=np.array(units, dtype=object),
        groups=groups,
        n_periods=T,
        outcomes=outcomes,
        covariates=covariates,
        covariate_names=cov_names,
    )


def write_panel_csv(panel: PanelDataset, path, delimiter: str = ",") -> None:
    """Write a panel in the interchange format accepted by load_panel."""
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


def slice_two_period(panel: PanelDataset, g: int, t: int) -> TwoPeriodSlice:
    """Build the (g, t) estimation cell.

    Treated rows are cohort g observed at periods (g-1, t); controls are
    units with group > max(g-1, t) or never treated, observed at the same
    two periods, so both of a control's outcomes predate its own treatment.
    """
    T = panel.n_periods
    if not (2 <= g <= T):
        raise MldidError(f"g={g} outside 2..{T}")
    if not (1 <= t <= T):
        raise MldidError(f"t={t} outside 1..{T}")
    if t == g - 1:
        raise MldidError(f"(g={g}, t={t}) is the reference cell; nothing to estimate")

    pre = g - 1
    treated = panel.groups == g
    horizon = max(pre, t)
    # Controls are units outside cohort g whose treatment has not started
    # by either period the cell observes.
    control = (
        (panel.groups == NEVER_TREATED) | (panel.groups > horizon)
    ) & ~treated
    if not treated.any():
        raise empty_treated_error(g)
    if not control.any():
        raise empty_control_error(g, t)

    keep = treated | control
    rows = np.flatnonzero(keep)
    return TwoPeriodSlice(
        g=g,
        t=t,
        pre_period=pre,
        unit_ids=panel.unit_ids[rows],
        unit_rows=rows,
        g_flag=treated[rows].astype(np.int8),
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
